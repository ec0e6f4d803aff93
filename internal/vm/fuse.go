package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Threaded-code lowering with superinstruction fusion.
//
// buildClosures compiles a kernel's bytecode into k.clos: one closure per
// basic block, installed at the block's leader pc (interior pcs stay nil —
// the driver only ever enters at leaders: pc 0, jump targets, and
// post-barrier resume points). Each block closure charges the whole block
// against the step budget once, runs its straight-line steps, then executes
// its terminator, which returns the next leader pc or a sentinel.
//
// The peephole pass (matchSuper) greedily fuses the opcode sequences the
// expression compiler actually emits — affine index computation, indexed
// loads feeding multiplies, multiply-add chains, increment idioms,
// get_global_id, and compare+branch terminators — into single closures.
// Fusion is matched on opcode shape only and every fused closure performs
// the exact register writes, stats updates, and memory-op side effects of
// its component instructions in order, so temporaries that live across
// block boundaries (ternary/&&/|| merges) and error-path prefixes behave
// identically to the interpreter.
//
// Step-budget equivalence: the interpreter checks `steps++ > maxSteps`
// before every instruction; a block of n instructions errors iff
// stepsBefore + n > maxSteps for the worst in-block prefix, which is the
// same condition the batched `m.steps += n` check tests. Error *presence*
// is therefore identical; only the reported pc of a budget error (block
// leader vs exact instruction) may differ.

// FusedSpan records one fused superinstruction for disassembly: Len
// consecutive instructions starting at pc Start execute as the single
// closure Name.
type FusedSpan struct {
	Start int
	Len   int
	Name  string
}

// buildClosures lowers k.Code into threaded code. On any shape the lowering
// does not support (unknown opcode, out-of-range jump target, code that can
// fall off the end) it leaves k.clos nil and execution falls back to the
// interpreter.
func (k *Kernel) buildClosures() {
	code := k.Code
	n := len(code)
	if n == 0 || code[n-1].Op != opRET && code[n-1].Op != opJMP {
		return
	}
	for _, in := range code {
		if in.Op < opNop || in.Op > opRET {
			return
		}
		switch in.Op {
		case opJMP, opJZ, opJNZ:
			if in.A < 0 || int(in.A) >= n {
				return
			}
		}
	}

	// Leaders: entry, jump targets, and the instruction after any
	// control transfer (including barrier resume points).
	leader := make([]bool, n+1)
	leader[0] = true
	for pc, in := range code {
		switch in.Op {
		case opJMP, opJZ, opJNZ:
			leader[in.A] = true
			leader[pc+1] = true
		case opBARRIER, opRET:
			leader[pc+1] = true
		}
	}

	clos := make([]closFn, n)
	var fused []FusedSpan
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		bc := k.buildBlock(start, end, &fused)
		if bc == nil {
			return
		}
		clos[start] = bc
		start = end
	}
	sort.Slice(fused, func(i, j int) bool { return fused[i].Start < fused[j].Start })
	k.clos = clos
	k.Fused = fused
	var f int64
	for _, s := range fused {
		f += int64(s.Len)
	}
	backendCtr.totalInstrs.Add(int64(n))
	backendCtr.fusedInstrs.Add(f)
}

// buildBlock compiles the basic block code[start:end). The last instruction
// may be a control transfer (terminator); everything before it is
// straight-line.
func (k *Kernel) buildBlock(start, end int, fused *[]FusedSpan) closFn {
	code := k.Code
	nInstr := int64(end - start)
	last := code[end-1]
	bodyEnd := end
	var term closFn
	switch last.Op {
	case opJMP:
		bodyEnd = end - 1
		tgt := int(last.A)
		term = func(m *cmach) int { m.st.Branches++; return tgt }
	case opJZ, opJNZ:
		bodyEnd = end - 1
		term = k.fuseCondBr(start, &bodyEnd, end, fused)
	case opRET:
		bodyEnd = end - 1
		term = func(m *cmach) int { m.w.done = true; return pcRET }
	case opBARRIER:
		bodyEnd = end - 1
		resume := end
		term = func(m *cmach) int { m.w.pc = resume; return pcBARRIER }
	default:
		next := end
		term = func(m *cmach) int { return next }
	}

	var steps []stepFn
	for pc := start; pc < bodyEnd; {
		if fn, ln, name := k.matchSuper(pc, bodyEnd); fn != nil {
			steps = append(steps, fn)
			*fused = append(*fused, FusedSpan{Start: pc, Len: ln, Name: name})
			pc += ln
			continue
		}
		if code[pc].Op == opNop {
			pc++ // no semantics; still counted in nInstr for the budget
			continue
		}
		s := k.buildStep(pc)
		if s == nil {
			return nil
		}
		steps = append(steps, s)
		pc++
	}

	blockStart := start
	kname := k.Name
	switch len(steps) {
	case 0:
		return func(m *cmach) int {
			if m.steps += nInstr; m.steps > m.maxSteps {
				m.err = &execError{kname, blockStart, "instruction budget exceeded (possible infinite loop)"}
				return pcERR
			}
			return term(m)
		}
	case 1:
		s0 := steps[0]
		return func(m *cmach) int {
			if m.steps += nInstr; m.steps > m.maxSteps {
				m.err = &execError{kname, blockStart, "instruction budget exceeded (possible infinite loop)"}
				return pcERR
			}
			if !s0(m) {
				return pcERR
			}
			return term(m)
		}
	case 2:
		s0, s1 := steps[0], steps[1]
		return func(m *cmach) int {
			if m.steps += nInstr; m.steps > m.maxSteps {
				m.err = &execError{kname, blockStart, "instruction budget exceeded (possible infinite loop)"}
				return pcERR
			}
			if !s0(m) || !s1(m) {
				return pcERR
			}
			return term(m)
		}
	case 3:
		s0, s1, s2 := steps[0], steps[1], steps[2]
		return func(m *cmach) int {
			if m.steps += nInstr; m.steps > m.maxSteps {
				m.err = &execError{kname, blockStart, "instruction budget exceeded (possible infinite loop)"}
				return pcERR
			}
			if !s0(m) || !s1(m) || !s2(m) {
				return pcERR
			}
			return term(m)
		}
	case 4:
		s0, s1, s2, s3 := steps[0], steps[1], steps[2], steps[3]
		return func(m *cmach) int {
			if m.steps += nInstr; m.steps > m.maxSteps {
				m.err = &execError{kname, blockStart, "instruction budget exceeded (possible infinite loop)"}
				return pcERR
			}
			if !s0(m) || !s1(m) || !s2(m) || !s3(m) {
				return pcERR
			}
			return term(m)
		}
	default:
		return func(m *cmach) int {
			if m.steps += nInstr; m.steps > m.maxSteps {
				m.err = &execError{kname, blockStart, "instruction budget exceeded (possible infinite loop)"}
				return pcERR
			}
			for _, s := range steps {
				if !s(m) {
					return pcERR
				}
			}
			return term(m)
		}
	}
}

// fuseCondBr builds the terminator for a block ending in JZ/JNZ, folding a
// preceding integer compare (and up to two register moves feeding it) into
// the branch closure. It narrows *bodyEnd past any instructions it absorbs.
func (k *Kernel) fuseCondBr(start int, bodyEnd *int, end int, fused *[]FusedSpan) closFn {
	code := k.Code
	br := code[end-1]
	tgt, next, jb := int(br.A), end, br.B
	jz := br.Op == opJZ
	be := *bodyEnd

	plain := func(m *cmach) int {
		m.st.Branches++
		if (m.iregs[jb] == 0) == jz {
			return tgt
		}
		return next
	}
	if be-start < 1 || !isIntCmp(code[be-1].Op) {
		return plain
	}
	cmp := code[be-1]
	cf := intCmpFn(cmp.Op)
	ca, cb, cc := cmp.A, cmp.B, cmp.C
	// Loop/guard conditions: when the branch tests the compare's own
	// destination, the truth value short-circuits into the branch.
	isLT := cmp.Op == opILT && jb == ca

	if be-start >= 3 && code[be-3].Op == opIMOV && code[be-2].Op == opIMOV {
		m0, m1 := code[be-3], code[be-2]
		a0, b0, a1, b1 := m0.A, m0.B, m1.A, m1.B
		*bodyEnd = be - 3
		*fused = append(*fused, FusedSpan{Start: be - 3, Len: 4, Name: "imov2.cmp.br"})
		if isLT {
			return func(m *cmach) int {
				ir := m.iregs
				ir[a0] = ir[b0]
				ir[a1] = ir[b1]
				taken := ir[cb] < ir[cc]
				ir[ca] = b2i(taken)
				st := m.st
				st.IntOps++
				st.Branches++
				if !taken == jz {
					return tgt
				}
				return next
			}
		}
		return func(m *cmach) int {
			ir := m.iregs
			ir[a0] = ir[b0]
			ir[a1] = ir[b1]
			ir[ca] = b2i(cf(ir[cb], ir[cc]))
			m.st.IntOps++
			m.st.Branches++
			if (ir[jb] == 0) == jz {
				return tgt
			}
			return next
		}
	}

	*bodyEnd = be - 1
	*fused = append(*fused, FusedSpan{Start: be - 1, Len: 2, Name: "cmp.br"})
	if isLT {
		return func(m *cmach) int {
			ir := m.iregs
			taken := ir[cb] < ir[cc]
			ir[ca] = b2i(taken)
			st := m.st
			st.IntOps++
			st.Branches++
			if !taken == jz {
				return tgt
			}
			return next
		}
	}
	return func(m *cmach) int {
		ir := m.iregs
		ir[ca] = b2i(cf(ir[cb], ir[cc]))
		m.st.IntOps++
		m.st.Branches++
		if (ir[jb] == 0) == jz {
			return tgt
		}
		return next
	}
}

func isIntCmp(op Op) bool { return op >= opILT && op <= opINE }

// opsAt reports whether code[pc:pc+len(ops)] lies within [pc, end) and
// matches the opcode sequence exactly.
func (k *Kernel) opsAt(pc, end int, ops ...Op) bool {
	if pc+len(ops) > end {
		return false
	}
	for i, o := range ops {
		if k.Code[pc+i].Op != o {
			return false
		}
	}
	return true
}

// matchSuper tries the superinstruction patterns (longest first) at pc and
// returns a fused stepFn, the number of instructions consumed, and the
// superinstruction mnemonic. All patterns match on opcode shape only and
// inline the exact per-instruction semantics.
func (k *Kernel) matchSuper(pc, end int) (stepFn, int, string) {
	code := k.Code
	switch {
	// a[i*m+k] materialization: two index moves, scale, move, add — then
	// the indexed float load, the multiply consuming it (x*A[..]), and
	// optionally the accumulate (acc += x*A[..]), the matmul/inner-product
	// core.
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opFMUL, opFADD):
		return k.superAffLoad(pc, true, true), 8, "aff.ldgf.fmadd"
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opFMUL):
		return k.superAffLoad(pc, true, false), 7, "aff.ldgf.fmul"
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF):
		return k.superAffLoad(pc, false, false), 6, "aff.ldgf"
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGI):
		return k.superAffLoad(pc, false, false), 6, "aff.ldgi"
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD):
		i0, i1, mul, i3, add := code[pc], code[pc+1], code[pc+2], code[pc+3], code[pc+4]
		a0, b0, a1, b1 := i0.A, i0.B, i1.A, i1.B
		ma, mb, mc := mul.A, mul.B, mul.C
		a3, b3 := i3.A, i3.B
		aa, ab, ac := add.A, add.B, add.C
		return func(m *cmach) bool {
			ir := m.iregs
			ir[a0] = ir[b0]
			ir[a1] = ir[b1]
			ir[ma] = ir[mb] * ir[mc]
			m.st.IntOps++
			ir[a3] = ir[b3]
			ir[aa] = ir[ab] + ir[ac]
			m.st.IntOps++
			return true
		}, 5, "aff.idx"
	// k = k + 1 loop increment: IMOV tmp,k; LDI one; IADD; IMOV k,tmp.
	case k.opsAt(pc, end, opIMOV, opLDI, opIADD, opIMOV):
		i0, ldi, add, i3 := code[pc], code[pc+1], code[pc+2], code[pc+3]
		a0, b0 := i0.A, i0.B
		la, imm := ldi.A, ldi.IImm
		aa, ab, ac := add.A, add.B, add.C
		a3, b3 := i3.A, i3.B
		return func(m *cmach) bool {
			ir := m.iregs
			ir[a0] = ir[b0]
			ir[la] = imm
			ir[aa] = ir[ab] + ir[ac]
			m.st.IntOps++
			ir[a3] = ir[b3]
			return true
		}, 4, "inc"
	// int i = get_global_id(0): dim constant, GID, assignment move.
	case k.opsAt(pc, end, opLDI, opGID, opIMOV):
		ldi, gid, mov := code[pc], code[pc+1], code[pc+2]
		la, imm := ldi.A, ldi.IImm
		ga, gb := gid.A, gid.B
		ma, mb := mov.A, mov.B
		return func(m *cmach) bool {
			ir := m.iregs
			ir[la] = imm
			d := ir[gb]
			ir[ga] = cdim(m.group, d)*cdim(m.nd.LocalSize, d) + cdim(m.lid, d)
			m.st.IntOps++
			ir[ma] = ir[mb]
			return true
		}, 3, "gid.imov"
	case k.opsAt(pc, end, opLDI, opGID):
		ldi, gid := code[pc], code[pc+1]
		la, imm := ldi.A, ldi.IImm
		ga, gb := gid.A, gid.B
		return func(m *cmach) bool {
			ir := m.iregs
			ir[la] = imm
			d := ir[gb]
			ir[ga] = cdim(m.group, d)*cdim(m.nd.LocalSize, d) + cdim(m.lid, d)
			m.st.IntOps++
			return true
		}, 2, "gid"
	case k.opsAt(pc, end, opLDGF, opFMUL):
		return k.superLoadFMul(pc), 2, "ldgf.fmul"
	// Fused multiply-add: acc += x*y.
	case k.opsAt(pc, end, opFMUL, opFADD):
		fm, fa2 := code[pc], code[pc+1]
		ma, mb, mc := fm.A, fm.B, fm.C
		aa, ab, ac := fa2.A, fa2.B, fa2.C
		return func(m *cmach) bool {
			fr := m.fregs
			fr[ma] = float64(float32(fr[mb]) * float32(fr[mc]))
			m.st.FloatOps++
			fr[aa] = float64(float32(fr[ab]) + float32(fr[ac]))
			m.st.FloatOps++
			return true
		}, 2, "fmul.fadd"
	// Arith feeding an indexed global store.
	case k.opsAt(pc, end, opFADD, opSTGF):
		fa2 := code[pc]
		aa, ab, ac := fa2.A, fa2.B, fa2.C
		st := k.buildStep(pc + 1)
		return func(m *cmach) bool {
			fr := m.fregs
			fr[aa] = float64(float32(fr[ab]) + float32(fr[ac]))
			m.st.FloatOps++
			return st(m)
		}, 2, "fadd.stgf"
	case k.opsAt(pc, end, opFMUL, opSTGF):
		fm := code[pc]
		ma, mb, mc := fm.A, fm.B, fm.C
		st := k.buildStep(pc + 1)
		return func(m *cmach) bool {
			fr := m.fregs
			fr[ma] = float64(float32(fr[mb]) * float32(fr[mc]))
			m.st.FloatOps++
			return st(m)
		}, 2, "fmul.stgf"
	// Compare whose operands both need moves (loop conditions mid-block).
	case k.opsAt(pc, end, opIMOV, opIMOV) && pc+2 < end && isIntCmp(code[pc+2].Op):
		m0, m1, cmp := code[pc], code[pc+1], code[pc+2]
		a0, b0, a1, b1 := m0.A, m0.B, m1.A, m1.B
		ca, cb, cc := cmp.A, cmp.B, cmp.C
		cf := intCmpFn(cmp.Op)
		return func(m *cmach) bool {
			ir := m.iregs
			ir[a0] = ir[b0]
			ir[a1] = ir[b1]
			ir[ca] = b2i(cf(ir[cb], ir[cc]))
			m.st.IntOps++
			return true
		}, 3, "imov2.cmp"
	}
	return nil, 0, ""
}

// superAffLoad fuses the affine-index prelude with the following indexed
// global load, and optionally the float multiply consuming the loaded value.
// The load is inlined rather than dispatched through the generic step — this
// is the hottest sequence in the Polybench inner loops, and inlining lets
// the computed index flow into the bounds check without a register
// round-trip. Stats updates are the exact per-instruction ones, batched
// (IntOps += 2 for IMUL+IADD; the masks and byte counters commute).
func (k *Kernel) superAffLoad(pc int, withFMul, withFAdd bool) stepFn {
	code := k.Code
	i0, i1, mul, i3, add := code[pc], code[pc+1], code[pc+2], code[pc+3], code[pc+4]
	a0, b0, a1, b1 := i0.A, i0.B, i1.A, i1.B
	ma, mb, mc := mul.A, mul.B, mul.C
	a3, b3 := i3.A, i3.B
	aa, ab, ac := add.A, add.B, add.C
	ld := code[pc+5]
	ldPC := pc + 5
	la, slot, memID := ld.A, ld.B, ld.D
	isF := ld.Op == opLDGF
	name := k.Params[slot].Name
	kname := k.Name
	var readMask uint64
	if slot < 64 {
		readMask = 1 << uint(slot)
	}
	if !withFMul {
		return func(m *cmach) bool {
			ir := m.iregs
			ir[a0] = ir[b0]
			ir[a1] = ir[b1]
			ir[ma] = ir[mb] * ir[mc]
			ir[a3] = ir[b3]
			idx := ir[ab] + ir[ac]
			ir[aa] = idx
			st := m.st
			st.IntOps += 2
			buf := m.args[slot].Buf
			off := idx * 4
			if oob(idx, len(buf)) {
				m.err = &execError{kname, ldPC, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
				return false
			}
			bits := binary.LittleEndian.Uint32(buf[off:])
			if isF {
				m.fregs[la] = float64(math.Float32frombits(bits))
			} else {
				ir[la] = int64(int32(bits))
			}
			st.ParamReadMask |= readMask
			st.GlobalLoads++
			st.GlobalLoadBytes += 4
			m.tr.access(memID, int32(off), m.firstInWarp, st)
			return true
		}
	}
	fm := code[pc+6]
	fa, fb, fc := fm.A, fm.B, fm.C
	if !withFAdd {
		return func(m *cmach) bool {
			ir := m.iregs
			ir[a0] = ir[b0]
			ir[a1] = ir[b1]
			ir[ma] = ir[mb] * ir[mc]
			ir[a3] = ir[b3]
			idx := ir[ab] + ir[ac]
			ir[aa] = idx
			st := m.st
			st.IntOps += 2
			buf := m.args[slot].Buf
			off := idx * 4
			if oob(idx, len(buf)) {
				m.err = &execError{kname, ldPC, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
				return false
			}
			bits := binary.LittleEndian.Uint32(buf[off:])
			fr := m.fregs
			fr[la] = float64(math.Float32frombits(bits))
			st.ParamReadMask |= readMask
			st.GlobalLoads++
			st.GlobalLoadBytes += 4
			m.tr.access(memID, int32(off), m.firstInWarp, st)
			fr[fa] = float64(float32(fr[fb]) * float32(fr[fc]))
			st.FloatOps++
			return true
		}
	}
	fad := code[pc+7]
	ga, gb, gc := fad.A, fad.B, fad.C
	return func(m *cmach) bool {
		ir := m.iregs
		ir[a0] = ir[b0]
		ir[a1] = ir[b1]
		ir[ma] = ir[mb] * ir[mc]
		ir[a3] = ir[b3]
		idx := ir[ab] + ir[ac]
		ir[aa] = idx
		st := m.st
		st.IntOps += 2
		buf := m.args[slot].Buf
		off := idx * 4
		if oob(idx, len(buf)) {
			m.err = &execError{kname, ldPC, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
			return false
		}
		bits := binary.LittleEndian.Uint32(buf[off:])
		fr := m.fregs
		fr[la] = float64(math.Float32frombits(bits))
		st.ParamReadMask |= readMask
		st.GlobalLoads++
		st.GlobalLoadBytes += 4
		m.tr.access(memID, int32(off), m.firstInWarp, st)
		fr[fa] = float64(float32(fr[fb]) * float32(fr[fc]))
		fr[ga] = float64(float32(fr[gb]) + float32(fr[gc]))
		st.FloatOps += 2
		return true
	}
}

// superLoadFMul inlines an indexed float load and the multiply consuming it.
func (k *Kernel) superLoadFMul(pc int) stepFn {
	ld, fm := k.Code[pc], k.Code[pc+1]
	la, slot, lc, memID := ld.A, ld.B, ld.C, ld.D
	fa, fb, fc := fm.A, fm.B, fm.C
	name := k.Params[slot].Name
	kname := k.Name
	var readMask uint64
	if slot < 64 {
		readMask = 1 << uint(slot)
	}
	return func(m *cmach) bool {
		idx := m.iregs[lc]
		buf := m.args[slot].Buf
		off := idx * 4
		if oob(idx, len(buf)) {
			m.err = &execError{kname, pc, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
			return false
		}
		bits := binary.LittleEndian.Uint32(buf[off:])
		fr := m.fregs
		fr[la] = float64(math.Float32frombits(bits))
		st := m.st
		st.ParamReadMask |= readMask
		st.GlobalLoads++
		st.GlobalLoadBytes += 4
		m.tr.access(memID, int32(off), m.firstInWarp, st)
		fr[fa] = float64(float32(fr[fb]) * float32(fr[fc]))
		st.FloatOps++
		return true
	}
}
