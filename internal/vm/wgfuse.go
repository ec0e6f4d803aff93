package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// Region fusion for the lockstep engine (DESIGN.md S20).
//
// The banked steps of wgsteps.go execute step-major: each step makes its
// own pass over the work-item set, so a k-step block traverses the SoA
// banks k times per dispatch and pays k indirect calls. This pass runs at
// wg-compile time and lowers whole block bodies into a single fused
// closure that loops over the work-items once, with every touched bank
// hoisted into a subslice (one up-front length assertion, bounds checks
// eliminated inside the loop), the ld/fmadd/st sequences jammed into one
// wide inner loop, and pattern-internal scratch registers kept in scalars
// instead of bank slabs when the block-level liveness analysis proves them
// dead at the block exit.
//
// Fusibility proof, in three parts:
//
//  1. Reordering: banked steps are lane-local on registers, and the wg
//     engine only runs launches the noninterference certificate
//     (wgcert.go/wgreject.go) admitted, so cross-item global/local
//     interference inside a region is already excluded. Switching a block
//     from step-major to item-major order therefore cannot change any
//     buffer byte or register trajectory on error-free runs; on error
//     runs, parity is by presence, not text, exactly as documented for
//     the engine itself (wgexec.go).
//  2. Stats: every batched counter (op counts, load/store totals, param
//     masks) is an order-independent sum or mask, so adding the block
//     total once equals adding it per step. The order-sensitive memory-
//     locality tracker is fed through the same recording machinery as the
//     unfused steps (per-item streams in program order, or the columnar
//     log while the phase is uniform), so the phase-end replay sees
//     identical streams.
//  3. Scalar elision: a scratch register's bank write may be dropped only
//     when the register is provably dead at the block exit (wgLiveness, a
//     standard backward dataflow over the bytecode CFG) and the block
//     terminator does not read it (the matchers reject conditional
//     terminators outright).
//
// Blocks that fail the shape match, the operand wiring checks, or the
// liveness requirement fall back per-step, mirroring the wg->closure
// fallback taxonomy; wg_fused_blocks / wg_fused_steps /
// wg_fuse_fallback_steps attribute the coverage. SetWGFuse keeps the
// unfused path selectable for the fused-vs-unfused differential tests; the
// fused lists are always compiled so it can be flipped between launches.

// wgFuseFlag holds the process-wide fused-execution switch (on unless a
// differential test turns it off).
var wgFuseFlag atomic.Bool

func init() { wgFuseFlag.Store(true) }

// WGFuseEnabled reports whether the lockstep engine dispatches the fused
// block closures (the default) or the per-step lists.
func WGFuseEnabled() bool { return wgFuseFlag.Load() }

// SetWGFuse selects fused (true) or per-step (false) wg block execution
// process-wide. Safe to call concurrently; work-groups already running
// keep the mode they resolved at entry.
func SetWGFuse(on bool) { wgFuseFlag.Store(on) }

// runSteps drives a per-step list; fused closures use it as their fallback
// when a dispatch does not meet the fused fast-path preconditions.
func runSteps(m *wmach, set []int32, steps []wstep) bool {
	for _, s := range steps {
		if !s(m, set) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Block-level liveness
// ---------------------------------------------------------------------------

// wgUseDef returns the int/float register use and def bitmasks of one
// instruction. Unknown opcodes are treated as reading every register and
// defining none, which is conservative for the dead-scratch proof.
func wgUseDef(in Instr) (iu, fu, id, fd uint64) {
	b := func(r int32) uint64 { return 1 << uint(r) }
	switch in.Op {
	case opNop, opRET, opBARRIER, opJMP:
	case opGOFF, opWDIM:
		id = b(in.A)
	case opLDI:
		id = b(in.A)
	case opLDF:
		fd = b(in.A)
	case opIMOV, opINEG, opNOTB, opIABS:
		iu, id = b(in.B), b(in.A)
	case opFMOV, opFNEG, opSQRT, opFABS, opEXP, opLOG, opFLOOR, opCEIL:
		fu, fd = b(in.B), b(in.A)
	case opIADD, opISUB, opIMUL, opIDIV, opIMOD, opIMIN, opIMAX,
		opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		iu, id = b(in.B)|b(in.C), b(in.A)
	case opFADD, opFSUB, opFMUL, opFDIV, opPOW, opFMIN, opFMAX:
		fu, fd = b(in.B)|b(in.C), b(in.A)
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE:
		fu, id = b(in.B)|b(in.C), b(in.A)
	case opI2F:
		iu, fd = b(in.B), b(in.A)
	case opF2I:
		fu, id = b(in.B), b(in.A)
	case opJZ, opJNZ:
		iu = b(in.B)
	case opLDGF, opLDLF, opLDPF:
		iu, fd = b(in.C), b(in.A)
	case opLDGI, opLDLI, opLDPI:
		iu, id = b(in.C), b(in.A)
	case opSTGF, opSTLF, opSTPF:
		iu, fu = b(in.C), b(in.A)
	case opSTGI, opSTLI, opSTPI:
		iu = b(in.C) | b(in.A)
	case opGID, opLID, opGRP, opNGR, opLSZ, opGSZ:
		iu, id = b(in.B), b(in.A)
	default:
		iu, fu = ^uint64(0), ^uint64(0)
	}
	return
}

// wgLiveness computes per-block live-out register masks (int and float) by
// backward dataflow over the bytecode CFG, keyed by block leader pc. Only
// called when NumI and NumF both fit a 64-bit mask.
func (k *Kernel) wgLiveness(wg *wgProgram) (iOut, fOut map[int]uint64) {
	code := k.Code
	n := len(code)
	type lblock struct {
		s, e  int
		succs []int
	}
	var blocks []lblock
	for s := 0; s < n; {
		e := s + 1
		for e < n && !wg.leader[e] {
			e++
		}
		b := lblock{s: s, e: e}
		switch last := code[e-1]; last.Op {
		case opJMP:
			b.succs = []int{int(last.A)}
		case opJZ, opJNZ:
			b.succs = []int{int(last.A)}
			if e < n {
				b.succs = append(b.succs, e)
			}
		case opRET:
		default: // fallthrough and barrier resume at e
			if e < n {
				b.succs = append(b.succs, e)
			}
		}
		blocks = append(blocks, b)
		s = e
	}
	iIn := make(map[int]uint64, len(blocks))
	fIn := make(map[int]uint64, len(blocks))
	iOut = make(map[int]uint64, len(blocks))
	fOut = make(map[int]uint64, len(blocks))
	for changed := true; changed; {
		changed = false
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			b := blocks[bi]
			var io, fo uint64
			for _, sp := range b.succs {
				io |= iIn[sp]
				fo |= fIn[sp]
			}
			li, lf := io, fo
			for pc := b.e - 1; pc >= b.s; pc-- {
				iu, fu, id, fd := wgUseDef(code[pc])
				li = (li &^ id) | iu
				lf = (lf &^ fd) | fu
			}
			if io != iOut[b.s] || fo != fOut[b.s] || li != iIn[b.s] || lf != fIn[b.s] {
				changed = true
				iOut[b.s], fOut[b.s] = io, fo
				iIn[b.s], fIn[b.s] = li, lf
			}
		}
	}
	return iOut, fOut
}

// ---------------------------------------------------------------------------
// Fusion pass
// ---------------------------------------------------------------------------

// fuseWG partitions each block's step list into fusible whole-body jams:
// every block body is matched against the jam shapes below and, when the
// shape, the operand wiring, and the dead-scratch proof all hold, replaced
// by a single fused closure. Blocks that fail any check fall back to the
// per-step list. Counters attribute the outcome per compiled instruction.
func (k *Kernel) fuseWG(wg *wgProgram) {
	var nBlocks, nSteps, nFallback int64
	wide := k.NumI > 64 || k.NumF > 64
	var iOut, fOut map[int]uint64
	if !wide {
		iOut, fOut = k.wgLiveness(wg)
	}
	for _, blk := range wg.blocks {
		if blk == nil {
			continue
		}
		body := blk.body - blk.start
		if body <= 0 {
			continue
		}
		var fs wstep
		if !wide {
			liveI, liveF := iOut[blk.start], fOut[blk.start]
			if fs == nil {
				fs = k.wgfuseMacBody(blk, liveI, liveF)
			}
			if fs == nil {
				fs = k.wgfuseDotPair(blk, liveI, liveF)
			}
			if fs == nil {
				fs = k.wgfuseScatter(blk, liveI, liveF)
			}
			if fs == nil {
				fs = k.wgfuseStoreTail(blk, liveI, liveF)
			}
		}
		if fs != nil {
			blk.fsteps = []wstep{fs}
			wg.fused = append(wg.fused, FusedSpan{Start: blk.start, Len: body, Name: "wg.fuse"})
			nBlocks++
			nSteps += int64(body)
		} else {
			nFallback += int64(body)
		}
	}
	backendCtr.wgFusedBlocks.Add(nBlocks)
	backendCtr.wgFusedSteps.Add(nSteps)
	backendCtr.wgFuseFallbackSteps.Add(nFallback)
}

// wgAff is one parsed affine index group (imov, imov, imul, imov, iadd):
// idx = ib[x]*ib[y] + ib[z], with the five scratch defs recorded.
type wgAff struct {
	x, y, z int
}

// parseWAff validates the operand wiring of the five-instruction affine
// index group at pc and checks that its sources read banks not redefined
// earlier in the jam (*defs accumulates int defs in program order). It
// returns the pristine source registers of idx = x*y + z.
func parseWAff(code []Instr, pc int, defs *uint64) (wgAff, bool) {
	i0, i1, mul, i3, add := code[pc], code[pc+1], code[pc+2], code[pc+3], code[pc+4]
	if mul.B != i0.A || mul.C != i1.A || add.B != mul.A || add.C != i3.A {
		return wgAff{}, false
	}
	b := func(r int32) uint64 { return 1 << uint(r) }
	if *defs&b(i0.B) != 0 {
		return wgAff{}, false
	}
	*defs |= b(i0.A)
	if *defs&b(i1.B) != 0 {
		return wgAff{}, false
	}
	*defs |= b(i1.A) | b(mul.A)
	if *defs&b(i3.B) != 0 {
		return wgAff{}, false
	}
	*defs |= b(i3.A) | b(add.A)
	return wgAff{x: int(i0.B), y: int(i1.B), z: int(i3.B)}, true
}

// parseWInc validates the loop-increment group (imov, ldi, iadd, imov):
// ctr += imm, where ctr is the only bank-visible def.
func parseWInc(code []Instr, pc int, defs *uint64) (ctr int, imm int64, ok bool) {
	i0, ldi, add, i3 := code[pc], code[pc+1], code[pc+2], code[pc+3]
	if add.B != i0.A || add.C != ldi.A || i3.B != add.A || i0.B != i3.A {
		return 0, 0, false
	}
	b := func(r int32) uint64 { return 1 << uint(r) }
	if *defs&b(i0.B) != 0 {
		return 0, 0, false
	}
	*defs |= b(i0.A) | b(ldi.A) | b(add.A) | b(i3.A)
	return int(i3.A), ldi.IImm, true
}

// wgLoadErr formats the fused loads' out-of-range error exactly like the
// unfused superinstructions do.
func wgLoadErr(kname string, pc int, name string, idx int64, bufLen int) *execError {
	return &execError{kname, pc, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, bufLen)}
}

// wgfuseMacBody jams the multiply-accumulate loop body of the dense matmul
// kernels (SYRK, 2MM, GEMM shapes):
//
//	fmov f, seed
//	aff idx1; ldgf v1; fmul f = f*v1
//	aff idx2; ldgf v2; fmul f = f*v2; fadd acc += f
//	inc ctr
//
// into one loop over the work-items with f, the indices and the loaded
// values held in scalars (dead at block exit by the liveness proof) and
// only acc and ctr written back to their banks.
func (k *Kernel) wgfuseMacBody(blk *wblock, liveI, liveF uint64) wstep {
	pc, end := blk.start, blk.body
	if end-pc != 20 || blk.term.kind != wtJmp {
		return nil
	}
	if !k.opsAt(pc, end,
		opFMOV,
		opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opFMUL,
		opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opFMUL, opFADD,
		opIMOV, opLDI, opIADD, opIMOV) {
		return nil
	}
	code := k.Code
	b := func(r int32) uint64 { return 1 << uint(r) }
	fmv := code[pc]
	var defsI, defsF uint64
	defsF |= b(fmv.A)
	a1, ok := parseWAff(code, pc+1, &defsI)
	if !ok {
		return nil
	}
	ld1, fm1 := code[pc+6], code[pc+7]
	if ld1.C != code[pc+5].A || fm1.B != fmv.A || fm1.C != ld1.A {
		return nil
	}
	defsF |= b(ld1.A) | b(fm1.A)
	a2, ok := parseWAff(code, pc+8, &defsI)
	if !ok {
		return nil
	}
	ld2, fm2, fad := code[pc+13], code[pc+14], code[pc+15]
	if ld2.C != code[pc+12].A || fm2.B != fm1.A || fm2.C != ld2.A {
		return nil
	}
	defsF |= b(ld2.A) | b(fm2.A)
	if fad.A != fad.B || fad.C != fm2.A || defsF&b(fad.B) != 0 {
		return nil
	}
	ctr, incImm, ok := parseWInc(code, pc+16, &defsI)
	if !ok {
		return nil
	}
	// Dead-scratch proof: everything but acc and ctr stays in scalars.
	scratchI := defsI &^ b(int32(ctr))
	scratchF := (defsF | b(fad.A)) &^ b(fad.A)
	if scratchI&liveI != 0 || scratchF&liveF != 0 {
		return nil
	}

	slot1, mem1, ldPC1 := ld1.B, ld1.D, pc+6
	slot2, mem2, ldPC2 := ld2.B, ld2.D, pc+13
	name1, name2 := k.Params[slot1].Name, k.Params[slot2].Name
	kname := k.Name
	var mask uint64
	if slot1 < 64 {
		mask |= 1 << uint(slot1)
	}
	if slot2 < 64 {
		mask |= 1 << uint(slot2)
	}
	seed, accR := int(fmv.B), int(fad.A)
	unfused := blk.steps
	return func(m *wmach, set []int32) bool {
		if !m.full || m.def != nil {
			return runSteps(m, set, unfused)
		}
		n := m.n
		ib, fb := m.ib, m.fb
		buf1, buf2 := m.args[slot1].Buf, m.args[slot2].Buf
		xs1, ys1, zs1 := ib[a1.x*n:a1.x*n+n], ib[a1.y*n:a1.y*n+n], ib[a1.z*n:a1.z*n+n]
		xs2, ys2, zs2 := ib[a2.x*n:a2.x*n+n], ib[a2.y*n:a2.y*n+n], ib[a2.z*n:a2.z*n+n]
		sd := fb[seed*n : seed*n+n]
		acc := fb[accR*n : accR*n+n]
		cb := ib[ctr*n : ctr*n+n]
		var col1, col2 []int32
		rec := m.rec
		if m.colMode {
			// Both columns must be reserved in one step: a second colFor
			// growth could reallocate the log and orphan the first subslice.
			switch {
			case mem1 >= 0 && mem2 >= 0:
				col1, col2 = m.colFor2(mem1, mem2)
			case mem1 >= 0:
				col1 = m.colFor(mem1)
			case mem2 >= 0:
				col2 = m.colFor(mem2)
			}
		}
		for t := 0; t < n; t++ {
			f := sd[t]
			idx1 := xs1[t]*ys1[t] + zs1[t]
			off1 := idx1 * 4
			if idx1 < 0 || off1+4 > int64(len(buf1)) {
				m.err = wgLoadErr(kname, ldPC1, name1, idx1, len(buf1))
				return false
			}
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf1[off1:])))
			f = float64(float32(f) * float32(v))
			idx2 := xs2[t]*ys2[t] + zs2[t]
			off2 := idx2 * 4
			if idx2 < 0 || off2+4 > int64(len(buf2)) {
				m.err = wgLoadErr(kname, ldPC2, name2, idx2, len(buf2))
				return false
			}
			w := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf2[off2:])))
			f = float64(float32(f) * float32(w))
			acc[t] = float64(float32(acc[t]) + float32(f))
			cb[t] += incImm
			if col1 != nil {
				col1[t] = int32(off1)
			} else if mem1 >= 0 {
				rec[t] = append(rec[t], wgAcc{id: mem1, off: int32(off1)})
			}
			if col2 != nil {
				col2[t] = int32(off2)
			} else if mem2 >= 0 {
				rec[t] = append(rec[t], wgAcc{id: mem2, off: int32(off2)})
			}
		}
		cnt := int64(n)
		st := m.st
		st.IntOps += 5 * cnt
		st.FloatOps += 3 * cnt
		st.ParamReadMask |= mask
		st.GlobalLoads += 2 * cnt
		st.GlobalLoadBytes += 8 * cnt
		return true
	}
}

// wgfuseDotPair jams the two-dot-product loop body of GESUMMV-shaped
// kernels:
//
//	aff idxA; ldgf vA; j = x-index; ldgf vx; fmul p = vA*vx; fadd acc1 += p
//	aff idxB; ldgf vB; j = x-index; ldgf vx; fmul p = vB*vx; fadd acc2 += p
//	inc ctr
func (k *Kernel) wgfuseDotPair(blk *wblock, liveI, liveF uint64) wstep {
	pc, end := blk.start, blk.body
	if end-pc != 24 || blk.term.kind != wtJmp {
		return nil
	}
	half := []Op{opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opIMOV, opLDGF, opFMUL, opFADD}
	ops := append(append(append([]Op{}, half...), half...), opIMOV, opLDI, opIADD, opIMOV)
	if !k.opsAt(pc, end, ops...) {
		return nil
	}
	code := k.Code
	b := func(r int32) uint64 { return 1 << uint(r) }
	type dot struct {
		aff          wgAff
		j            int // pristine index register of the x-load
		slotA, slotX int32
		memA, memX   int32
		ldPCA, ldPCX int
		nameA, nameX string
		acc          int
	}
	var defsI, defsF uint64
	parseHalf := func(p int) (dot, bool) {
		var d dot
		aff, ok := parseWAff(code, p, &defsI)
		if !ok {
			return d, false
		}
		ldA, mv, ldX, fm, fa := code[p+5], code[p+6], code[p+7], code[p+8], code[p+9]
		if ldA.C != code[p+4].A || ldX.C != mv.A {
			return d, false
		}
		if defsI&b(mv.B) != 0 {
			return d, false
		}
		defsI |= b(mv.A)
		if fm.B != ldA.A || fm.C != ldX.A {
			return d, false
		}
		defsF |= b(ldA.A) | b(ldX.A) | b(fm.A)
		if fa.A != fa.B || fa.C != fm.A || defsF&b(fa.B) != 0 {
			return d, false
		}
		d.aff, d.j = aff, int(mv.B)
		d.slotA, d.memA, d.ldPCA, d.nameA = ldA.B, ldA.D, p+5, k.Params[ldA.B].Name
		d.slotX, d.memX, d.ldPCX, d.nameX = ldX.B, ldX.D, p+7, k.Params[ldX.B].Name
		d.acc = int(fa.A)
		return d, true
	}
	d1, ok := parseHalf(pc)
	if !ok {
		return nil
	}
	d2, ok := parseHalf(pc + 10)
	if !ok {
		return nil
	}
	ctr, incImm, ok := parseWInc(code, pc+20, &defsI)
	if !ok {
		return nil
	}
	scratchI := defsI &^ b(int32(ctr))
	scratchF := defsF &^ (b(int32(d1.acc)) | b(int32(d2.acc)))
	if scratchI&liveI != 0 || scratchF&liveF != 0 {
		return nil
	}
	var mask uint64
	for _, s := range []int32{d1.slotA, d1.slotX, d2.slotA, d2.slotX} {
		if s < 64 {
			mask |= 1 << uint(s)
		}
	}
	kname := k.Name
	unfused := blk.steps
	return func(m *wmach, set []int32) bool {
		if !m.full || m.def != nil {
			return runSteps(m, set, unfused)
		}
		n := m.n
		ib, fb := m.ib, m.fb
		bufA1, bufX1 := m.args[d1.slotA].Buf, m.args[d1.slotX].Buf
		bufA2, bufX2 := m.args[d2.slotA].Buf, m.args[d2.slotX].Buf
		xs1, ys1, zs1 := ib[d1.aff.x*n:d1.aff.x*n+n], ib[d1.aff.y*n:d1.aff.y*n+n], ib[d1.aff.z*n:d1.aff.z*n+n]
		xs2, ys2, zs2 := ib[d2.aff.x*n:d2.aff.x*n+n], ib[d2.aff.y*n:d2.aff.y*n+n], ib[d2.aff.z*n:d2.aff.z*n+n]
		js1 := ib[d1.j*n : d1.j*n+n]
		js2 := ib[d2.j*n : d2.j*n+n]
		acc1 := fb[d1.acc*n : d1.acc*n+n]
		acc2 := fb[d2.acc*n : d2.acc*n+n]
		cb := ib[ctr*n : ctr*n+n]
		var colA1, colX1, colA2, colX2 []int32
		rec := m.rec
		if m.colMode {
			// Reserve all four columns in one growth step; incremental
			// colFor calls could reallocate the log and orphan earlier
			// subslices.
			nCols := 0
			for _, id := range [4]int32{d1.memA, d1.memX, d2.memA, d2.memX} {
				if id >= 0 {
					nCols++
				}
			}
			j := m.colReserve(nCols)
			take := func(id int32) []int32 {
				m.colIDs = append(m.colIDs, id)
				c := m.colBuf[j*n : (j+1)*n]
				j++
				return c
			}
			if d1.memA >= 0 {
				colA1 = take(d1.memA)
			}
			if d1.memX >= 0 {
				colX1 = take(d1.memX)
			}
			if d2.memA >= 0 {
				colA2 = take(d2.memA)
			}
			if d2.memX >= 0 {
				colX2 = take(d2.memX)
			}
		}
		half := func(t int, xs, ys, zs, js []int64, bufA, bufX []byte, d *dot, acc []float64, colA, colX []int32) bool {
			idx := xs[t]*ys[t] + zs[t]
			offA := idx * 4
			if idx < 0 || offA+4 > int64(len(bufA)) {
				m.err = wgLoadErr(kname, d.ldPCA, d.nameA, idx, len(bufA))
				return false
			}
			vA := float64(math.Float32frombits(binary.LittleEndian.Uint32(bufA[offA:])))
			j := js[t]
			offX := j * 4
			if j < 0 || offX+4 > int64(len(bufX)) {
				m.err = wgLoadErr(kname, d.ldPCX, d.nameX, j, len(bufX))
				return false
			}
			vX := float64(math.Float32frombits(binary.LittleEndian.Uint32(bufX[offX:])))
			p := float64(float32(vA) * float32(vX))
			acc[t] = float64(float32(acc[t]) + float32(p))
			if colA != nil {
				colA[t] = int32(offA)
			} else if d.memA >= 0 {
				rec[t] = append(rec[t], wgAcc{id: d.memA, off: int32(offA)})
			}
			if colX != nil {
				colX[t] = int32(offX)
			} else if d.memX >= 0 {
				rec[t] = append(rec[t], wgAcc{id: d.memX, off: int32(offX)})
			}
			return true
		}
		for t := 0; t < n; t++ {
			if !half(t, xs1, ys1, zs1, js1, bufA1, bufX1, &d1, acc1, colA1, colX1) {
				return false
			}
			if !half(t, xs2, ys2, zs2, js2, bufA2, bufX2, &d2, acc2, colA2, colX2) {
				return false
			}
			cb[t] += incImm
		}
		cnt := int64(n)
		st := m.st
		st.IntOps += 5 * cnt
		st.FloatOps += 4 * cnt
		st.ParamReadMask |= mask
		st.GlobalLoads += 4 * cnt
		st.GlobalLoadBytes += 16 * cnt
		return true
	}
}

// wgfuseScatter jams the strided scatter loop body (scatter_columns shape):
//
//	aff idx; ldf c; stgf buf[idx] = c; inc ctr
func (k *Kernel) wgfuseScatter(blk *wblock, liveI, liveF uint64) wstep {
	pc, end := blk.start, blk.body
	if end-pc != 11 || blk.term.kind != wtJmp {
		return nil
	}
	if !k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDF, opSTGF,
		opIMOV, opLDI, opIADD, opIMOV) {
		return nil
	}
	code := k.Code
	b := func(r int32) uint64 { return 1 << uint(r) }
	var defsI, defsF uint64
	aff, ok := parseWAff(code, pc, &defsI)
	if !ok {
		return nil
	}
	ldf, stg := code[pc+5], code[pc+6]
	if stg.C != code[pc+4].A || stg.A != ldf.A {
		return nil
	}
	defsF |= b(ldf.A)
	ctr, incImm, ok := parseWInc(code, pc+7, &defsI)
	if !ok {
		return nil
	}
	if (defsI&^b(int32(ctr)))&liveI != 0 || defsF&liveF != 0 {
		return nil
	}
	slot, mem, stPC := stg.B, stg.D, pc+6
	name := k.Params[slot].Name
	kname := k.Name
	bits := math.Float32bits(float32(ldf.FImm))
	unfused := blk.steps
	return func(m *wmach, set []int32) bool {
		if !m.full || m.def != nil {
			return runSteps(m, set, unfused)
		}
		n := m.n
		ib := m.ib
		buf := m.args[slot].Buf
		xs, ys, zs := ib[aff.x*n:aff.x*n+n], ib[aff.y*n:aff.y*n+n], ib[aff.z*n:aff.z*n+n]
		cb := ib[ctr*n : ctr*n+n]
		var col []int32
		rec := m.rec
		if m.colMode && mem >= 0 {
			col = m.colFor(mem)
		}
		u := m.undo
		st := m.st
		for t := 0; t < n; t++ {
			idx := xs[t]*ys[t] + zs[t]
			off, err := byteOff(idx, len(buf))
			if err != nil {
				m.err = &execError{kname, stPC, fmt.Sprintf("store %s: %v", name, err)}
				return false
			}
			if u != nil {
				var old [4]byte
				copy(old[:], buf[off:off+4])
				u.recs = append(u.recs, UndoRecord{Buf: buf, Off: int(off), Old: old})
			}
			binary.LittleEndian.PutUint32(buf[off:], bits)
			st.noteGlobalWrite(slot, off)
			if col != nil {
				col[t] = off
			} else if mem >= 0 {
				rec[t] = append(rec[t], wgAcc{id: mem, off: off})
			}
			cb[t] += incImm
		}
		cnt := int64(n)
		st.IntOps += 3 * cnt
		st.GlobalStores += cnt
		st.GlobalStoreBytes += 4 * cnt
		return true
	}
}

// wgfuseStoreTail jams the result write-back tail of the matmul kernels:
//
//	aff idx; fmov v, acc; stgf buf[idx] = v
func (k *Kernel) wgfuseStoreTail(blk *wblock, liveI, liveF uint64) wstep {
	pc, end := blk.start, blk.body
	if end-pc != 7 || blk.term.kind == wtCond {
		return nil
	}
	if !k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opFMOV, opSTGF) {
		return nil
	}
	code := k.Code
	b := func(r int32) uint64 { return 1 << uint(r) }
	var defsI uint64
	aff, ok := parseWAff(code, pc, &defsI)
	if !ok {
		return nil
	}
	fmv, stg := code[pc+5], code[pc+6]
	if stg.C != code[pc+4].A || stg.A != fmv.A {
		return nil
	}
	if defsI&liveI != 0 || b(fmv.A)&liveF != 0 {
		return nil
	}
	slot, mem, stPC := stg.B, stg.D, pc+6
	name := k.Params[slot].Name
	kname := k.Name
	src := int(fmv.B)
	unfused := blk.steps
	return func(m *wmach, set []int32) bool {
		if !m.full || m.def != nil {
			return runSteps(m, set, unfused)
		}
		n := m.n
		ib, fb := m.ib, m.fb
		buf := m.args[slot].Buf
		xs, ys, zs := ib[aff.x*n:aff.x*n+n], ib[aff.y*n:aff.y*n+n], ib[aff.z*n:aff.z*n+n]
		sv := fb[src*n : src*n+n]
		var col []int32
		rec := m.rec
		if m.colMode && mem >= 0 {
			col = m.colFor(mem)
		}
		u := m.undo
		st := m.st
		for t := 0; t < n; t++ {
			idx := xs[t]*ys[t] + zs[t]
			off, err := byteOff(idx, len(buf))
			if err != nil {
				m.err = &execError{kname, stPC, fmt.Sprintf("store %s: %v", name, err)}
				return false
			}
			bits := math.Float32bits(float32(sv[t]))
			if u != nil {
				var old [4]byte
				copy(old[:], buf[off:off+4])
				u.recs = append(u.recs, UndoRecord{Buf: buf, Off: int(off), Old: old})
			}
			binary.LittleEndian.PutUint32(buf[off:], bits)
			st.noteGlobalWrite(slot, off)
			if col != nil {
				col[t] = off
			} else if mem >= 0 {
				rec[t] = append(rec[t], wgAcc{id: mem, off: off})
			}
		}
		cnt := int64(n)
		st.IntOps += 2 * cnt
		st.GlobalStores += cnt
		st.GlobalStoreBytes += 4 * cnt
		return true
	}
}
