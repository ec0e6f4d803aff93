package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Banked step builders for the lockstep engine.
//
// Each wstep performs the exact per-instruction register writes and memory
// side effects of the interpreter's case for its opcode (run, exec.go),
// looped over every work-item in the set against the SoA banks, with
// operands decoded once at build time. Order-independent counters are
// batched: ALU op counts per block dispatch (wblock.runSteps books
// wblock.ops), byte totals, masks and a store's write bounds per set;
// per-offset ones (undo and locality records) stay in the item loop, but for
// a whole group that accesses consecutive words (contig). A block is one
// step per instruction it keeps: its instructions are forwarded first, reads
// through in-block copies and constant dimensions as immediates (wgForward),
// and the copies and constants left dead run no step, though the budget
// still charges them (wgUniform). The fused plans, which match the
// compiler's own sequences, read k.Code. The one place several instructions
// become one loop is the reduction jam (wgfuse.go). A group-uniform step
// runs once per full-group dispatch (wguniform.go).
//
// An ALU step is built from its opcode's row (optab.go) by signature and
// calls the row's function once per lane. Eleven opcodes keep their
// operation inline instead — ldi, ldf, imov, fmov, iadd, isub, imul, fadd,
// fsub, fmul, fdiv — with both of their loops: over the whole group when
// m.full says the set is all of it in ascending order (the loop slices each
// register's bank once and runs a plain range loop), over the set otherwise;
// iadd, isub and imul share one step, as do the four float ops, switching on
// the opcode once per whole-group dispatch or once per lane of a set.
// Through the row, the per-lane call cost BenchmarkExecLaunch STREAM +40 %
// and SCATTER +95 %; with only the full-group loops inline, CORR, which runs
// these ops on divergent sets of about six lanes, +25 % (EXPERIMENTS.md, "One
// opcode table").

// buildWStep compiles the block-body instruction in at pc (wgIns) into a
// banked wstep. Control flow (the block's terminator) and opNop never reach
// it.
func (k *Kernel) buildWStep(pc int, in Instr) wstep {
	row := &opTab[in.Op]
	a, b, c := in.A, in.B, in.C
	switch row.sig {
	case sigLDI:
		imm := in.IImm
		return func(m *wmach, set []int32) bool {
			fill(m.ib, a, m.n, set, m.full, imm)
			return true
		}
	case sigLDF:
		imm := in.FImm
		return func(m *wmach, set []int32) bool {
			fill(m.fb, a, m.n, set, m.full, imm)
			return true
		}
	case sigII:
		if in.Op == opIMOV {
			return func(m *wmach, set []int32) bool {
				move(m.ib, a, b, m.n, set, m.full)
				return true
			}
		}
		f := row.fn.(func(int64) int64)
		return func(m *wmach, set []int32) bool {
			lanes1(m.ib, m.ib, a, b, m.n, set, m.full, f)
			return true
		}
	case sigFF:
		if in.Op == opFMOV {
			return func(m *wmach, set []int32) bool {
				move(m.fb, a, b, m.n, set, m.full)
				return true
			}
		}
		f := row.fn.(func(float64) float64)
		return func(m *wmach, set []int32) bool {
			lanes1(m.fb, m.fb, a, b, m.n, set, m.full, f)
			return true
		}
	case sigFI:
		f := row.fn.(func(int64) float64)
		return func(m *wmach, set []int32) bool {
			lanes1(m.fb, m.ib, a, b, m.n, set, m.full, f)
			return true
		}
	case sigIF:
		f := row.fn.(func(float64) int64)
		return func(m *wmach, set []int32) bool {
			lanes1(m.ib, m.fb, a, b, m.n, set, m.full, f)
			return true
		}
	case sigIII:
		return intStep(pc, in, row)
	case sigFFF:
		return floatStep(in, row)
	case sigIFF:
		f := row.fn.(func(x, y float64) int64)
		return func(m *wmach, set []int32) bool {
			lanes2(m.ib, m.fb, a, b, c, m.n, set, m.full, f)
			return true
		}
	case sigDim:
		// A constant dimension (wgForward: B -1, IImm) costs one call per
		// dispatch, a dimension in a register one per lane; a local id comes
		// from the dimension's column (wmach.lid).
		f, imm := row.fn.(dimFn), in.IImm
		return func(m *wmach, set []int32) bool {
			ib, ab, bb, d := m.ib, int(a)*m.n, int(b)*m.n, imm
			v, lid := f(&m.nd, &m.group, d)
			if b < 0 && lid && m.full {
				col, ra := m.lid[d][:m.n], ib[ab:][:m.n]
				for t, l := range col {
					ra[t] = v + l
				}
				return true
			}
			for _, t := range set {
				if b >= 0 {
					d = ib[bb+int(t)]
					v, lid = f(&m.nd, &m.group, d)
				}
				if ib[ab+int(t)] = v; lid {
					ib[ab+int(t)] += m.lid[d][t]
				}
			}
			return true
		}
	case sigWDim:
		f := row.fn.(dimFn)
		return func(m *wmach, set []int32) bool {
			v, _ := f(&m.nd, &m.group, 0)
			fill(m.ib, a, m.n, set, m.full, v)
			return true
		}
	case sigLoadF, sigLoadI, sigStoreF, sigStoreI:
		isF := row.sig == sigLoadF || row.sig == sigStoreF
		switch in.Op {
		case opLDGF, opLDGI:
			return k.wstepLoadGlobal(pc, in, isF)
		case opSTGF, opSTGI:
			return k.wstepStoreGlobal(pc, in, isF)
		}
		return k.wstepSlab(pc, in)
	}
	return nil
}

// intStep builds the int <- int x int step: iadd, isub and imul inline (the
// opcode switch once per dispatch over the whole group, once per lane over a
// set), a trapping row (idiv, imod) checking each lane's divisor first, any
// other through the row.
func intStep(pc int, in Instr, row *opRow) wstep {
	a, b, c, f := in.A, in.B, in.C, row.fn.(func(x, y int64) int64)
	if op := in.Op; op == opIADD || op == opISUB || op == opIMUL {
		return func(m *wmach, set []int32) bool {
			n, ib := m.n, m.ib
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				switch op {
				case opIADD:
					for t := range ra {
						ra[t] = rb[t] + rc[t]
					}
				case opISUB:
					for t := range ra {
						ra[t] = rb[t] - rc[t]
					}
				default:
					for t := range ra {
						ra[t] = rb[t] * rc[t]
					}
				}
				return true
			}
			for _, t := range set {
				x, y := ib[bb+int(t)], ib[cb+int(t)]
				switch op {
				case opIADD:
					x += y
				case opISUB:
					x -= y
				default:
					x *= y
				}
				ib[ab+int(t)] = x
			}
			return true
		}
	}
	if row.trap != "" {
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			ib := m.ib
			for _, t := range set {
				d := ib[cb+int(t)]
				if d == 0 {
					m.err = &execError{m.k.Name, pc, row.trap}
					return false
				}
				ib[ab+int(t)] = f(ib[bb+int(t)], d)
			}
			return true
		}
	}
	return func(m *wmach, set []int32) bool {
		lanes2(m.ib, m.ib, a, b, c, m.n, set, m.full, f)
		return true
	}
}

// floatStep builds the float <- float x float step: fadd, fsub, fmul and fdiv
// inline, as intStep does, any other through the row.
func floatStep(in Instr, row *opRow) wstep {
	a, b, c, f := in.A, in.B, in.C, row.fn.(func(x, y float64) float64)
	if op := in.Op; op >= opFADD && op <= opFDIV {
		return func(m *wmach, set []int32) bool {
			n, fb := m.n, m.fb
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				switch op {
				case opFADD:
					for t := range ra {
						ra[t] = float64(float32(rb[t]) + float32(rc[t]))
					}
				case opFSUB:
					for t := range ra {
						ra[t] = float64(float32(rb[t]) - float32(rc[t]))
					}
				case opFMUL:
					for t := range ra {
						ra[t] = float64(float32(rb[t]) * float32(rc[t]))
					}
				default:
					for t := range ra {
						ra[t] = float64(float32(rb[t]) / float32(rc[t]))
					}
				}
				return true
			}
			for _, t := range set {
				x, y := float32(fb[bb+int(t)]), float32(fb[cb+int(t)])
				switch op {
				case opFADD:
					x += y
				case opFSUB:
					x -= y
				case opFMUL:
					x *= y
				default:
					x /= y
				}
				fb[ab+int(t)] = float64(x)
			}
			return true
		}
	}
	return func(m *wmach, set []int32) bool {
		lanes2(m.fb, m.fb, a, b, c, m.n, set, m.full, f)
		return true
	}
}

// The lane loops below work on one bank of n-lane registers (register r of
// item t at r*n + t) or read one bank and write another. full says set is
// every lane, in order: the loop then slices each register once and runs a
// plain range loop.

// fill sets register a to v in every lane of set.
func fill[T int64 | float64](bank []T, a int32, n int, set []int32, full bool, v T) {
	ab := int(a) * n
	if full {
		ra := bank[ab : ab+n]
		for t := range ra {
			ra[t] = v
		}
		return
	}
	for _, t := range set {
		bank[ab+int(t)] = v
	}
}

// move copies register b to register a in every lane of set.
func move[T int64 | float64](bank []T, a, b int32, n int, set []int32, full bool) {
	ab, bb := int(a)*n, int(b)*n
	if full {
		copy(bank[ab:ab+n], bank[bb:bb+n])
		return
	}
	for _, t := range set {
		bank[ab+int(t)] = bank[bb+int(t)]
	}
}

// lanes1 sets register a of dst to f of register b of src in every lane of
// set.
func lanes1[S, D int64 | float64](dst []D, src []S, a, b int32, n int, set []int32, full bool, f func(S) D) {
	ab, bb := int(a)*n, int(b)*n
	if full {
		ra, rb := dst[ab:ab+n], src[bb:bb+n]
		for t := range ra {
			ra[t] = f(rb[t])
		}
		return
	}
	for _, t := range set {
		dst[ab+int(t)] = f(src[bb+int(t)])
	}
}

// lanes2 sets register a of dst to f of registers b and c of src in every
// lane of set.
func lanes2[S, D int64 | float64](dst []D, src []S, a, b, c int32, n int, set []int32, full bool, f func(x, y S) D) {
	ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
	if full {
		ra, rb, rc := dst[ab:ab+n], src[bb:bb+n], src[cb:cb+n]
		for t := range ra {
			ra[t] = f(rb[t], rc[t])
		}
		return
	}
	for _, t := range set {
		dst[ab+int(t)] = f(src[bb+int(t)], src[cb+int(t)])
	}
}

// wstepLoadGlobal compiles opLDGF/opLDGI for the whole set. A whole group
// whose lanes read consecutive words (contig) copies them in one loop and
// logs one lane-affine entry; any other set runs lane by lane and logs the
// offsets it took (colFor, logCol).
func (k *Kernel) wstepLoadGlobal(pc int, in Instr, isF bool) wstep {
	a, slot, c, memID := in.A, in.B, in.C, in.D
	name := k.Params[slot].Name
	return func(m *wmach, set []int32) bool {
		n, ib, fb := m.n, m.ib, m.fb
		ab, cb := int(a)*n, int(c)*n
		buf := m.args[slot].Buf
		if w := m.contig(slot, ib[cb:cb+n]); w != nil {
			m.recAffine(set, memID, int32(4*ib[cb]), 4) // before the copy: a may be c
			if isF {
				rl := fb[ab : ab+n]
				for t, x := range w {
					rl[t] = float64(x)
				}
			} else {
				rl := ib[ab : ab+n]
				for t, x := range w {
					rl[t] = int64(int32(math.Float32bits(x)))
				}
			}
		} else {
			col := m.colFor(len(set))
			for i, t := range set {
				off, err := byteOff(ib[cb+int(t)], len(buf))
				if err != nil {
					m.logCol(memID, col, set[:i])
					m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", name, err)}
					return false
				}
				bits := binary.LittleEndian.Uint32(buf[off:])
				if isF {
					fb[ab+int(t)] = float64(math.Float32frombits(bits))
				} else {
					ib[ab+int(t)] = int64(int32(bits))
				}
				col[i] = off
			}
			m.logCol(memID, col, set)
		}
		st := m.st
		st.noteGlobalRead(slot)
		st.GlobalLoads += int64(len(set))
		st.GlobalLoadBytes += 4 * int64(len(set))
		return true
	}
}

// wstepStoreGlobal compiles opSTGF/opSTGI for the whole set, including the
// undo-log path: a whole group that stores consecutive words (contig) logs
// one undo span, any other set one word record per lane. The write bounds
// fold over the lanes that stored and are noted once, trap or not.
func (k *Kernel) wstepStoreGlobal(pc int, in Instr, isF bool) wstep {
	a, slot, c, memID := in.A, in.B, in.C, in.D
	name := k.Params[slot].Name
	return func(m *wmach, set []int32) bool {
		n, ib, fb := m.n, m.ib, m.fb
		ab, cb := int(a)*n, int(c)*n
		buf := m.args[slot].Buf
		st := m.st
		lo, hi := int32(math.MaxInt32), int32(-1)
		var bad error
		if w := m.contig(slot, ib[cb:cb+n]); w != nil {
			lo, hi = int32(4*ib[cb]), int32(4*(ib[cb]+int64(n)-1))
			m.recAffine(set, memID, lo, 4)
			if m.undo != nil {
				m.undo.span(buf, lo, n)
			}
			if isF {
				for t, x := range fb[ab : ab+n] {
					if w[t] = float32(x); x != x { // a NaN: storeBits' word
						w[t] = math.Float32frombits(storeBits(x))
					}
				}
			} else {
				for t, x := range ib[ab : ab+n] {
					w[t] = math.Float32frombits(uint32(int32(x)))
				}
			}
		} else {
			col, done := m.colFor(len(set)), set
			for i, t := range set {
				off, err := byteOff(ib[cb+int(t)], len(buf))
				if err != nil {
					bad, done = err, set[:i]
					break
				}
				var bits uint32
				if isF {
					bits = storeBits(fb[ab+int(t)])
				} else {
					bits = uint32(int32(ib[ab+int(t)]))
				}
				m.undo.store(buf, off, bits)
				lo, hi = min(lo, off), max(hi, off)
				col[i] = off
			}
			m.logCol(memID, col, done)
		}
		if hi >= 0 {
			st.noteGlobalWrite(slot, lo)
			st.noteGlobalWrite(slot, hi)
		}
		if bad != nil {
			m.err = &execError{m.k.Name, pc, fmt.Sprintf("store %s: %v", name, bad)}
			return false
		}
		st.GlobalStores += int64(len(set))
		st.GlobalStoreBytes += 4 * int64(len(set))
		return true
	}
}

// contig returns the words of the buffer in slot that the lanes of a whole
// group read or write when its index bank idx is lane-contiguous (lane t at
// word idx[0]+t) and wholly inside the buffer's word view; nil for any other
// set, pattern or range, and for a buffer with no view.
func (m *wmach) contig(slot int32, idx []int64) []float32 {
	v, i0 := m.views[slot], idx[0]
	if !m.full || i0 < 0 || i0 > int64(len(v)-len(idx)) {
		return nil
	}
	for t, x := range idx {
		if x != i0+int64(t) {
			return nil
		}
	}
	return v[i0 : i0+int64(len(idx))]
}

// wstepSlab compiles local-array and private-array loads and stores. Local
// arrays are shared by the group; private arrays give each item its own
// slab of the flattened per-array bank.
func (k *Kernel) wstepSlab(pc int, in Instr) wstep {
	slot, c, priv := in.B, in.C, in.Op >= opLDPF
	return func(m *wmach, set []int32) bool {
		n := m.n
		slabs, sz := m.locals, 0
		if priv {
			slabs, sz = m.priv, m.privSz[slot]
		}
		for _, t := range set {
			slab := slabs[slot]
			if priv {
				slab = slab[int(t)*sz:][:sz]
			}
			if err := m.k.slabAccess(pc, in, slab, m.ib[int(c)*n+int(t)], m.fb, m.ib, int(in.A)*n+int(t)); err != nil {
				m.err = err
				return false
			}
		}
		m.st.LocalAccesses += int64(len(set))
		return true
	}
}
