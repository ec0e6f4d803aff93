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
// wblock.ops), byte totals and masks per set, and, on a full-group store,
// the write bounds as one min/max; per-offset ones (the undo log's records,
// tracker records) stay inside the item loop. A block is one step per
// instruction; the one place several instructions become one loop is the
// reduction jam (wgfuse.go). A group-uniform step runs once per full-group
// dispatch (wguniform.go).
//
// An ALU step is built from its opcode's row (optab.go) by signature and
// calls the row's function once per lane. Eleven opcodes keep their
// operation inline instead — ldi, ldf, imov, fmov, iadd, isub, imul, fadd,
// fsub, fmul, fdiv — with both of their loops: over the whole group when
// m.full says the set is all of it in ascending order (the loop slices each
// register's bank once and runs a plain range loop), over the set otherwise.
// Through the row, the per-lane call cost BenchmarkExecLaunch STREAM +40 %
// and SCATTER +95 %; with only the full-group loops inline, CORR, which runs
// these ops on divergent sets of about six lanes, +25 % (EXPERIMENTS.md, "One
// opcode table").

// buildWStep compiles the instruction at pc into a banked wstep. Control
// flow returns nil (handled by terminators), as does opNop.
func (k *Kernel) buildWStep(pc int) wstep {
	in := k.Code[pc]
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
		// One call per run of lanes that name the same dimension.
		f := row.fn.(dimFn)
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			var d, v int64
			var lid bool
			for i, t := range set {
				if x := m.ib[bb+int(t)]; i == 0 || x != d {
					d = x
					v, lid = f(&m.nd, &m.group, d)
				}
				if lid {
					m.ib[ab+int(t)] = v + int64(m.lid[t][d])
				} else {
					m.ib[ab+int(t)] = v
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
		case opLDLF, opLDLI, opSTLF, opSTLI:
			return k.wstepSlab(pc, in, false)
		}
		return k.wstepSlab(pc, in, true)
	}
	return nil
}

// intStep builds the int <- int x int step: iadd, isub and imul inline, a
// trapping row (idiv, imod) checking each lane's divisor first, any other
// through the row.
func intStep(pc int, in Instr, row *opRow) wstep {
	a, b, c, f := in.A, in.B, in.C, row.fn.(func(x, y int64) int64)
	switch in.Op {
	case opIADD:
		return func(m *wmach, set []int32) bool {
			n, ib := m.n, m.ib
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = rb[t] + rc[t]
				}
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)] + ib[cb+int(t)]
			}
			return true
		}
	case opISUB:
		return func(m *wmach, set []int32) bool {
			n, ib := m.n, m.ib
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = rb[t] - rc[t]
				}
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)] - ib[cb+int(t)]
			}
			return true
		}
	case opIMUL:
		return func(m *wmach, set []int32) bool {
			n, ib := m.n, m.ib
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = rb[t] * rc[t]
				}
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)] * ib[cb+int(t)]
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
// inline, any other through the row.
func floatStep(in Instr, row *opRow) wstep {
	a, b, c, f := in.A, in.B, in.C, row.fn.(func(x, y float64) float64)
	switch in.Op {
	case opFADD:
		return func(m *wmach, set []int32) bool {
			n, fb := m.n, m.fb
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) + float32(rc[t]))
				}
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) + float32(fb[cb+int(t)]))
			}
			return true
		}
	case opFSUB:
		return func(m *wmach, set []int32) bool {
			n, fb := m.n, m.fb
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) - float32(rc[t]))
				}
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) - float32(fb[cb+int(t)]))
			}
			return true
		}
	case opFMUL:
		return func(m *wmach, set []int32) bool {
			n, fb := m.n, m.fb
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) * float32(rc[t]))
				}
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) * float32(fb[cb+int(t)]))
			}
			return true
		}
	case opFDIV:
		return func(m *wmach, set []int32) bool {
			n, fb := m.n, m.fb
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) / float32(rc[t]))
				}
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) / float32(fb[cb+int(t)]))
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

// wstepLoadGlobal compiles opLDGF/opLDGI for the whole set.
func (k *Kernel) wstepLoadGlobal(pc int, in Instr, isF bool) wstep {
	a, slot, c, memID := in.A, in.B, in.C, in.D
	name := k.Params[slot].Name
	return func(m *wmach, set []int32) bool {
		n := m.n
		ib := m.ib
		ab, cb := int(a)*n, int(c)*n
		buf := m.args[slot].Buf
		cnt := int64(len(set))
		if m.full {
			// Uniform full-group fast path: subslice banks, columnar access
			// recording.
			cnt = int64(n)
			sl := ib[cb : cb+n]
			var col []int32
			if memID >= 0 {
				col = m.colFor(memID)
			}
			if isF {
				rl := m.fb[ab : ab+n]
				for t := range sl {
					off, err := byteOff(sl[t], len(buf))
					if err != nil {
						m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", name, err)}
						return false
					}
					rl[t] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
					if col != nil {
						col[t] = off
					}
				}
			} else {
				rl := ib[ab : ab+n]
				for t := range sl {
					off, err := byteOff(sl[t], len(buf))
					if err != nil {
						m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", name, err)}
						return false
					}
					rl[t] = int64(int32(binary.LittleEndian.Uint32(buf[off:])))
					if col != nil {
						col[t] = off
					}
				}
			}
		} else {
			for _, t := range set {
				off, err := byteOff(ib[cb+int(t)], len(buf))
				if err != nil {
					m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", name, err)}
					return false
				}
				bits := binary.LittleEndian.Uint32(buf[off:])
				if isF {
					m.fb[ab+int(t)] = float64(math.Float32frombits(bits))
				} else {
					ib[ab+int(t)] = int64(int32(bits))
				}
				m.recAcc(t, memID, off)
			}
		}
		st := m.st
		st.noteGlobalRead(slot)
		st.GlobalLoads += cnt
		st.GlobalLoadBytes += 4 * cnt
		return true
	}
}

// wstepStoreGlobal compiles opSTGF/opSTGI for the whole set, including the
// undo-log path.
func (k *Kernel) wstepStoreGlobal(pc int, in Instr, isF bool) wstep {
	a, slot, c, memID := in.A, in.B, in.C, in.D
	name := k.Params[slot].Name
	return func(m *wmach, set []int32) bool {
		n := m.n
		ib := m.ib
		ab, cb := int(a)*n, int(c)*n
		buf := m.args[slot].Buf
		st := m.st
		cnt := int64(len(set))
		if m.full {
			// Uniform full-group fast path: subslice banks, columnar access
			// recording, undo records appended inline under one table index
			// (looked up once the first lane's offset is known good: an empty
			// buffer has no first byte), and the write bounds folded over the
			// lanes that stored, noted once, trap or not.
			cnt = int64(n)
			sl := ib[cb : cb+n]
			var col []int32
			if memID >= 0 {
				col = m.colFor(memID)
			}
			u := m.undo
			var bi int32
			var bad error
			lo, hi := int32(math.MaxInt32), int32(0)
			t := 0
			for ; t < len(sl); t++ {
				off, err := byteOff(sl[t], len(buf))
				if err != nil {
					bad = err
					break
				}
				var bits uint32
				if isF {
					bits = math.Float32bits(float32(m.fb[ab+t]))
				} else {
					bits = uint32(int32(ib[ab+t]))
				}
				if u != nil {
					if t == 0 {
						bi = u.index(buf)
					}
					u.recs = append(u.recs, UndoRecord{Buf: bi, Off: off, Old: [4]byte(buf[off : off+4])})
				}
				binary.LittleEndian.PutUint32(buf[off:], bits)
				lo, hi = min(lo, off), max(hi, off)
				if col != nil {
					col[t] = off
				}
			}
			if t > 0 {
				st.noteGlobalWrite(slot, lo)
				st.noteGlobalWrite(slot, hi)
			}
			if bad != nil {
				m.err = &execError{m.k.Name, pc, fmt.Sprintf("store %s: %v", name, bad)}
				return false
			}
		} else {
			for _, t := range set {
				off, err := byteOff(ib[cb+int(t)], len(buf))
				if err != nil {
					m.err = &execError{m.k.Name, pc, fmt.Sprintf("store %s: %v", name, err)}
					return false
				}
				var bits uint32
				if isF {
					bits = math.Float32bits(float32(m.fb[ab+int(t)]))
				} else {
					bits = uint32(int32(ib[ab+int(t)]))
				}
				m.undo.store(buf, off, bits)
				st.noteGlobalWrite(slot, off)
				m.recAcc(t, memID, off)
			}
		}
		st.GlobalStores += cnt
		st.GlobalStoreBytes += 4 * cnt
		return true
	}
}

// wstepSlab compiles local-array and private-array loads and stores. Local
// arrays are shared by the group; private arrays give each item its own
// slab of the flattened per-array bank.
func (k *Kernel) wstepSlab(pc int, in Instr, priv bool) wstep {
	a, slot, c := in.A, in.B, in.C
	space := "local"
	arrs := k.LocalArrs
	if priv {
		space = "private"
		arrs = k.PrivArrs
	}
	name := arrs[slot].Name
	sig := opTab[in.Op].sig
	isLoad := sig == sigLoadF || sig == sigLoadI
	isF := sig == sigLoadF || sig == sigStoreF
	what := "store"
	if isLoad {
		what = "load"
	}
	return func(m *wmach, set []int32) bool {
		n := m.n
		ib := m.ib
		ab, cb := int(a)*n, int(c)*n
		var buf []byte
		var sz int
		if priv {
			buf = m.priv[slot]
			sz = m.privSz[slot]
		} else {
			buf = m.locals[slot]
			sz = len(buf)
		}
		for _, t := range set {
			slab := buf
			if priv {
				slab = buf[int(t)*sz : (int(t)+1)*sz]
			}
			off, err := byteOff(ib[cb+int(t)], sz)
			if err != nil {
				m.err = &execError{m.k.Name, pc, fmt.Sprintf("%s %s %s: %v", space, what, name, err)}
				return false
			}
			switch {
			case isLoad && isF:
				m.fb[ab+int(t)] = float64(math.Float32frombits(binary.LittleEndian.Uint32(slab[off:])))
			case isLoad:
				ib[ab+int(t)] = int64(int32(binary.LittleEndian.Uint32(slab[off:])))
			case isF:
				binary.LittleEndian.PutUint32(slab[off:], math.Float32bits(float32(m.fb[ab+int(t)])))
			default:
				binary.LittleEndian.PutUint32(slab[off:], uint32(int32(ib[ab+int(t)])))
			}
		}
		m.st.LocalAccesses += int64(len(set))
		return true
	}
}
