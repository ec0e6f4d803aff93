package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Banked step builders for the lockstep engine.
//
// Each wstep performs the exact per-instruction register writes, memory side
// effects, and Stats updates of the interpreter's case for its opcode (run,
// exec.go), looped over every work-item in the set against the SoA banks,
// with operands decoded once at build time. Order-independent counters (op
// counts, byte totals, masks) are batched per set; per-offset ones (write
// bounds, the undo log, tracker records) stay inside the item loop.
// matchWSuper fuses the opcode sequences the expression compiler actually
// emits into single steps, which amortizes dispatch per sequence on top of
// per set.
//
// When m.full is set the dispatched set is the whole group in ascending
// order, so hot steps take a branch that slices each register's bank once
// and runs a plain range loop — identical semantics and identical
// iteration order, but the compiler can hoist the bounds checks and the
// per-element set indirection disappears.

// buildWStep compiles the instruction at pc into a banked wstep. Control
// flow returns nil (handled by terminators), as does opNop.
func (k *Kernel) buildWStep(pc int) wstep {
	in := k.Code[pc]
	a, b, c := in.A, in.B, in.C
	switch in.Op {
	case opLDI:
		imm := in.IImm
		return func(m *wmach, set []int32) bool {
			ab := int(a) * m.n
			ib := m.ib
			if m.full {
				ra := ib[ab : ab+m.n]
				for t := range ra {
					ra[t] = imm
				}
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = imm
			}
			return true
		}
	case opLDF:
		imm := in.FImm
		return func(m *wmach, set []int32) bool {
			ab := int(a) * m.n
			fb := m.fb
			if m.full {
				ra := fb[ab : ab+m.n]
				for t := range ra {
					ra[t] = imm
				}
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = imm
			}
			return true
		}
	case opIMOV:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			if m.full {
				copy(ib[ab:ab+m.n], ib[bb:bb+m.n])
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)]
			}
			return true
		}
	case opFMOV:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			if m.full {
				copy(fb[ab:ab+m.n], fb[bb:bb+m.n])
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = fb[bb+int(t)]
			}
			return true
		}
	case opIADD:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			ib := m.ib
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = rb[t] + rc[t]
				}
				m.st.IntOps += int64(n)
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)] + ib[cb+int(t)]
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opISUB:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			ib := m.ib
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = rb[t] - rc[t]
				}
				m.st.IntOps += int64(n)
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)] - ib[cb+int(t)]
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opIMUL:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			ib := m.ib
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = rb[t] * rc[t]
				}
				m.st.IntOps += int64(n)
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = ib[bb+int(t)] * ib[cb+int(t)]
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opIDIV:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			ib := m.ib
			for _, t := range set {
				d := ib[cb+int(t)]
				if d == 0 {
					m.err = &execError{m.k.Name, pc, "integer division by zero"}
					return false
				}
				ib[ab+int(t)] = ib[bb+int(t)] / d
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opIMOD:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			ib := m.ib
			for _, t := range set {
				d := ib[cb+int(t)]
				if d == 0 {
					m.err = &execError{m.k.Name, pc, "integer modulo by zero"}
					return false
				}
				ib[ab+int(t)] = ib[bb+int(t)] % d
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opINEG:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				ib[ab+int(t)] = -ib[bb+int(t)]
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opFADD:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			fb := m.fb
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) + float32(rc[t]))
				}
				m.st.FloatOps += int64(n)
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) + float32(fb[cb+int(t)]))
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opFSUB:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			fb := m.fb
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) - float32(rc[t]))
				}
				m.st.FloatOps += int64(n)
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) - float32(fb[cb+int(t)]))
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opFMUL:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			fb := m.fb
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) * float32(rc[t]))
				}
				m.st.FloatOps += int64(n)
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) * float32(fb[cb+int(t)]))
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opFDIV:
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			fb := m.fb
			if m.full {
				ra, rb, rc := fb[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = float64(float32(rb[t]) / float32(rc[t]))
				}
				m.st.FloatOps += int64(n)
				return true
			}
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(fb[bb+int(t)]) / float32(fb[cb+int(t)]))
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opFNEG:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = -fb[bb+int(t)]
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opI2F:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib, fb := m.ib, m.fb
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(ib[bb+int(t)]))
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opF2I:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib, fb := m.ib, m.fb
			for _, t := range set {
				f := fb[bb+int(t)]
				if math.IsNaN(f) {
					f = 0
				}
				ib[ab+int(t)] = int64(f) // C truncation toward zero
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		cf := intCmpFn(in.Op)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			ib := m.ib
			if m.full {
				ra, rb, rc := ib[ab:ab+n], ib[bb:bb+n], ib[cb:cb+n]
				for t := range ra {
					ra[t] = b2i(cf(rb[t], rc[t]))
				}
				m.st.IntOps += int64(n)
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = b2i(cf(ib[bb+int(t)], ib[cb+int(t)]))
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE:
		cf := floatCmpFn(in.Op)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ab, bb, cb := int(a)*n, int(b)*n, int(c)*n
			ib, fb := m.ib, m.fb
			if m.full {
				ra, rb, rc := ib[ab:ab+n], fb[bb:bb+n], fb[cb:cb+n]
				for t := range ra {
					ra[t] = b2i(cf(rb[t], rc[t]))
				}
				m.st.FloatOps += int64(n)
				return true
			}
			for _, t := range set {
				ib[ab+int(t)] = b2i(cf(fb[bb+int(t)], fb[cb+int(t)]))
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opNOTB:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				ib[ab+int(t)] = b2i(ib[bb+int(t)] == 0)
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opLDGF:
		return k.wstepLoadGlobal(pc, in, true)
	case opLDGI:
		return k.wstepLoadGlobal(pc, in, false)
	case opSTGF:
		return k.wstepStoreGlobal(pc, in, true)
	case opSTGI:
		return k.wstepStoreGlobal(pc, in, false)
	case opLDLF, opLDLI, opSTLF, opSTLI:
		return k.wstepSlab(pc, in, false)
	case opLDPF, opLDPI, opSTPF, opSTPI:
		return k.wstepSlab(pc, in, true)
	case opGID:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				var v int64
				switch ib[bb+int(t)] {
				case 0:
					v = int64(m.group[0])*int64(m.nd.LocalSize[0]) + m.lid0[t]
				case 1:
					v = int64(m.group[1])*int64(m.nd.LocalSize[1]) + m.lid1[t]
				case 2:
					v = int64(m.group[2])*int64(m.nd.LocalSize[2]) + m.lid2[t]
				}
				ib[ab+int(t)] = v
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opLID:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				var v int64
				switch ib[bb+int(t)] {
				case 0:
					v = m.lid0[t]
				case 1:
					v = m.lid1[t]
				case 2:
					v = m.lid2[t]
				}
				ib[ab+int(t)] = v
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opGRP:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				ib[ab+int(t)] = cdim(m.group, ib[bb+int(t)])
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opNGR:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				d := ib[bb+int(t)]
				if d < 0 || d > 2 {
					ib[ab+int(t)] = 1
				} else {
					ib[ab+int(t)] = int64(m.nd.NumGroups[d])
				}
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opLSZ:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				d := ib[bb+int(t)]
				if d < 0 || d > 2 {
					ib[ab+int(t)] = 1
				} else {
					ib[ab+int(t)] = int64(m.nd.LocalSize[d])
				}
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opGSZ:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				d := ib[bb+int(t)]
				if d < 0 || d > 2 {
					ib[ab+int(t)] = 1
				} else {
					ib[ab+int(t)] = int64(m.nd.NumGroups[d] * m.nd.LocalSize[d])
				}
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opGOFF:
		return func(m *wmach, set []int32) bool {
			ab := int(a) * m.n
			ib := m.ib
			for _, t := range set {
				ib[ab+int(t)] = 0
			}
			return true
		}
	case opWDIM:
		return func(m *wmach, set []int32) bool {
			ab := int(a) * m.n
			ib := m.ib
			for _, t := range set {
				ib[ab+int(t)] = int64(m.nd.Dims)
			}
			return true
		}
	case opSQRT:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(math.Sqrt(fb[bb+int(t)])))
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opFABS:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = math.Abs(fb[bb+int(t)])
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opEXP:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(math.Exp(fb[bb+int(t)])))
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opLOG:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(math.Log(fb[bb+int(t)])))
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opFLOOR:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = math.Floor(fb[bb+int(t)])
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opCEIL:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = math.Ceil(fb[bb+int(t)])
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opPOW:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = float64(float32(math.Pow(fb[bb+int(t)], fb[cb+int(t)])))
			}
			m.st.SpecialOps += int64(len(set))
			return true
		}
	case opFMIN:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = math.Min(fb[bb+int(t)], fb[cb+int(t)])
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opFMAX:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			fb := m.fb
			for _, t := range set {
				fb[ab+int(t)] = math.Max(fb[bb+int(t)], fb[cb+int(t)])
			}
			m.st.FloatOps += int64(len(set))
			return true
		}
	case opIMIN:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			ib := m.ib
			for _, t := range set {
				x, y := ib[bb+int(t)], ib[cb+int(t)]
				if y < x {
					x = y
				}
				ib[ab+int(t)] = x
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opIMAX:
		return func(m *wmach, set []int32) bool {
			ab, bb, cb := int(a)*m.n, int(b)*m.n, int(c)*m.n
			ib := m.ib
			for _, t := range set {
				x, y := ib[bb+int(t)], ib[cb+int(t)]
				if y > x {
					x = y
				}
				ib[ab+int(t)] = x
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	case opIABS:
		return func(m *wmach, set []int32) bool {
			ab, bb := int(a)*m.n, int(b)*m.n
			ib := m.ib
			for _, t := range set {
				v := ib[bb+int(t)]
				if v < 0 {
					v = -v
				}
				ib[ab+int(t)] = v
			}
			m.st.IntOps += int64(len(set))
			return true
		}
	}
	return nil
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
			rec := m.rec
			var col []int32
			if m.colMode && memID >= 0 {
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
					} else if memID >= 0 {
						rec[t] = append(rec[t], wgAcc{id: memID, off: off})
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
					} else if memID >= 0 {
						rec[t] = append(rec[t], wgAcc{id: memID, off: off})
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
			// recording; the undo log is handled inline.
			cnt = int64(n)
			sl := ib[cb : cb+n]
			rec := m.rec
			var col []int32
			if m.colMode && memID >= 0 {
				col = m.colFor(memID)
			}
			u := m.undo
			for t := range sl {
				off, err := byteOff(sl[t], len(buf))
				if err != nil {
					m.err = &execError{m.k.Name, pc, fmt.Sprintf("store %s: %v", name, err)}
					return false
				}
				var bits uint32
				if isF {
					bits = math.Float32bits(float32(m.fb[ab+t]))
				} else {
					bits = uint32(int32(ib[ab+t]))
				}
				u.store(buf, off, bits)
				st.noteGlobalWrite(slot, off)
				if col != nil {
					col[t] = off
				} else if memID >= 0 {
					rec[t] = append(rec[t], wgAcc{id: memID, off: off})
				}
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
	isLoad := in.Op == opLDLF || in.Op == opLDLI || in.Op == opLDPF || in.Op == opLDPI
	isF := in.Op == opLDLF || in.Op == opSTLF || in.Op == opLDPF || in.Op == opSTPF
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

func intCmpFn(op Op) func(x, y int64) bool {
	switch op {
	case opILT:
		return func(x, y int64) bool { return x < y }
	case opILE:
		return func(x, y int64) bool { return x <= y }
	case opIGT:
		return func(x, y int64) bool { return x > y }
	case opIGE:
		return func(x, y int64) bool { return x >= y }
	case opIEQ:
		return func(x, y int64) bool { return x == y }
	default:
		return func(x, y int64) bool { return x != y }
	}
}

func floatCmpFn(op Op) func(x, y float64) bool {
	switch op {
	case opFLT:
		return func(x, y float64) bool { return x < y }
	case opFLE:
		return func(x, y float64) bool { return x <= y }
	case opFGT:
		return func(x, y float64) bool { return x > y }
	case opFGE:
		return func(x, y float64) bool { return x >= y }
	case opFEQ:
		return func(x, y float64) bool { return x == y }
	default:
		return func(x, y float64) bool { return x != y }
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

// matchWSuper tries the superinstruction patterns (longest first) at pc:
// affine index computation, indexed loads feeding multiplies, multiply-add
// chains, increment idioms, get_global_id and compares whose operands need
// moves. Patterns match on opcode shape only and every fused step performs
// the exact register writes, stats updates and memory side effects of its
// component instructions in order, so temporaries that live across block
// boundaries and error-path prefixes behave as in the interpreter. It
// returns the fused wstep and the number of instructions consumed.
func (k *Kernel) matchWSuper(pc, end int) (wstep, int) {
	code := k.Code
	switch {
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opFMUL, opFADD):
		return k.wsuperAffLoad(pc, true, true), 8
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF, opFMUL):
		return k.wsuperAffLoad(pc, true, false), 7
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGF):
		return k.wsuperAffLoad(pc, false, false), 6
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDGI):
		return k.wsuperAffLoad(pc, false, false), 6
	case k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD):
		i0, i1, mul, i3, add := code[pc], code[pc+1], code[pc+2], code[pc+3], code[pc+4]
		a0, b0, a1, b1 := int(i0.A), int(i0.B), int(i1.A), int(i1.B)
		ma, mb, mc := int(mul.A), int(mul.B), int(mul.C)
		a3, b3 := int(i3.A), int(i3.B)
		aa, ab, ac := int(add.A), int(add.B), int(add.C)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ib := m.ib
			if m.full {
				r0, s0 := ib[a0*n:a0*n+n], ib[b0*n:b0*n+n]
				r1, s1 := ib[a1*n:a1*n+n], ib[b1*n:b1*n+n]
				rm, sm, tm := ib[ma*n:ma*n+n], ib[mb*n:mb*n+n], ib[mc*n:mc*n+n]
				r3, s3 := ib[a3*n:a3*n+n], ib[b3*n:b3*n+n]
				rA, sA, tA := ib[aa*n:aa*n+n], ib[ab*n:ab*n+n], ib[ac*n:ac*n+n]
				for t := range r0 {
					r0[t] = s0[t]
					r1[t] = s1[t]
					rm[t] = sm[t] * tm[t]
					r3[t] = s3[t]
					rA[t] = sA[t] + tA[t]
				}
				m.st.IntOps += 2 * int64(n)
				return true
			}
			for _, ti := range set {
				t := int(ti)
				ib[a0*n+t] = ib[b0*n+t]
				ib[a1*n+t] = ib[b1*n+t]
				ib[ma*n+t] = ib[mb*n+t] * ib[mc*n+t]
				ib[a3*n+t] = ib[b3*n+t]
				ib[aa*n+t] = ib[ab*n+t] + ib[ac*n+t]
			}
			m.st.IntOps += 2 * int64(len(set))
			return true
		}, 5
	case k.opsAt(pc, end, opIMOV, opLDI, opIADD, opIMOV):
		i0, ldi, add, i3 := code[pc], code[pc+1], code[pc+2], code[pc+3]
		a0, b0 := int(i0.A), int(i0.B)
		la, imm := int(ldi.A), ldi.IImm
		aa, ab, ac := int(add.A), int(add.B), int(add.C)
		a3, b3 := int(i3.A), int(i3.B)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ib := m.ib
			if m.full {
				r0, s0 := ib[a0*n:a0*n+n], ib[b0*n:b0*n+n]
				rl := ib[la*n : la*n+n]
				rA, sA, tA := ib[aa*n:aa*n+n], ib[ab*n:ab*n+n], ib[ac*n:ac*n+n]
				r3, s3 := ib[a3*n:a3*n+n], ib[b3*n:b3*n+n]
				for t := range r0 {
					r0[t] = s0[t]
					rl[t] = imm
					rA[t] = sA[t] + tA[t]
					r3[t] = s3[t]
				}
				m.st.IntOps += int64(n)
				return true
			}
			for _, ti := range set {
				t := int(ti)
				ib[a0*n+t] = ib[b0*n+t]
				ib[la*n+t] = imm
				ib[aa*n+t] = ib[ab*n+t] + ib[ac*n+t]
				ib[a3*n+t] = ib[b3*n+t]
			}
			m.st.IntOps += int64(len(set))
			return true
		}, 4
	case k.opsAt(pc, end, opLDI, opGID, opIMOV):
		ldi, gid, mov := code[pc], code[pc+1], code[pc+2]
		la, imm := int(ldi.A), ldi.IImm
		ga, gb := int(gid.A), int(gid.B)
		mva, mvb := int(mov.A), int(mov.B)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ib := m.ib
			for _, ti := range set {
				t := int(ti)
				ib[la*n+t] = imm
				d := ib[gb*n+t]
				var v int64
				switch d {
				case 0:
					v = int64(m.group[0])*int64(m.nd.LocalSize[0]) + m.lid0[t]
				case 1:
					v = int64(m.group[1])*int64(m.nd.LocalSize[1]) + m.lid1[t]
				case 2:
					v = int64(m.group[2])*int64(m.nd.LocalSize[2]) + m.lid2[t]
				}
				ib[ga*n+t] = v
				ib[mva*n+t] = ib[mvb*n+t]
			}
			m.st.IntOps += int64(len(set))
			return true
		}, 3
	case k.opsAt(pc, end, opLDI, opGID):
		ldi, gid := code[pc], code[pc+1]
		la, imm := int(ldi.A), ldi.IImm
		ga, gb := int(gid.A), int(gid.B)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ib := m.ib
			for _, ti := range set {
				t := int(ti)
				ib[la*n+t] = imm
				d := ib[gb*n+t]
				var v int64
				switch d {
				case 0:
					v = int64(m.group[0])*int64(m.nd.LocalSize[0]) + m.lid0[t]
				case 1:
					v = int64(m.group[1])*int64(m.nd.LocalSize[1]) + m.lid1[t]
				case 2:
					v = int64(m.group[2])*int64(m.nd.LocalSize[2]) + m.lid2[t]
				}
				ib[ga*n+t] = v
			}
			m.st.IntOps += int64(len(set))
			return true
		}, 2
	case k.opsAt(pc, end, opLDGF, opFMUL):
		return k.wsuperLoadFMul(pc), 2
	case k.opsAt(pc, end, opFMUL, opFADD):
		fm, fa2 := code[pc], code[pc+1]
		ma, mb, mc := int(fm.A), int(fm.B), int(fm.C)
		aa, ab, ac := int(fa2.A), int(fa2.B), int(fa2.C)
		return func(m *wmach, set []int32) bool {
			n := m.n
			fb := m.fb
			if m.full {
				rm, sm, tm := fb[ma*n:ma*n+n], fb[mb*n:mb*n+n], fb[mc*n:mc*n+n]
				rA, sA, tA := fb[aa*n:aa*n+n], fb[ab*n:ab*n+n], fb[ac*n:ac*n+n]
				for t := range rm {
					rm[t] = float64(float32(sm[t]) * float32(tm[t]))
					rA[t] = float64(float32(sA[t]) + float32(tA[t]))
				}
				m.st.FloatOps += 2 * int64(n)
				return true
			}
			for _, ti := range set {
				t := int(ti)
				fb[ma*n+t] = float64(float32(fb[mb*n+t]) * float32(fb[mc*n+t]))
				fb[aa*n+t] = float64(float32(fb[ab*n+t]) + float32(fb[ac*n+t]))
			}
			m.st.FloatOps += 2 * int64(len(set))
			return true
		}, 2
	case k.opsAt(pc, end, opFADD, opSTGF):
		fa2 := code[pc]
		aa, ab, ac := int(fa2.A), int(fa2.B), int(fa2.C)
		st := k.buildWStep(pc + 1)
		return func(m *wmach, set []int32) bool {
			n := m.n
			fb := m.fb
			if m.full {
				rA, sA, tA := fb[aa*n:aa*n+n], fb[ab*n:ab*n+n], fb[ac*n:ac*n+n]
				for t := range rA {
					rA[t] = float64(float32(sA[t]) + float32(tA[t]))
				}
				m.st.FloatOps += int64(n)
				return st(m, set)
			}
			for _, ti := range set {
				t := int(ti)
				fb[aa*n+t] = float64(float32(fb[ab*n+t]) + float32(fb[ac*n+t]))
			}
			m.st.FloatOps += int64(len(set))
			return st(m, set)
		}, 2
	case k.opsAt(pc, end, opFMUL, opSTGF):
		fm := code[pc]
		ma, mb, mc := int(fm.A), int(fm.B), int(fm.C)
		st := k.buildWStep(pc + 1)
		return func(m *wmach, set []int32) bool {
			n := m.n
			fb := m.fb
			if m.full {
				rm, sm, tm := fb[ma*n:ma*n+n], fb[mb*n:mb*n+n], fb[mc*n:mc*n+n]
				for t := range rm {
					rm[t] = float64(float32(sm[t]) * float32(tm[t]))
				}
				m.st.FloatOps += int64(n)
				return st(m, set)
			}
			for _, ti := range set {
				t := int(ti)
				fb[ma*n+t] = float64(float32(fb[mb*n+t]) * float32(fb[mc*n+t]))
			}
			m.st.FloatOps += int64(len(set))
			return st(m, set)
		}, 2
	case k.opsAt(pc, end, opIMOV, opIMOV) && pc+2 < end && isIntCmp(code[pc+2].Op):
		m0, m1, cmp := code[pc], code[pc+1], code[pc+2]
		a0, b0, a1, b1 := int(m0.A), int(m0.B), int(m1.A), int(m1.B)
		ca, cb, cc := int(cmp.A), int(cmp.B), int(cmp.C)
		cf := intCmpFn(cmp.Op)
		return func(m *wmach, set []int32) bool {
			n := m.n
			ib := m.ib
			if m.full {
				r0, s0 := ib[a0*n:a0*n+n], ib[b0*n:b0*n+n]
				r1, s1 := ib[a1*n:a1*n+n], ib[b1*n:b1*n+n]
				rc2, sc, tc := ib[ca*n:ca*n+n], ib[cb*n:cb*n+n], ib[cc*n:cc*n+n]
				for t := range r0 {
					r0[t] = s0[t]
					r1[t] = s1[t]
					rc2[t] = b2i(cf(sc[t], tc[t]))
				}
				m.st.IntOps += int64(n)
				return true
			}
			for _, ti := range set {
				t := int(ti)
				ib[a0*n+t] = ib[b0*n+t]
				ib[a1*n+t] = ib[b1*n+t]
				ib[ca*n+t] = b2i(cf(ib[cb*n+t], ib[cc*n+t]))
			}
			m.st.IntOps += int64(len(set))
			return true
		}, 3
	}
	return nil, 0
}

// wsuperAffLoad is the affine index materialization fused with the indexed
// global load and optionally the multiply/accumulate consuming it, looped
// over the set.
func (k *Kernel) wsuperAffLoad(pc int, withFMul, withFAdd bool) wstep {
	code := k.Code
	i0, i1, mul, i3, add := code[pc], code[pc+1], code[pc+2], code[pc+3], code[pc+4]
	a0, b0, a1, b1 := int(i0.A), int(i0.B), int(i1.A), int(i1.B)
	ma, mb, mc := int(mul.A), int(mul.B), int(mul.C)
	a3, b3 := int(i3.A), int(i3.B)
	aa, ab, ac := int(add.A), int(add.B), int(add.C)
	ld := code[pc+5]
	ldPC := pc + 5
	la, slot, memID := int(ld.A), ld.B, ld.D
	isF := ld.Op == opLDGF
	name := k.Params[slot].Name
	kname := k.Name
	var readMask uint64
	if slot < 64 {
		readMask = 1 << uint(slot)
	}
	var fa, fbr, fc, ga, gb, gc int
	if withFMul {
		fm := code[pc+6]
		fa, fbr, fc = int(fm.A), int(fm.B), int(fm.C)
	}
	if withFAdd {
		fad := code[pc+7]
		ga, gb, gc = int(fad.A), int(fad.B), int(fad.C)
	}
	return func(m *wmach, set []int32) bool {
		n := m.n
		ib, fb := m.ib, m.fb
		buf := m.args[slot].Buf
		cnt := int64(len(set))
		if m.full && isF {
			// Uniform full-group fast path for the float load (the matmul
			// inner loop): banks become subslices hoisted out of the item
			// loop.
			cnt = int64(n)
			r0, s0 := ib[a0*n:a0*n+n], ib[b0*n:b0*n+n]
			r1, s1 := ib[a1*n:a1*n+n], ib[b1*n:b1*n+n]
			rm, sm, tm := ib[ma*n:ma*n+n], ib[mb*n:mb*n+n], ib[mc*n:mc*n+n]
			r3, s3 := ib[a3*n:a3*n+n], ib[b3*n:b3*n+n]
			rA, sA, tA := ib[aa*n:aa*n+n], ib[ab*n:ab*n+n], ib[ac*n:ac*n+n]
			rl := fb[la*n : la*n+n]
			var rf, sf, tf, rg, sg, tg []float64
			if withFMul {
				rf, sf, tf = fb[fa*n:fa*n+n], fb[fbr*n:fbr*n+n], fb[fc*n:fc*n+n]
			}
			if withFAdd {
				rg, sg, tg = fb[ga*n:ga*n+n], fb[gb*n:gb*n+n], fb[gc*n:gc*n+n]
			}
			rec := m.rec
			var col []int32
			if m.colMode && memID >= 0 {
				col = m.colFor(memID)
			}
			for t := range r0 {
				r0[t] = s0[t]
				r1[t] = s1[t]
				rm[t] = sm[t] * tm[t]
				r3[t] = s3[t]
				idx := sA[t] + tA[t]
				rA[t] = idx
				off := idx * 4
				if oob(idx, len(buf)) {
					m.err = &execError{kname, ldPC, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
					return false
				}
				rl[t] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
				if col != nil {
					col[t] = int32(off)
				} else if memID >= 0 {
					rec[t] = append(rec[t], wgAcc{id: memID, off: int32(off)})
				}
				if withFMul {
					rf[t] = float64(float32(sf[t]) * float32(tf[t]))
					if withFAdd {
						rg[t] = float64(float32(sg[t]) + float32(tg[t]))
					}
				}
			}
		} else {
			for _, ti := range set {
				t := int(ti)
				ib[a0*n+t] = ib[b0*n+t]
				ib[a1*n+t] = ib[b1*n+t]
				ib[ma*n+t] = ib[mb*n+t] * ib[mc*n+t]
				ib[a3*n+t] = ib[b3*n+t]
				idx := ib[ab*n+t] + ib[ac*n+t]
				ib[aa*n+t] = idx
				off := idx * 4
				if oob(idx, len(buf)) {
					m.err = &execError{kname, ldPC, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
					return false
				}
				bits := binary.LittleEndian.Uint32(buf[off:])
				if isF {
					fb[la*n+t] = float64(math.Float32frombits(bits))
				} else {
					ib[la*n+t] = int64(int32(bits))
				}
				m.recAcc(ti, memID, int32(off))
				if withFMul {
					fb[fa*n+t] = float64(float32(fb[fbr*n+t]) * float32(fb[fc*n+t]))
					if withFAdd {
						fb[ga*n+t] = float64(float32(fb[gb*n+t]) + float32(fb[gc*n+t]))
					}
				}
			}
			cnt = int64(len(set))
		}
		st := m.st
		st.IntOps += 2 * cnt
		st.ParamReadMask |= readMask
		st.GlobalLoads += cnt
		st.GlobalLoadBytes += 4 * cnt
		if withFAdd {
			st.FloatOps += 2 * cnt
		} else if withFMul {
			st.FloatOps += cnt
		}
		return true
	}
}

// wsuperLoadFMul inlines an indexed float load and the multiply consuming
// it, looped over the set.
func (k *Kernel) wsuperLoadFMul(pc int) wstep {
	ld, fm := k.Code[pc], k.Code[pc+1]
	la, slot, lc, memID := int(ld.A), ld.B, int(ld.C), ld.D
	fa, fbr, fc := int(fm.A), int(fm.B), int(fm.C)
	name := k.Params[slot].Name
	kname := k.Name
	var readMask uint64
	if slot < 64 {
		readMask = 1 << uint(slot)
	}
	return func(m *wmach, set []int32) bool {
		n := m.n
		ib, fb := m.ib, m.fb
		buf := m.args[slot].Buf
		cnt := int64(len(set))
		if m.full {
			cnt = int64(n)
			sl := ib[lc*n : lc*n+n]
			rl := fb[la*n : la*n+n]
			rf, sf, tf := fb[fa*n:fa*n+n], fb[fbr*n:fbr*n+n], fb[fc*n:fc*n+n]
			rec := m.rec
			var col []int32
			if m.colMode && memID >= 0 {
				col = m.colFor(memID)
			}
			for t := range sl {
				idx := sl[t]
				off := idx * 4
				if oob(idx, len(buf)) {
					m.err = &execError{kname, pc, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
					return false
				}
				rl[t] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
				if col != nil {
					col[t] = int32(off)
				} else if memID >= 0 {
					rec[t] = append(rec[t], wgAcc{id: memID, off: int32(off)})
				}
				rf[t] = float64(float32(sf[t]) * float32(tf[t]))
			}
		} else {
			for _, ti := range set {
				t := int(ti)
				idx := ib[lc*n+t]
				off := idx * 4
				if oob(idx, len(buf)) {
					m.err = &execError{kname, pc, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, len(buf))}
					return false
				}
				bits := binary.LittleEndian.Uint32(buf[off:])
				fb[la*n+t] = float64(math.Float32frombits(bits))
				m.recAcc(ti, memID, int32(off))
				fb[fa*n+t] = float64(float32(fb[fbr*n+t]) * float32(fb[fc*n+t]))
			}
		}
		st := m.st
		st.ParamReadMask |= readMask
		st.GlobalLoads += cnt
		st.GlobalLoadBytes += 4 * cnt
		st.FloatOps += cnt
		return true
	}
}
