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
// bounds, the undo log, tracker records) stay inside the item loop. A block is
// one step per instruction; the one place several instructions become one
// loop is the reduction jam (wgfuse.go).
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
			// recording; the undo log is handled inline.
			cnt = int64(n)
			sl := ib[cb : cb+n]
			var col []int32
			if memID >= 0 {
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
