package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Group-uniform steps (DESIGN.md §8, "Group-uniform steps").
//
// A step is group-uniform when every full-group dispatch of its block
// computes one value for all lanes: the GPU variant's abort prologue is
// nothing else. wgUniform finds these steps with a forward must-analysis
// over the blocks, and hoistUniform gives each block that has any a second
// step list, wblock.once, in which each of them runs once, for lane 0, and
// copies the result to the other lanes only where a per-lane step, a later
// block or the block's branch may read it. m.full is the gate: a phase that
// never partitioned has taken one block path in every lane since it began,
// so a path-insensitive must-analysis holds lane for lane. Every other
// dispatch runs wblock.steps, as built.

// How a full-group dispatch runs the step at a pc (wgUniform).
const (
	uLanes uint8 = iota // per lane, as built
	uOnce               // once, into lane 0: only uniform steps of its block read it
	uBcast              // once, then lane 0 copied to every lane
)

// wgUniformOp reports whether the instruction's result is the same in every
// lane when every register it reads is: a constant, an ALU op, a builtin
// other than the two ids, or a global load (one load step reads every lane at
// one moment, and no store runs in between).
func wgUniformOp(in Instr) bool {
	switch opTab[in.Op].sig {
	case sigLDI, sigLDF, sigII, sigFF, sigFI, sigIF, sigIII, sigFFF, sigIFF, sigWDim:
		return true
	case sigDim:
		return in.Op != opGID && in.Op != opLID
	case sigLoadF, sigLoadI:
		return in.Op == opLDGF || in.Op == opLDGI
	}
	return false
}

// wgUniform classifies every pc of a kernel whose register files fit the
// liveness masks. The forward pass keeps, per block entry, the int and float
// registers that hold one value across the group: all of them at pc 0 (the
// group's entry contract, wmach.enter, makes the parameters and the
// registers read before any write uniform, and every other register is
// written before it is read), at a barrier's resume pc only those no
// instruction writes (the phase before it may have partitioned), the
// intersection at a join. A backward pass per block then marks a uniform
// step uBcast when its destination is live out (wgLiveness), is the branch's
// condition, or is read by a per-lane step of the block before being
// redefined.
func (k *Kernel) wgUniform(wg *wgProgram) []uint8 {
	code := k.Code
	n := len(code)
	inI, inF := make([]uint64, n+1), make([]uint64, n+1)
	for pc := range inI {
		inI[pc], inF[pc] = ^uint64(0), ^uint64(0)
	}
	for _, r := range wg.regions[1:] {
		inI[r], inF[r] = ^wg.defI, ^wg.defF
	}
	uni := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for s, b := range wg.blocks {
			if b == nil {
				continue
			}
			mi, mf := inI[s], inF[s]
			for pc := s; pc < b.body; pc++ {
				iu, fu, id, fd := wgUseDef(code[pc])
				if uni[pc] = wgUniformOp(code[pc]) && iu&^mi == 0 && fu&^mf == 0; uni[pc] {
					mi, mf = mi|id, mf|fd
				} else {
					mi, mf = mi&^id, mf&^fd
				}
			}
			for _, sp := range b.term.succs() {
				if sp >= 0 && (inI[sp]&^mi != 0 || inF[sp]&^mf != 0) {
					inI[sp], inF[sp] = inI[sp]&mi, inF[sp]&mf
					changed = true
				}
			}
		}
	}
	cls := make([]uint8, n)
	for s, b := range wg.blocks {
		if b == nil {
			continue
		}
		needI, needF := wg.iOut[s], wg.fOut[s]
		if b.term.kind == wtCond {
			needI |= wgBit(b.term.condReg)
		}
		for pc := b.body - 1; pc >= s; pc-- {
			iu, fu, id, fd := wgUseDef(code[pc])
			if uni[pc] {
				cls[pc] = uOnce
				if needI&id != 0 || needF&fd != 0 {
					cls[pc] = uBcast
				}
			}
			needI, needF = needI&^id, needF&^fd
			if !uni[pc] {
				needI, needF = needI|iu, needF|fu
			}
		}
	}
	return cls
}

// hoistUniform sets wblock.once on every block with a group-uniform step of
// wg (wgUniform): its steps, each uniform one replaced by wstepOnce.
func (k *Kernel) hoistUniform(wg *wgProgram) {
	cls := k.wgUniform(wg)
	for _, b := range wg.blocks {
		if b == nil {
			continue
		}
		i := 0
		for pc := b.start; pc < b.body; pc++ {
			if k.Code[pc].Op == opNop {
				continue
			}
			if cls[pc] != uLanes {
				if b.once == nil {
					b.once = slices.Clone(b.steps)
				}
				b.once[i] = k.wstepOnce(pc, b.steps[i], cls[pc] == uBcast)
			}
			i++
		}
	}
}

// wstepOnce is the full-group form of the group-uniform step s at pc: it
// computes lane 0 alone — a global load with one range check and one read,
// booked as n loads of one offset (a broadcast run books what a column of
// equal offsets does), any other step by its own code on set[:1] — and, with
// bcast, copies it to every lane. A trap is lane 0's, the first lane the
// per-lane loop would have tried.
func (k *Kernel) wstepOnce(pc int, s wstep, bcast bool) wstep {
	in := k.Code[pc]
	a := in.A
	isF := sigOperands[opTab[in.Op].sig][0] == oFw
	if in.Op == opLDGF || in.Op == opLDGI {
		slot, c, memID := in.B, in.C, in.D
		return func(m *wmach, set []int32) bool {
			n := m.n
			bits, ok := m.loadOnce(set, pc, slot, memID, m.ib[int(c)*n])
			if !ok {
				return false
			}
			if isF {
				put(m.fb, a, n, bcast, float64(math.Float32frombits(bits)))
			} else {
				put(m.ib, a, n, bcast, int64(int32(bits)))
			}
			m.st.GlobalLoads += int64(n)
			m.st.GlobalLoadBytes += 4 * int64(n)
			return true
		}
	}
	return func(m *wmach, set []int32) bool {
		m.full = false
		ok := s(m, set[:1])
		m.full = true
		if ok && bcast {
			n, ab := m.n, int(a)*m.n
			if isF {
				fill(m.fb, a, n, nil, true, m.fb[ab])
			} else {
				fill(m.ib, a, n, nil, true, m.ib[ab])
			}
		}
		return ok
	}
}

// loadOnce reads word idx of the buffer in slot once for every lane of set,
// noting the read and logging it for each lane (recAffine); the caller books
// the load counts. An index out of range leaves the load's trap at pc in
// m.err.
func (m *wmach) loadOnce(set []int32, pc int, slot, memID int32, idx int64) (uint32, bool) {
	buf := m.args[slot].Buf
	off, err := byteOff(idx, len(buf))
	if err != nil {
		m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", m.k.Params[slot].Name, err)}
		return 0, false
	}
	m.st.noteGlobalRead(slot)
	m.recAffine(set, memID, off, 0)
	return binary.LittleEndian.Uint32(buf[off:]), true
}

// put writes v to lane 0 of register a or, with all, to every lane.
func put[T int64 | float64](bank []T, a int32, n int, all bool, v T) {
	if all {
		fill(bank, a, n, nil, true, v)
	} else {
		bank[int(a)*n] = v
	}
}
