package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Group-uniform steps (DESIGN.md §8, "Group-uniform steps").
//
// A step is group-uniform when every full-group dispatch of its block
// computes one value for all lanes: the GPU variant's abort prologue is
// nothing else. wgUniform finds these steps with a forward must-analysis
// over the blocks, and buildSteps gives each block that has any a second
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
	uDrop               // not at all: a move or constant whose destination is dead
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
// liveness masks, reading each block's forwarded instructions (wgForward).
// The forward pass keeps, per block entry, the int and float registers that
// hold one value across the group: all of them at pc 0 (the group's entry
// contract, wmach.enter, makes the parameters and the registers read before
// any write uniform, and every other register is written before it is
// read), at a barrier's resume pc only those no instruction writes (the
// phase before it may have partitioned), the intersection at a join. A
// backward pass per block from its live-out registers (wgLiveness) and its
// branch's condition drops every ldi, ldf, imov and fmov whose destination
// is dead, and every self-move (the four book no Stats; nInstr still
// charges them), and marks a uniform step uBcast when its destination is
// live there or read by a per-lane step of the block before redefinition.
func (k *Kernel) wgUniform(wg *wgProgram) []uint8 {
	n := len(k.Code)
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
			for _, x := range b.code {
				iu, fu, id, fd := wgUseDef(x.Instr)
				if uni[x.pc] = wgUniformOp(x.Instr) && iu&^mi == 0 && fu&^mf == 0; uni[x.pc] {
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
		liveI, liveF := wg.iOut[s], wg.fOut[s]
		if b.term.kind == wtCond {
			liveI |= wgBit(b.term.condReg)
		}
		needI, needF := liveI, liveF
		for i := len(b.code) - 1; i >= 0; i-- {
			x := b.code[i]
			iu, fu, id, fd := wgUseDef(x.Instr)
			if x.Op >= opLDI && x.Op <= opFMOV && (liveI&id == 0 && liveF&fd == 0 || x.Op >= opIMOV && x.A == x.B) {
				cls[x.pc] = uDrop
				continue
			}
			liveI, liveF = liveI&^id|iu, liveF&^fd|fu
			if uni[x.pc] {
				cls[x.pc] = uOnce
				if needI&id != 0 || needF&fd != 0 {
					cls[x.pc] = uBcast
				}
			}
			needI, needF = needI&^id, needF&^fd
			if !uni[x.pc] {
				needI, needF = needI|iu, needF|fu
			}
		}
	}
	return cls
}

// buildSteps compiles the block's instructions into its steps but for those
// cls drops, and, when cls makes any of them group-uniform, wblock.once: the
// steps, each uniform one replaced by wstepOnce.
func (k *Kernel) buildSteps(b *wblock, cls []uint8) {
	uni := false
	for _, x := range b.code {
		c := cls[x.pc]
		if c == uDrop {
			continue
		}
		s := k.buildWStep(x.pc, x.Instr)
		b.steps, b.cls = append(b.steps, s), append(b.cls, opTab[x.Op].class)
		if c != uLanes {
			s, uni = k.wstepOnce(x.pc, x.Instr, s, c == uBcast), true
		}
		b.once = append(b.once, s)
	}
	if !uni {
		b.once = nil
	}
}

// wstepOnce is the full-group form of the group-uniform step s of in at pc:
// it computes lane 0 alone — a global load with one range check and one
// read, booked as n loads of one offset (a broadcast run books what a column
// of equal offsets does), any other step by its own code on set[:1] — and,
// with bcast, copies it to every lane. A trap is lane 0's, the first lane
// the per-lane loop would have tried.
func (k *Kernel) wstepOnce(pc int, in Instr, s wstep, bcast bool) wstep {
	a := in.A
	isF := sigOperands[opTab[in.Op].sig][0] == oFw
	if in.Op == opLDGF || in.Op == opLDGI {
		slot, c, memID := in.B, in.C, in.D
		s = func(m *wmach, _ []int32) bool {
			n := m.n
			bits, ok := m.loadOnce(m.all, pc, slot, memID, m.ib[int(c)*n])
			if !ok {
				return false
			}
			if isF {
				m.fb[int(a)*n] = float64(math.Float32frombits(bits))
			} else {
				m.ib[int(a)*n] = int64(int32(bits))
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
