package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Loop-level fusion for the lockstep engine (DESIGN.md S20, "Loop-level
// fusion", which also holds the reordering proof).
//
// The control skeleton S of a fused loop body B (wgfuse.go) is the set of
// blocks on a path from B's successor back to B whose bodies use only
// scalar-safe opcodes (wgScalarSafe); every other block is an exit. When the
// whole group stands at B and every int register S reads before defining it
// is equal across the lanes, S is walked once on a scalar register file —
// budget and Stats charged block by block as the dispatcher would, for all
// lanes at once — until control leaves S. That yields the trip count T and
// the exit pc; B runs its T trips per work-item in one call
// (wgReduce.trips) and the group resumes at the exit.

// WGLoopReject enumerates the reasons a fused reduction body stays on one
// trip per dispatch, counted and named in the disassembly like WGFuseReject.
type WGLoopReject uint8

const (
	WGLoopRejNone WGLoopReject = iota // the loop fused
	// WGLoopRejNoCycle: no chain of scalar-safe blocks leads from the body's
	// exit back to the body.
	WGLoopRejNoCycle
	// WGLoopRejIndexNotLinear: an index does not advance by a constant per
	// trip (both factors are counters, or the skeleton redefines a source).
	WGLoopRejIndexNotLinear
	// WGLoopRejCounterRedefined: an index reads a counter the skeleton also
	// defines, so its value is not start + trip*imm.
	WGLoopRejCounterRedefined

	wgLoopRejCount = int(WGLoopRejCounterRedefined) + 1
)

var wgLoopRejectNames = [wgLoopRejCount]string{"none", "no-cycle", "index-not-linear", "counter-redefined"}

func (r WGLoopReject) String() string { return wgLoopRejectNames[r] }

// wgLoop is the loop-level plan around one fused body.
type wgLoop struct {
	defs uint64 // int registers the skeleton's instructions define
	uni  uint64 // int registers the skeleton reads before defining them
	// prog is the skeleton lowered for the walk: the head at index 0, then
	// its blocks.
	prog []wgSBlock
}

// wgSBlock is one block of a lowered skeleton: what one execution of its body
// adds to a lane's Stats and defines, and its successors as indices into
// wgLoop.prog (^pc for a block outside the skeleton).
type wgSBlock struct {
	blk           *wblock
	body          []Instr // of k.Code; the head's is the jam's and stays nil
	intOps, loads int64
	defs          uint64
	tgt, next     int
}

// succs returns the terminator's successor leader pcs, -1 for none (a
// barrier resumes at its fallthrough).
func (t wgTerm) succs() [2]int {
	switch t.kind {
	case wtFall, wtBarrier:
		return [2]int{t.next, -1}
	case wtJmp:
		return [2]int{t.tgt, -1}
	case wtCond:
		return [2]int{t.tgt, t.next}
	}
	return [2]int{-1, -1}
}

// wgScalarSafe reports whether blk may join a skeleton: it ends in a
// fallthrough, a jump or a conditional branch, and its body maps int
// registers to int registers without reading anything lane-specific. Float
// ops, work-item ids, stores, division (it can fault), ret and barriers make
// a block an exit.
func (k *Kernel) wgScalarSafe(blk *wblock) bool {
	if blk.term.kind != wtFall && blk.term.kind != wtJmp && blk.term.kind != wtCond {
		return false
	}
	for _, in := range k.Code[blk.start:blk.body] {
		switch in.Op {
		case opNop, opLDI, opIMOV, opLDGI, opNOTB, opINEG, opIADD, opISUB, opIMUL,
			opIMIN, opIMAX, opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		default:
			return false
		}
	}
	return true
}

// wgSkeleton finds the control skeleton of the loop around head, or returns
// nil when no chain of scalar-safe blocks leads from head's exit back to
// head. It knows nothing about head's body.
func (k *Kernel) wgSkeleton(wg *wgProgram, head *wblock) *wgLoop {
	succ := head.term.succs()[0]
	if head.term.kind == wtBarrier {
		succ = -1 // the phase ends there, not the trip
	}
	n := len(k.Code)
	// Forward: the scalar-safe blocks reachable from succ short of head.
	reach := make([]bool, n)
	var order []int
	closes := false
	for stack := []int{succ}; len(stack) > 0; {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc == head.start {
			closes = true
			continue
		}
		if pc < 0 || pc >= n || reach[pc] || !k.wgScalarSafe(wg.blocks[pc]) {
			continue
		}
		reach[pc] = true
		order = append(order, pc)
		sc := wg.blocks[pc].term.succs()
		stack = append(stack, sc[0], sc[1])
	}
	if !closes {
		return nil
	}
	// Backward: keep those that lead back to head through kept blocks.
	lp := &wgLoop{prog: []wgSBlock{{blk: head}}}
	inS := make([]bool, n) // by leader pc: the block belongs to the skeleton
	back := func(pc int) bool { return pc == head.start || pc >= 0 && inS[pc] }
	for grew := true; grew; {
		grew = false
		for _, pc := range order {
			if sc := wg.blocks[pc].term.succs(); !inS[pc] && (back(sc[0]) || back(sc[1])) {
				inS[pc] = true
				grew = true
			}
		}
	}
	at := map[int]int{head.start: 0} // leader pc -> index into prog
	for _, pc := range order {
		if inS[pc] {
			b := wgSBlock{blk: wg.blocks[pc]}
			b.body = k.Code[pc:b.blk.body]
			for _, in := range b.body {
				_, _, id, _ := wgUseDef(in)
				b.defs |= id
				switch in.Op {
				case opNop, opLDI, opIMOV:
				case opLDGI:
					b.loads++
				default:
					b.intOps++
				}
			}
			lp.defs |= b.defs
			at[pc] = len(lp.prog)
			lp.prog = append(lp.prog, b)
		}
	}
	idx := func(pc int) int {
		if i, ok := at[pc]; ok {
			return i
		}
		return ^pc
	}
	for i := range lp.prog {
		b := &lp.prog[i]
		b.tgt, b.next = idx(b.blk.term.tgt), idx(b.blk.term.next)
	}
	iIn, _, _ := k.wgLiveness(wg, inS)
	lp.uni = iIn[succ]
	return lp
}

// wgLoopFor decides the loop verdict of the reduction body p at head: the
// skeleton must exist, and every index of p must advance by a constant per
// trip — each source is a counter of p or invariant in p, the skeleton
// defines none of them, and at most one factor of a product is a counter.
// It records the verdict and returns the plan, nil unless the loop fused.
func (k *Kernel) wgLoopFor(wg *wgProgram, head *wblock, p *wgReduce, ctrs uint64) *wgLoop {
	lp := k.wgSkeleton(wg, head)
	rej, reg := WGLoopRejNone, 0
	if lp == nil {
		rej = WGLoopRejNoCycle
	}
	for i := 0; i < p.nLoads && rej == WGLoopRejNone; i++ {
		f := &p.loads[i]
		for _, r := range [3]int{f.idx.x, f.idx.y, f.idx.z} {
			switch bit := wgBit(int32(r)); {
			case rej != WGLoopRejNone || lp.defs&bit == 0:
			case ctrs&bit != 0:
				rej, reg = WGLoopRejCounterRedefined, r
			default:
				rej, reg = WGLoopRejIndexNotLinear, r
			}
		}
		if rej == WGLoopRejNone && f.sx != 0 && f.sy != 0 {
			rej, reg = WGLoopRejIndexNotLinear, f.idx.x
		}
	}
	backendCtr.wgLoopVerdicts[rej].Add(1)
	var note string
	switch rej {
	case WGLoopRejNone:
		var regs strings.Builder
		for v := lp.uni; v != 0; v &= v - 1 {
			fmt.Fprintf(&regs, " r%d", bits.TrailingZeros64(v))
		}
		note = fmt.Sprintf("wg.loop-fuse (skeleton %d blocks; uniform%s)", len(lp.prog)-1, regs.String())
	case WGLoopRejNoCycle:
		note, lp = "wg.loop-nofuse (no-cycle)", nil
	default:
		note, lp = fmt.Sprintf("wg.loop-nofuse (%s r%d)", rej, reg), nil
	}
	wg.loops = append(wg.loops, FusedSpan{Start: head.start, Len: head.body - head.start, Name: note})
	return lp
}

// uniform is the dynamic precheck: every register the skeleton reads before
// defining it holds one value across the group. It loads those values into
// the scalar file r.
func (lp *wgLoop) uniform(m *wmach, r *[64]int64) bool {
	n := m.n
	for v := lp.uni; v != 0; v &= v - 1 {
		reg := bits.TrailingZeros64(v)
		bank := m.ib[reg*n : reg*n+n]
		for _, x := range bank {
			if x != bank[0] {
				return false
			}
		}
		r[reg] = bank[0]
	}
	return true
}

// walk runs the loop's control for the whole group on the scalar file r (as
// uniform left it), from the head's first trip, which the dispatcher has
// already charged and counted: each arrival at the head is one trip,
// replayed on r as the counters' increments; each skeleton block is charged
// to the shared step budget, executed once, and counted once per lane. It
// returns the trip count, the exit pc and the registers the skeleton
// defined; on a budget overrun or an out-of-range uniform load the error is
// in m.err and ok is false.
func (lp *wgLoop) walk(m *wmach, r *[64]int64, ctrs []int, imms []int64) (trips int64, exit int, defd uint64, ok bool) {
	k := m.k
	var intOps, branches, loads, instrs int64
	bi := 0
	for bi >= 0 {
		b := &lp.prog[bi]
		blk := b.blk
		if trips > 0 {
			if !m.charge(blk) {
				return 0, 0, 0, false
			}
			instrs += int64(blk.body - blk.start)
		}
		if bi == 0 {
			trips++
			for i, c := range ctrs {
				r[c] += imms[i]
			}
		} else {
			for i := range b.body {
				in := &b.body[i]
				x, y := r[in.B&63], r[in.C&63] // whatever the opcode does not read is ignored
				switch in.Op {
				case opNop:
					continue
				case opLDI:
					x = in.IImm
				case opIMOV:
				case opLDGI:
					buf := m.args[in.B].Buf
					off, err := byteOff(y, len(buf))
					if err != nil {
						m.err = &execError{k.Name, blk.start + i, fmt.Sprintf("load %s: %v", k.Params[in.B].Name, err)}
						return 0, 0, 0, false
					}
					x = int64(int32(binary.LittleEndian.Uint32(buf[off:])))
					m.st.noteGlobalRead(in.B)
					m.recUniform(in.D, off)
				case opIADD:
					x += y
				case opISUB:
					x -= y
				case opIMUL:
					x *= y
				case opINEG:
					x = -x
				case opIMIN:
					x = min(x, y)
				case opIMAX:
					x = max(x, y)
				case opNOTB:
					x = b2i(x == 0)
				case opILT:
					x = b2i(x < y)
				case opILE:
					x = b2i(x <= y)
				case opIGT:
					x = b2i(x > y)
				case opIGE:
					x = b2i(x >= y)
				case opIEQ:
					x = b2i(x == y)
				case opINE:
					x = b2i(x != y)
				}
				r[in.A&63] = x
			}
			intOps += b.intOps
			loads += b.loads
			defd |= b.defs
		}
		switch t := &blk.term; t.kind {
		case wtFall:
			bi = b.next
		case wtJmp:
			branches++
			bi = b.tgt
		default: // wtCond: the head never ends in one, skeleton blocks end in nothing else
			branches++
			if bi = b.next; (r[t.condReg&63] == 0) == t.jz {
				bi = b.tgt
			}
		}
	}
	n := int64(m.n)
	m.dynFused += instrs * n
	st := m.st
	st.IntOps += intOps * n
	st.Branches += branches * n
	st.GlobalLoads += loads * n
	st.GlobalLoadBytes += 4 * loads * n
	return trips, ^bi, defd, true
}
