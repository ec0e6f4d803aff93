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
// scalar-safe opcodes (wgScalarSafe); every other block is an exit. B and S
// are lowered once (lower) into chains of copy-propagated ops on a scalar
// register file. When the whole group stands at B and every int register S
// reads before defining it is equal across the lanes, the chains are walked
// once for all lanes — budget and Stats charged as the dispatcher would —
// until control leaves S. That yields the trip count T and the exit pc; B
// runs its T trips per work-item in one call (wgReduce.trips) and the group
// resumes at the exit.

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
	inS  []bool // by leader pc: the block belongs to the skeleton, nS blocks do
	nS   int
	// The loop lowered for the walk (lower): chains of blocks, the head's
	// first, on a scalar file of the 64 registers followed by consts.
	prog   []wgSBlock
	consts []int64
}

// wgSOp is one lowered instruction: r[a] = r[b] op r[c] on the scalar file. A
// compare (any opcode of them) holds when bit (r[b] > r[c]) + (r[b] >= r[c])
// of take is set; opLDGI loads word r[c] of the buffer in slot.
type wgSOp struct {
	op        Op
	take      uint8
	a, b, c   int32
	slot, mem int32 // opLDGI: parameter slot, static mem-op id
	pc        int   // opLDGI: the load's own pc, for its trap
}

// wgSBlock is one lowered chain, from the block at start up to the first
// conditional branch: what one execution adds to a lane's step budget and
// Stats, summed over its blocks, the registers its ops define, and the
// branch by value — the compare term (take 0: never) selects tgt over next,
// indices into wgLoop.prog (^pc for a block outside the skeleton).
type wgSBlock struct {
	ops                                  []wgSOp
	start                                int
	nInstr, body, intOps, loads, branchs int64
	defs                                 uint64
	term                                 wgSOp
	tgt, next                            int
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
	for stack := []int{succ}; len(stack) > 0; {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc == head.start || pc < 0 || pc >= n || reach[pc] || !k.wgScalarSafe(wg.blocks[pc]) {
			continue
		}
		reach[pc] = true
		order = append(order, pc)
		sc := wg.blocks[pc].term.succs()
		stack = append(stack, sc[0], sc[1])
	}
	// Backward: keep those that lead back to head through kept blocks.
	lp := &wgLoop{inS: make([]bool, n+1)}
	back := func(pc int) bool { return pc == head.start || pc >= 0 && lp.inS[pc] }
	for grew := true; grew; {
		grew = false
		for _, pc := range order {
			if sc := wg.blocks[pc].term.succs(); !lp.inS[pc] && (back(sc[0]) || back(sc[1])) {
				lp.inS[pc] = true
				lp.nS++
				grew = true
				for _, in := range k.Code[pc:wg.blocks[pc].body] {
					_, _, id, _ := wgUseDef(in)
					lp.defs |= id
				}
			}
		}
	}
	if !back(succ) {
		return nil
	}
	iIn, _, _ := k.wgLiveness(wg, lp.inS)
	lp.uni = iIn[succ]
	return lp
}

// slot returns the scalar-file slot of the constant v.
func (lp *wgLoop) slot(v int64) int32 {
	for i, c := range lp.consts {
		if c == v {
			return int32(64 + i)
		}
	}
	lp.consts = append(lp.consts, v)
	return int32(63 + len(lp.consts))
}

// wgTake is the take mask of the compares opILT..opINE; other ops' is 0.
var wgTake = [...]uint8{0b001, 0b011, 0b100, 0b110, 0b010, 0b101}

// lower returns the index in prog of the chain that starts at leader pc (^pc
// outside the loop), lowering it on first sight (seen). A chain runs through
// unconditional successors as one straight line; the head's part of it is,
// as far as the scalar file goes, its counters' increments.
//
// A copy, constant or compare is not emitted where it stands but becomes the
// pending definition of its register, naming the slots it reads: a copy's
// source stands in for the register in later operands, a compare folds into
// the branch. It is emitted before a slot it reads is redefined, and at the
// end of the chain if its register is live there; a backward pass then drops
// what nothing reads. Loads stay, in place: they trap and are booked
// (DESIGN.md S20, "The lowered skeleton", has the argument).
func (lp *wgLoop) lower(k *Kernel, wg *wgProgram, p *wgReduce, head int, seen map[int]int, pc int) int {
	if bi, ok := seen[pc]; ok {
		return bi
	}
	if pc != head && (pc < 0 || !lp.inS[pc]) {
		return ^pc
	}
	bi := len(lp.prog)
	seen[pc] = bi
	lp.prog = append(lp.prog, wgSBlock{})
	b := wgSBlock{start: pc}
	var bind [64]wgSOp // pending definitions; op == opNop: the file holds the register
	var ops []wgSOp
	flush := func(x int) {
		ops = append(ops, bind[x])
		bind[x] = wgSOp{}
	}
	def := func(a int32) { // a is redefined: the pending definitions that read it go first
		for x := range bind {
			if o := &bind[x]; o.op != opNop && int32(x) != a && (o.b == a || o.c == a) {
				flush(x)
			}
		}
		bind[a] = wgSOp{}
	}
	use := func(x int32) int32 { // the slot that holds register x
		if bind[x].op == opIMOV {
			return bind[x].b
		}
		if bind[x].op != opNop {
			flush(int(x))
		}
		return x
	}
	var blk *wblock
	for ; ; pc = blk.term.succs()[0] {
		blk = wg.blocks[pc]
		b.nInstr += blk.nInstr
		b.body += int64(blk.body - pc)
		b.branchs += b2i(blk.term.kind != wtFall)
		code := k.Code[pc:blk.body]
		if pc == head {
			code = nil
			for i, c := range p.ctrs[:p.ni] {
				ops = append(ops, wgSOp{op: opIADD, a: int32(c), b: int32(c), c: lp.slot(p.imms[i])})
			}
		}
		for i, in := range code {
			o := wgSOp{op: in.Op, a: in.A}
			switch in.Op {
			case opNop:
				continue
			case opLDI, opIMOV:
				if o.op = opIMOV; in.Op == opIMOV {
					o.b = use(in.B)
				} else {
					o.b = lp.slot(in.IImm)
				}
				if o.c = o.b; o.b != in.A {
					def(in.A)
					bind[in.A] = o
				}
				continue
			case opLDGI:
				o.c, o.slot, o.mem, o.pc = use(in.C), in.B, in.D, pc+i
				o.b = o.c
				b.loads++
			case opNOTB:
				if o = bind[in.B]; o.take != 0 {
					o.a, o.take = in.A, o.take^7
				} else {
					o = wgSOp{op: opIEQ, take: wgTake[opIEQ-opILT], a: in.A, b: use(in.B), c: lp.slot(0)}
				}
				b.intOps++
			default:
				o.b = use(in.B)
				if o.c = o.b; in.Op != opINEG {
					o.c = use(in.C)
				}
				if opILT <= in.Op && in.Op <= opINE {
					o.take = wgTake[in.Op-opILT]
				}
				b.intOps++
			}
			def(in.A)
			if o.take != 0 {
				bind[in.A] = o
			} else {
				ops = append(ops, o)
			}
		}
		if sc := blk.term.succs()[0]; blk.term.kind == wtCond || sc < 0 || !lp.inS[sc] {
			break
		}
	}
	live := wg.iOut[blk.start]
	for x := range bind {
		if bind[x].op != opNop && live&wgBit(int32(x)) != 0 {
			flush(x)
		}
	}
	t := blk.term
	if t.kind == wtCond {
		if b.term = bind[t.condReg]; b.term.take == 0 {
			b.term = wgSOp{take: wgTake[opINE-opILT], b: use(t.condReg), c: lp.slot(0)}
		}
		b.term.take ^= 7 * uint8(b2i(t.jz)) // taken when the compare fails
		live |= wgBit(b.term.b) | wgBit(b.term.c)
	}
	b.ops = ops[len(ops):] // the kept ops, packed at the tail of ops
	for i := len(ops) - 1; i >= 0; i-- {
		if o := ops[i]; o.op == opLDGI || live&wgBit(o.a) != 0 {
			live = live&^wgBit(o.a) | wgBit(o.b) | wgBit(o.c)
			b.ops = ops[len(ops)-len(b.ops)-1:]
			b.ops[0] = o
			if b.start != head || i >= p.ni { // trips advances the head's counters in the banks
				b.defs |= wgBit(o.a)
			}
		}
	}
	b.next = lp.lower(k, wg, p, head, seen, t.succs()[0])
	if t.kind == wtCond {
		b.tgt, b.next = b.next, lp.lower(k, wg, p, head, seen, t.next)
	}
	lp.prog[bi] = b
	return bi
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
		lp.lower(k, wg, p, head.start, map[int]int{}, head.start)
		instrs, ops := -head.nInstr, 0 // the head's own are the jam's
		for _, b := range lp.prog {
			instrs += b.nInstr
			ops += len(b.ops) + int(b2i(b.term.take != 0))
		}
		var regs strings.Builder
		for v := lp.uni; v != 0; v &= v - 1 {
			fmt.Fprintf(&regs, " r%d", bits.TrailingZeros64(v))
		}
		note = fmt.Sprintf("wg.loop-fuse (skeleton %d blocks, %d->%d ops; uniform%s)", lp.nS, instrs, ops, regs.String())
	case WGLoopRejNoCycle:
		note, lp = "wg.loop-nofuse (no-cycle)", nil
	default:
		note, lp = fmt.Sprintf("wg.loop-nofuse (%s r%d)", rej, reg), nil
	}
	wg.loops = append(wg.loops, FusedSpan{Start: head.start, Len: head.body - head.start, Name: note})
	return lp
}

// uniform is the dynamic precheck: every register the skeleton reads before
// defining it holds one value across the group. It sets up the scalar file
// m.sfile with those values and the plan's constants.
func (lp *wgLoop) uniform(m *wmach) bool {
	m.sfile = sized(m.sfile, 64+len(lp.consts))
	copy(m.sfile[64:], lp.consts)
	for v := lp.uni; v != 0; v &= v - 1 {
		reg := bits.TrailingZeros64(v)
		bank := m.ib[reg*m.n:][:m.n]
		for _, x := range bank {
			if x != bank[0] {
				return false
			}
		}
		m.sfile[reg] = bank[0]
	}
	return true
}

// walk runs the loop's control for the whole group on the scalar file (as
// uniform left it), from the head's first trip: each arrival at the head is
// one trip; each chain is charged to the shared step budget, executed once,
// and counted once per lane. It returns the trip count, the pc the group
// resumes at and the registers the skeleton defined. A chain the budget ends
// inside is not started: the dispatcher, resuming at its first block, names
// the block that overruns (trips 0: the caller runs the head's one trip). An
// out-of-range uniform load leaves its error in m.err and ok false.
func (lp *wgLoop) walk(m *wmach) (trips int64, exit int, defd uint64, ok bool) {
	r, visits := m.sfile, sized(m.visits, len(lp.prog))
	m.visits = visits
	// The dispatcher has already charged and counted the head's first trip.
	head := m.k.wg.blocks[lp.prog[0].start]
	left := m.maxSteps - m.stepsAll + head.nInstr
	bi := 0
	for bi >= 0 {
		b := &lp.prog[bi]
		if left < b.nInstr {
			bi = ^b.start
			break
		}
		left -= b.nInstr
		visits[bi]++
		for i := range b.ops {
			op := &b.ops[i]
			x, y := r[op.b], r[op.c]
			switch op.op {
			case opIMOV:
			case opLDGI:
				buf := m.args[op.slot].Buf
				off, err := byteOff(y, len(buf))
				if err != nil {
					m.err = &execError{m.k.Name, op.pc, fmt.Sprintf("load %s: %v", m.k.Params[op.slot].Name, err)}
					return 0, 0, 0, false
				}
				x = int64(int32(binary.LittleEndian.Uint32(buf[off:])))
				m.st.noteGlobalRead(op.slot)
				m.recUniform(op.mem, off)
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
			default:
				x = int64(op.take >> (b2i(x > y) + b2i(x >= y)) & 1)
			}
			r[op.a] = x
		}
		x, y := r[b.term.b], r[b.term.c]
		if bi = b.next; b.term.take>>(b2i(x > y)+b2i(x >= y))&1 != 0 {
			bi = b.tgt
		}
	}
	if visits[0] == 0 {
		return 0, 0, 0, true
	}
	m.stepsAll = m.maxSteps - left
	instrs, n, st := int64(head.start-head.body), int64(m.n), m.st
	for i, v := range visits {
		if b := &lp.prog[i]; v > 0 {
			instrs += v * b.body
			st.IntOps += v * b.intOps * n
			st.Branches += v * b.branchs * n
			st.GlobalLoads += v * b.loads * n
			st.GlobalLoadBytes += 4 * v * b.loads * n
			defd |= b.defs
		}
	}
	m.dynFused += instrs * n
	return visits[0], ^bi, defd, true
}
