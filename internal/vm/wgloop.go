package vm

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Loop-level fusion for the lockstep engine (DESIGN.md S20, "Loop-level
// fusion", which also holds the reordering proof).
//
// The control skeleton S of a fused loop body B (wgfuse.go) is the set of
// blocks on a path from B's successor back to B whose bodies use only
// scalar-safe opcodes (wgScalarSafe); every other block is an exit. S and
// B's counter increments are cut once (lower) into chains of blocks. When a
// set of lanes — the whole group or any part of it — stands at B and every
// int register S reads before defining it is equal across them, the chains
// are walked once for all of them on a scalar register file — budget and
// Stats charged as the dispatcher would, periods that repeat skipped in
// closed form (skip) — until control leaves S. That yields the trip count T
// and the exit pc; B runs its T trips per work-item in one call
// (wgReduce.trips) and the set resumes at the exit.

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
	defs uint64 // int registers the skeleton's instructions define (lower)
	uni  uint64 // int registers the skeleton reads before defining them
	inS  []bool // by leader pc: the block belongs to the skeleton, nS blocks do
	nS   int
	// The loop cut for the walk (lower): chains of blocks, the head's first,
	// and the registers the walk writes: the skeleton's and red's counters,
	// which the head's chain increments.
	prog  []wgSBlock
	write uint64
	red   *wgReduce
}

// wgSBlock is one chain, from the block at start up to the first conditional
// branch: its instructions (a load's IImm holding its own pc, for its trap),
// what one execution adds to a lane's step budget and Stats, summed over its
// blocks, the registers it defines, and the branch by value — register cond
// (64, the scalar file's zero word, for none) nonzero, or zero with jz,
// selects tgt over next, indices into wgLoop.prog (^pc for a block outside
// the skeleton).
type wgSBlock struct {
	code                                 []Instr
	start                                int
	nInstr, body, intOps, loads, branchs int64
	defs                                 uint64
	cond                                 int32
	jz                                   bool
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
			}
		}
	}
	if !back(succ) {
		return nil
	}
	iIn, _, _, _ := k.wgLiveness(wg, lp.inS)
	lp.uni = iIn[succ]
	return lp
}

// lower returns the index in prog of the chain that starts at leader pc (^pc
// outside the loop), lowering it on first sight (seen). A chain runs through
// unconditional successors as one straight line; the head's own
// instructions are the jam's, all but its counters' increments.
func (lp *wgLoop) lower(k *Kernel, wg *wgProgram, head int, seen map[int]int, pc int) int {
	if bi, ok := seen[pc]; ok {
		return bi
	}
	if pc != head && (pc < 0 || !lp.inS[pc]) {
		return ^pc
	}
	bi := len(lp.prog)
	seen[pc] = bi
	lp.prog = append(lp.prog, wgSBlock{})
	b := wgSBlock{start: pc, cond: 64}
	var blk *wblock
	for ; ; pc = blk.term.succs()[0] {
		blk = wg.blocks[pc]
		b.nInstr += blk.nInstr
		b.body += int64(blk.body - pc)
		b.branchs += b2i(blk.term.kind != wtFall)
		from := blk.body
		if pc != head {
			from = pc
			b.intOps += blk.ops[clsInt]
		}
		for at := from; at < blk.body; at++ {
			if in := k.Code[at]; in.Op != opNop {
				if in.Op == opLDGI {
					in.IImm, b.loads = int64(at), b.loads+1
				}
				b.code = append(b.code, in)
				b.defs |= wgBit(in.A)
			}
		}
		if sc := blk.term.succs()[0]; blk.term.kind == wtCond || sc < 0 || !lp.inS[sc] {
			break
		}
	}
	t := blk.term
	b.next = lp.lower(k, wg, head, seen, t.succs()[0])
	if t.kind == wtCond {
		b.cond, b.jz = t.condReg, t.jz
		b.tgt, b.next = b.next, lp.lower(k, wg, head, seen, t.next)
	}
	lp.prog[bi], lp.defs = b, lp.defs|b.defs
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
	} else {
		lp.lower(k, wg, head.start, map[int]int{}, head.start)
		lp.red, lp.write = p, lp.defs|ctrs
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
		note = fmt.Sprintf("wg.loop-fuse (skeleton %d blocks; uniform%s)", lp.nS, regs.String())
	case WGLoopRejNoCycle:
		note, lp = "wg.loop-nofuse (no-cycle)", nil
	default:
		note, lp = fmt.Sprintf("wg.loop-nofuse (%s r%d)", rej, reg), nil
	}
	wg.loops = append(wg.loops, FusedSpan{Start: head.start, Len: head.body - head.start, Name: note})
	return lp
}

// uniform is the dynamic precheck: every register the skeleton reads before
// defining it holds one value across the lanes of set. It sets up the scalar
// file m.sfile with those values, its word 64 zero.
func (lp *wgLoop) uniform(m *wmach, set []int32) bool {
	m.sfile = sized(m.sfile, 65)
	for v := lp.uni; v != 0; v &= v - 1 {
		reg := bits.TrailingZeros64(v)
		bank := m.ib[reg*m.n:][:m.n]
		x := bank[set[0]]
		for _, t := range set {
			if bank[t] != x {
				return false
			}
		}
		m.sfile[reg] = x
	}
	return true
}

// walk runs the loop's control for the lanes of set on the scalar file (as
// uniform left it), from the head's first trip: each arrival at the head is
// one trip, and may skip periods (skip); each chain is charged to the step
// budget, executed once, and counted once per lane. It returns the trip
// count, the pc the set resumes at and the registers the skeleton defined.
// The budget is the group's shared one or, once that has fanned out, that of
// the lane of set with the most steps, the first to overrun; every lane is
// charged what the walk used. A chain the budget ends inside is not started:
// the dispatcher, resuming at its first block, names the block that overruns
// (trips 0: the caller runs the head's one trip). An out-of-range uniform
// load leaves its error in m.err and ok false.
func (lp *wgLoop) walk(m *wmach, set []int32) (trips int64, exit int, defd uint64, ok bool) {
	r, visits, pl := m.sfile, sized(m.visits, len(lp.prog)), &m.period
	m.visits = visits
	pl.clear()
	used := m.stepsAll
	if !m.budgetScalar {
		used = 0
		for _, t := range set {
			used = max(used, m.steps[t])
		}
	}
	// The dispatcher has already charged and counted the head's first trip.
	head := m.k.wg.blocks[lp.prog[0].start]
	left := m.maxSteps - used + head.nInstr
	bi := 0
	for bi >= 0 {
		b := &lp.prog[bi]
		if bi == 0 {
			left -= lp.skip(m, set, left)
		} else if len(pl.ev) > 1<<14 { // a trip that runs long
			pl.clear()
		}
		pl.ev = append(pl.ev, int64(bi))
		if left < b.nInstr {
			bi = ^b.start
			break
		}
		left -= b.nInstr
		visits[bi]++
		for i := 0; bi == 0 && i < lp.red.ni; i++ {
			r[lp.red.ctrs[i]] += lp.red.imms[i]
		}
		ev := pl.ev
		for i := range b.code {
			in := &b.code[i]
			x, y := in.IImm, r[in.C]
			if in.Op != opLDI && in.Op != opLDGI {
				x = r[in.B]
			}
			ev = append(ev, x, y)
			switch f := opTab[in.Op].fn.(type) {
			case func(x, y int64) int64:
				x = f(x, y)
			case func(x int64) int64:
				x = f(x)
			default: // ldi, ldgi
				if in.Op == opLDGI {
					bits, ok := m.loadOnce(set, int(in.IImm), in.B, in.D, y)
					if !ok {
						return 0, 0, 0, false
					}
					x = int64(int32(bits))
				}
			}
			r[in.A] = x
		}
		x := r[b.cond]
		pl.ev = append(ev, x, 0)
		if bi = b.next; (x != 0) != b.jz {
			bi = b.tgt
		}
	}
	if visits[0] == 0 {
		return 0, 0, 0, true
	}
	if d := m.maxSteps - left - used; m.budgetScalar {
		m.stepsAll += d
	} else {
		for _, t := range set {
			m.steps[t] += d
		}
	}
	instrs, n, st := int64(head.start-head.body), int64(len(set)), m.st
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

// wgPeriod is the walk's period log, pooled in the wmach: per arrival at the
// head chain since it was last cleared, where its trip's events start in ev
// and the registers in wgLoop.write, in order, in snap; per chain visit, its
// index in prog, each instruction's two operands (a load's index second),
// and its branch register and 0.
type wgPeriod struct {
	at       []int
	snap, ev []int64
}

func (pl *wgPeriod) clear() { pl.at, pl.snap, pl.ev = pl.at[:0], pl.snap[:0], pl.ev[:0] }

// wgSkipHook, nil but in tests, sees the trips of every skip.
var wgSkipHook func(trips int64)

// wgFlip is how many more windows a compare whose operands were x1, y1 in
// one window and x2, y2 in the next keeps its sign, each operand moving on
// by as much per window: 0 unless the sign held and the operands are below
// lim in magnitude, and no more than keeps them below twice that, where
// their difference is exact and orders them as the VM does.
func wgFlip(x1, y1, x2, y2 int64) int64 {
	const lim = 1 << 61
	e1, e2 := x1-y1, x2-y2
	if max(x1, y1, x2, y2) >= lim || min(x1, y1, x2, y2) <= -lim || (e1 < 0) != (e2 < 0) || (e1 > 0) != (e2 > 0) {
		return 0
	}
	if e2 < 0 {
		e1, e2 = -e1, -e2
	}
	k := lim / max(x2-x1, x1-x2, y2-y1, y1-y2, 1)
	if e2 < e1 { // the difference falls toward 0: the last window before it
		k = min(k, (e2-1)/(e1-e2))
	}
	return k
}

// skip is the walk's period skipping (DESIGN.md S20, "Period skipping") at
// an arrival of set at the head chain with left steps of budget. It logs the
// arrival and, at the 2nd, 4th, 8th and 16th since the log was cleared,
// looks for the shortest L ≤ 8 such that the last two windows of L trips
// visited the same chains, none with imin or imax, every compare kept its
// sign, every product a factor and every load its index, and the registers
// read before written moved by the same delta. Each next window then repeats
// the last one's differences until a compare flips, so skip advances the
// file, the visits and the loads' latest entries over k ≥ 2 windows at once,
// as far as every sign and compare operand (wgFlip) and one window's budget
// for the walk allow. It returns the steps they charge.
func (lp *wgLoop) skip(m *wmach, set []int32, left int64) int64 {
	pl, r, ns := &m.period, m.sfile, bits.OnesCount64(lp.write)
	if len(pl.at) == 32 {
		pl.clear()
	}
	n := len(pl.at)
	pl.at = append(pl.at, len(pl.ev))
	for v := lp.write; v != 0; v &= v - 1 {
		pl.snap = append(pl.snap, r[bits.TrailingZeros64(v)])
	}
	for L := 1; L <= 8 && 2*L <= n && n&(n-1) == 0; L++ {
		w1, w2 := pl.ev[pl.at[n-2*L]:pl.at[n-L]], pl.ev[pl.at[n-L]:]
		s0, s1, s2 := pl.snap[(n-2*L)*ns:], pl.snap[(n-L)*ns:], pl.snap[n*ns:]
		same := len(w1) == len(w2)
		for i, v := 0, lp.write; same && v != 0; i, v = i+1, v&(v-1) {
			same = lp.uni&v&-v == 0 || s1[i]-s0[i] == s2[i]-s1[i]
		}
		for i := 0; same && i < len(w1); i += 3 + 2*len(lp.prog[w1[i]].code) {
			same = w1[i] == w2[i]
		}
		if !same {
			continue
		}
		k, cost := int64(math.MaxInt64), int64(0)
		for i := 0; i < len(w1) && k >= 2; {
			c := &lp.prog[w1[i]]
			cost, i = cost+c.nInstr, i+1
			for j := range c.code {
				x1, y1, x2, y2, in := w1[i], w1[i+1], w2[i], w2[i+1], &c.code[j]
				switch op := in.Op; {
				case op == opIMIN || op == opIMAX, op == opLDGI && y1 != y2, op == opIMUL && x1 != x2 && y1 != y2:
					k = 0
				case op == opLDGI && in.D >= 0 && m.lastAccess(in.D, set)[0].at != int32(4*y2):
					k = 0 // a later window would not only extend the site's latest runs
				case op == opNOTB:
					k = min(k, wgFlip(x1, 0, x2, 0))
				case opILT <= op && op <= opINE:
					k = min(k, wgFlip(x1, y1, x2, y2))
				}
				i += 2
			}
			k, i = min(k, wgFlip(w1[i], w1[i+1], w2[i], w2[i+1])), i+2 // the branch
		}
		if k = min(k, left/cost-1); k < 2 {
			continue
		}
		for i := 0; i < len(w2); i += 3 + 2*len(lp.prog[w2[i]].code) {
			c := &lp.prog[w2[i]]
			m.visits[w2[i]] += k
			for j := range c.code {
				if in := &c.code[j]; in.Op == opLDGI && in.D >= 0 {
					es := m.lastAccess(in.D, set)
					for e := range es {
						es[e].run += k
					}
				}
			}
		}
		for i, v := 0, lp.write; v != 0; i, v = i+1, v&(v-1) {
			r[bits.TrailingZeros64(v)] += k * (s2[i] - s1[i])
		}
		if wgSkipHook != nil {
			wgSkipHook(k * int64(L))
		}
		pl.clear()
		return k * cost
	}
	return 0
}
