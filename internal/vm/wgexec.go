package vm

import (
	"math"
	"math/bits"
	"slices"
)

// Lockstep whole-work-group execution.
//
// The engine keeps the work-items of one group partitioned into sets by
// current basic-block leader pc. Each iteration pops the set with the
// smallest pc (merging any sets that meet at the same block), charges the
// block against every member's step budget, runs the block's banked steps —
// each a single call that loops over the whole set against the SoA register
// banks — and then applies the terminator: fallthrough/jump move the set,
// conditional branches partition it, RET retires members, and barriers park
// them until the phase ends.
//
// Under the noninterference certificate (wgcert.go) any schedule that
// preserves each work-item's own program order produces identical buffers
// and register trajectories, so the min-pc policy is purely a locality
// heuristic. A group whose launch the certificate rejects runs serial: each
// phase is one-lane sets in work-item order, each item to its barrier or
// ret before the next starts, which is the interpreter's order. Stats come
// out identical to the interpreter too: every counter the banked steps touch
// is an order-independent sum, mask, or min/max — except the memory-locality
// tracker, which is order-sensitive, so the steps record each item's
// (memID, offset) stream in program order and the phase end replays the
// streams through the ordinary memTracker in exactly the interpreter's
// per-item, per-warp call sequence.
//
// Error parity is by presence, not by text: all engines error on the same
// launches (each item's trace, including its step budget, is identical),
// but the failing work-item the message names — and, outside serial groups,
// buffer contents on the error path — may differ because set order decides
// who trips first, and a budget error names the block leader, not the exact
// instruction (the interpreter checks `steps > maxSteps` before every
// instruction; a block of n instructions errors iff stepsBefore + n >
// maxSteps, which is what the banked check of the whole block tests). Tests
// compare buffers only on error-free runs of whole-group sets.

// wgAcc is one recorded global access, replayed through the memTracker at
// phase end.
type wgAcc struct {
	id  int32
	off int32
}

// wgCol is one entry of the columnar access log. run == 0: the n offsets of
// one dynamic access of site id, at colBuf[at:at+n]. run > 0: a lane-affine
// access — item t accessed site id at byte offset at + step*t, step 0 (a
// broadcast) or 4 (consecutive words), run times in a row as far as that
// site's own stream goes (the tracker keeps no state across sites, so entries
// of other sites in between do not matter).
type wgCol struct {
	id, at, run, step int32
}

// wgSite is one access site's locality state in the current phase. While a
// phase has never partitioned every dispatch is the whole group, so either
// every item has accessed a site or none has: seen is one flag per site, and
// lastB[id*n+t] holds item t's last offset. With aff set, item t's last
// offset is at + step*t instead, and lastB holds nothing for the site. Only
// bookCol sets aff, and it runs only in replayCols, which clears the sites
// when it is done; trips and replay, which run outside it, read lastB.
type wgSite struct {
	seen, aff bool
	at, step  int32
}

// wgSet is an ordered set of work-items whose next block starts at pc.
type wgSet struct {
	pc    int
	items []int32
}

// wstep executes one instruction for every work-item in
// set. It returns false when execution failed; the error is in wmach.err.
type wstep func(m *wmach, set []int32) bool

// wmach is the lockstep engine's execution context: SoA register banks plus
// the per-group state the interpreter keeps in locals.
type wmach struct {
	k      *Kernel
	nd     NDRange
	group  [3]int
	args   []Arg
	locals [][]byte
	tr     *memTracker
	stat   Stats
	st     *Stats
	undo   *UndoLog

	maxSteps int64
	err      error

	n  int       // work-items per group
	ib []int64   // int banks: ib[reg*n + t]
	fb []float64 // float banks: fb[reg*n + t]
	// priv[slot] holds n per-item slabs back to back; item t's slab is
	// priv[slot][t*privSz[slot] : (t+1)*privSz[slot]].
	priv   [][]byte
	privSz []int
	lid    [][3]int // local ids per item
	all    []int32  // the items 0 … n-1, each phase's first set
	steps  []int64  // per-item step budget
	// key is the launch (n, local shape, scalar argument bits) the banks, lid
	// and all were set up for (enter); probe is the buffer the next is built in.
	key, probe []uint64

	rec  [][]wgAcc // per-item (memID, off) streams for this phase
	work []*wgSet
	free []*wgSet

	// Uniform-control-flow fast paths. uniform is true while the current
	// phase has never partitioned, so every dispatch of it so far was the
	// whole group in ascending order; full says the set being dispatched is
	// that (full implies uniform), letting hot steps run bounds-check-free
	// range loops; budgetScalar charges one shared step counter until the
	// group first diverges.
	full         bool
	uniform      bool
	budgetScalar bool
	stepsAll     int64
	lastB        []int32  // transposed tracker: last offset per (memID, item)
	site         []wgSite // per memID

	// Columnar access log. While the phase is uniform each dynamic global
	// access is recorded as one column of n offsets in colBuf, or as a run of
	// one offset or of consecutive words (wgCol), instead of n per-item
	// stream appends, and replayCols books the entries at phase end.
	// The first partition is the one thing that ends it: colFlush transposes
	// the entries into rec and clears uniform. So a phase has two log states
	// and the invariant is: uniform iff rec is empty and the entries, in
	// order, are every item's access stream, site by site in program order.
	// colAt[id] is one more than the index in cols of site id's latest entry,
	// 0 while it has none.
	cols   []wgCol
	colBuf []int32
	colAt  []int32

	// fuse selects the fused plans (wgfuse.go) for this group; resolved once
	// at group entry from SetWGFuse and from views, the arguments' buffers as
	// float32 words (f32View), which the reduction jam and lane-contiguous
	// global steps read: a group with a buffer that has no such view runs
	// per-step, lane by lane, the reference path that decodes bytes.
	// dynFused / dynStep tally the body instructions (per work-item) this
	// group executed fused vs per-step, for backendCtr.
	fuse     bool
	views    [][]float32
	dynFused int64
	dynStep  int64

	// Loop-level fusion (wgloop.go). A plan that ran its block's whole loop
	// sets next (-1 before the call) to the exit pc, and the dispatcher skips
	// the terminator; sfile, visits and period are the walk's scalar register
	// file, per-chain counts and period log. The loop* tallies are folded into
	// backendCtr at group end.
	next           int
	sfile, visits  []int64
	period         wgPeriod
	loopBatches    int64
	loopTrips      int64
	loopNonuniform int64

	// serial runs each phase as one-lane sets in work-item order (runGroup).
	serial    bool
	parked    int
	done      int
	barrierPC int
	diverged  bool
}

// release drops references to caller-owned memory so the pooled machine
// never retains buffers or stats beyond the work-group that used it.
func (m *wmach) release() {
	m.args, m.locals, m.tr, m.st = nil, nil, nil, nil
	clear(m.views)
	m.undo, m.err = nil, nil
}

// wmFor returns the scratch's lockstep machine sized for one work-group of k
// with n work-items; runGroup's enter sets its registers up.
func (s *wgScratch) wmFor(k *Kernel, n int) *wmach {
	if s.wm == nil {
		s.wm = &wmach{}
	}
	m := s.wm
	m.n = n
	m.ib = grow(m.ib, k.NumI*n)
	m.fb = grow(m.fb, k.NumF*n)
	m.steps = grow(m.steps, n)
	m.lid = grow(m.lid, n)
	m.all = grow(m.all, n)
	if len(m.priv) != len(k.PrivArrs) {
		m.priv = make([][]byte, len(k.PrivArrs))
		m.privSz = make([]int, len(k.PrivArrs))
	}
	for i, pa := range k.PrivArrs {
		m.privSz[i] = pa.Len * pa.Elem.Size()
		m.priv[i] = sized(m.priv[i], m.privSz[i]*n)
	}
	m.rec = grow(m.rec, n)
	for t := range m.rec {
		m.rec[t] = m.rec[t][:0]
	}
	m.lastB = grow(m.lastB, k.NumMemOps*n)
	m.site = sized(m.site, k.NumMemOps)
	m.colAt = sized(m.colAt, k.NumMemOps)
	m.free = append(m.free, m.work...)
	m.work = m.work[:0]
	m.parked, m.done = 0, 0
	m.stepsAll = 0
	m.budgetScalar = true
	m.diverged = false
	m.err = nil
	return m
}

// grow returns s with n elements of unspecified content, reallocating only
// for a larger n; sized also zeroes them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func sized[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

func (m *wmach) takeSet(pc int) *wgSet {
	var s *wgSet
	if ln := len(m.free); ln > 0 {
		s = m.free[ln-1]
		m.free = m.free[:ln-1]
	} else {
		s = &wgSet{}
	}
	s.pc = pc
	s.items = s.items[:0]
	return s
}

func (m *wmach) freeSet(s *wgSet) {
	m.free = append(m.free, s)
}

// push enqueues s, merging it into an already-queued set at the same pc
// (concatenation order is irrelevant under the certificate) and dropping it
// when empty.
func (m *wmach) push(s *wgSet) {
	if len(s.items) == 0 {
		m.freeSet(s)
		return
	}
	for _, q := range m.work {
		if q.pc == s.pc {
			q.items = append(q.items, s.items...)
			m.freeSet(s)
			return
		}
	}
	m.work = append(m.work, s)
}

// popMin removes and returns the queued set with the smallest pc.
func (m *wmach) popMin() *wgSet {
	best := 0
	for i := 1; i < len(m.work); i++ {
		if m.work[i].pc < m.work[best].pc {
			best = i
		}
	}
	s := m.work[best]
	last := len(m.work) - 1
	m.work[best] = m.work[last]
	m.work[last] = nil
	m.work = m.work[:last]
	return s
}

// recAcc records one global access of item t for the phase-end tracker
// replay. Only dispatches in a partitioned phase record per item, so the
// columnar log is already flushed.
func (m *wmach) recAcc(t int32, id, off int32) {
	if id >= 0 {
		m.rec[t] = append(m.rec[t], wgAcc{id: id, off: off})
	}
}

// recAffine records one global access every work-item of set made at byte
// offset off + step*t, t the item (step 0: a group-uniform load, or one in a
// loop's control skeleton, wgloop.go; step 4: a lane-contiguous whole-group
// access, wgsteps.go). In a partitioned phase that is one stream append per
// item; while the phase is uniform (the set is then the whole group) it is
// O(1): the access extends the site's latest entry (colAt) when that is a
// run of the same offset and step, and starts a new run otherwise.
func (m *wmach) recAffine(set []int32, id, off, step int32) {
	if id < 0 {
		return
	}
	if !m.uniform {
		for _, t := range set {
			m.recAcc(t, id, off+step*t)
		}
		return
	}
	if j := m.colAt[id] - 1; j >= 0 {
		if c := &m.cols[j]; c.run > 0 && c.at == off && c.step == step && c.run < math.MaxInt32 {
			c.run++
			return
		}
	}
	m.cols = append(m.cols, wgCol{id: id, at: off, run: 1, step: step})
	m.colAt[id] = int32(len(m.cols))
}

// colFor appends a new access column for one dynamic global access of
// memID id by the whole group of a uniform phase (m.full) and returns its
// n-offset slice; nil for any other set, and for an untracked site. Caller
// fills col[t] for every item before taking any further column (growing the
// log can reallocate it and orphan the subslice).
func (m *wmach) colFor(id int32) []int32 {
	if !m.full || id < 0 {
		return nil
	}
	at := len(m.colBuf)
	m.colBuf = append(m.colBuf, make([]int32, m.n)...)
	m.cols = append(m.cols, wgCol{id: id, at: int32(at)})
	m.colAt[id] = int32(len(m.cols))
	return m.colBuf[at:]
}

// colTrap ends the log of a phase whose whole-group access, in column col
// (nil: none), trapped at the first lane of rest: the entries go to the item
// streams (colFlush) but for the column's offsets of rest, never accessed.
func (m *wmach) colTrap(col, rest []int32) {
	if col != nil {
		m.colFlush()
		for _, t := range rest {
			m.rec[t] = m.rec[t][:len(m.rec[t])-1]
		}
	}
}

// clearCols empties the columnar log.
func (m *wmach) clearCols() {
	m.cols = m.cols[:0]
	m.colBuf = m.colBuf[:0]
	clear(m.colAt)
}

// colFlush transposes the columnar log into the per-item rec streams,
// expanding lane-affine runs, and ends the phase's uniform state (the first
// partition calls it). Because every access of the phase so far went to the
// log, appending its entries in order reconstructs each item's stream, every
// site's accesses in program order.
func (m *wmach) colFlush() {
	for _, c := range m.cols {
		for t := range m.rec {
			a := wgAcc{id: c.id, off: c.at + c.step*int32(t)}
			if c.run == 0 {
				a.off = m.colBuf[int(c.at)+t]
			}
			for r := int32(0); r < max(c.run, 1); r++ {
				m.rec[t] = append(m.rec[t], a)
			}
		}
	}
	m.clearCols()
	m.uniform = false
}

// replay drives the recorded access streams through the memTracker in the
// interpreter's exact order: items ascending, each opening a warp slot,
// each stream in program order. Sites the phase booked in closed form while
// it was still uniform (wgReduce.trips) are missing from the streams, in
// every item by the same number of occurrences, so the warp comparison stays
// aligned; their stride state carries over from site and lastB so each site
// keeps one state machine for the whole phase.
func (m *wmach) replay() {
	n := m.n
	for t := 0; t < n; t++ {
		first := t%warpSize == 0
		m.tr.nextWI(first)
		for id, s := range m.site {
			if s.seen {
				m.tr.seen[id], m.tr.last[id] = true, m.lastB[id*n+t]
			}
		}
		for _, a := range m.rec[t] {
			m.tr.access(a.id, a.off, first, m.st)
		}
		m.rec[t] = m.rec[t][:0]
	}
	clear(m.site)
}

// bookCol books log entry c into the transposed tracker. In a phase that
// never partitioned every item records the same static access sequence, so
// the j-th access of every stream shares one memID and one occurrence index.
// The CPU stride stats depend only on each item's own stream (the site's
// state), and the warp comparison of item t's access against item t-1's is
// one of adjacent offsets of the column — so a column-major pass computes the
// memTracker's exact totals. A lane-affine entry skips the warp comparison:
// its adjacent lanes are 0 or 4 bytes apart, so each warp opens one
// transaction; and each repeat of its run is n accesses at distance 0 from
// the last (Seq) that open one transaction per warp. On a site that is unseen
// or affine with the same step, its first repeat is n accesses at one
// distance, at - s.at in every lane, so the entry books in O(1) and the site
// stays affine; any other entry first writes an affine site's offsets into
// lastB and then passes over the lanes.
func (m *wmach) bookCol(c wgCol) {
	n, id, s := m.n, int(c.id), &m.site[c.id]
	run, warps := int64(c.run), int64((n+warpSize-1)/warpSize)
	var col []int32
	var seq, rand, warp int64
	if run == 0 {
		col, run, warps = m.colBuf[c.at:int(c.at)+n], 1, 0
	}
	if d := c.at - s.at; col == nil && (!s.seen || s.aff && s.step == c.step) {
		if seq = int64(n); !s.seen || d < -cacheLineBytes || d > cacheLineBytes {
			seq, rand = 0, int64(n)
		}
		*s = wgSite{seen: true, aff: true, at: c.at, step: c.step}
	} else {
		lastB := m.lastB[id*n : id*n+n]
		if s.aff {
			for t := range lastB {
				lastB[t] = s.at + s.step*int32(t)
			}
		}
		off, prevOff, seen := c.at, int32(0), s.seen
		for t := range lastB {
			if col != nil {
				off = col[t]
				if d := off - prevOff; t%warpSize == 0 || d < -4 || d > 4 {
					warp++
				}
				prevOff = off
			}
			if d := off - lastB[t]; seen && d >= -cacheLineBytes && d <= cacheLineBytes {
				seq++
			} else {
				rand++
			}
			lastB[t] = off
			off += c.step
		}
		*s = wgSite{seen: true}
	}
	m.st.SeqBytes += 4 * (seq + (run-1)*int64(n))
	m.st.RandBytes += 4 * rand
	m.st.WarpTransactions += warp + run*warps
}

// replayCols is the transposed replay for phases that never partitioned: the
// j-th entry of the log is the j-th access, or run of accesses, of every
// item.
func (m *wmach) replayCols() {
	for _, c := range m.cols {
		m.bookCol(c)
	}
	m.clearCols()
	// The stride state is per phase, like the memTracker's (nextWI resets it
	// for every item at each phase boundary).
	clear(m.site)
}

// execWGLockstep executes one work-group on the lockstep engine, in one-lane
// sets in work-item order when serial (the certificate rejected the launch).
func (k *Kernel) execWGLockstep(nd NDRange, group [3]int, args []Arg, opts ExecOpts, sc *wgScratch, serial bool) (Stats, error) {
	backendCtr.wgLoopWGs.Add(1)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	nWI := nd.WorkItemsPerGroup()
	m := sc.wmFor(k, nWI)
	m.k = k
	m.nd, m.group = nd, group
	m.args = args
	m.locals = sc.localsFor(k)
	m.tr = sc.trackerFor(k)
	m.stat = Stats{WorkGroups: 1, WorkItems: nWI}
	m.st = &m.stat
	m.undo = opts.Undo
	m.maxSteps = maxSteps
	m.serial = serial
	m.fuse = WGFuseEnabled()
	m.views = m.views[:0]
	for _, a := range args {
		v, ok := f32View(a.Buf)
		m.views = append(m.views, v)
		m.fuse = m.fuse && ok
	}
	m.dynFused, m.dynStep = 0, 0
	m.loopBatches, m.loopTrips, m.loopNonuniform = 0, 0, 0

	err := m.runGroup()
	backendCtr.wgFusedInstrsDyn.Add(m.dynFused)
	backendCtr.wgStepInstrsDyn.Add(m.dynStep)
	backendCtr.wgLoopBatchesDyn.Add(m.loopBatches)
	backendCtr.wgLoopTripsDyn.Add(m.loopTrips)
	backendCtr.wgLoopNonuniformDyn.Add(m.loopNonuniform)
	st := m.stat
	m.release()
	return st, err
}

// enter sets the group's registers up to the entry contract (DESIGN.md §8):
// every parameter holds its argument, each register pc 0 may read before
// writing it is zero, and every other register is unspecified. The pooled
// machine keeps the banks from the group before, so while the launch key is
// unchanged a group clears those registers and refills only the parameters
// some instruction writes. A new key, or a register file too wide for the
// masks, zeroes every bank and fills every parameter.
func (m *wmach) enter() {
	k, wg, n := m.k, m.k.wg, m.n
	lx, ly := m.nd.LocalSize[0], m.nd.LocalSize[1]
	key := append(m.probe[:0], uint64(n), uint64(lx), uint64(ly))
	for i, p := range k.Params {
		switch p.Kind {
		case ArgInt:
			key = append(key, uint64(m.args[i].I))
		case ArgFloat:
			key = append(key, math.Float64bits(m.args[i].F))
		}
	}
	same := slices.Equal(key, m.key)
	m.key, m.probe = key, m.key
	if !same {
		for t := range n {
			m.lid[t] = [3]int{t % lx, (t / lx) % ly, t / (lx * ly)}
			m.all[t] = int32(t)
		}
	}
	all := !same || wg.iOut == nil
	if all {
		clear(m.ib)
		clear(m.fb)
	} else {
		clearRegs(m.ib, wg.clrI, n)
		clearRegs(m.fb, wg.clrF, n)
	}
	for i, p := range k.Params {
		switch {
		case p.Kind == ArgInt && (all || wg.defI&wgBit(p.IReg) != 0):
			fill(m.ib, p.IReg, n, nil, true, m.args[i].I)
		case p.Kind == ArgFloat && (all || wg.defF&wgBit(p.FReg) != 0):
			fill(m.fb, p.FReg, n, nil, true, float64(float32(m.args[i].F)))
		}
	}
}

// clearRegs zeroes every lane of the registers in mask.
func clearRegs[T int64 | float64](bank []T, mask uint64, n int) {
	for ; mask != 0; mask &= mask - 1 {
		r := bits.TrailingZeros64(mask) * n
		clear(bank[r : r+n])
	}
}

// charge adds blk to the step budget the group shares until it first
// diverges (budgetScalar), leaving the overrun error in m.err.
func (m *wmach) charge(blk *wblock) bool {
	if m.stepsAll += blk.nInstr; m.stepsAll > m.maxSteps {
		m.err = &execError{m.k.Name, blk.start, "instruction budget exceeded (possible infinite loop)"}
		return false
	}
	return true
}

// endPhase books the phase's locality: the columnar log of a phase that
// never partitioned, the per-item streams of any other.
func (m *wmach) endPhase() {
	if m.uniform {
		m.replayCols()
	} else {
		m.replay()
	}
}

// fail ends the group at the error in m.err, raised dispatching set s, with
// the locality of every access the phase made before it booked (endPhase).
func (m *wmach) fail(s *wgSet) error {
	m.freeSet(s)
	m.endPhase()
	return m.err
}

// runGroup runs the whole group phase by phase until every item returns.
func (m *wmach) runGroup() error {
	k := m.k
	wg := k.wg
	n := m.n

	m.enter()
	entry := 0
	for {
		m.parked, m.barrierPC = 0, -1
		m.uniform = true
		m.clearCols()
		// A serial phase starts partitioned, one item per set.
		width := n
		if m.serial {
			width = 1
			m.colFlush()
		}
		for lo := 0; lo < n; lo += width {
			s := m.takeSet(entry)
			s.items = append(s.items, m.all[lo:lo+width]...)
			m.work = append(m.work, s)
			for len(m.work) > 0 {
				s := m.popMin()
				blk := wg.blocks[s.pc]
				m.full = m.uniform && len(s.items) == n
				if m.budgetScalar {
					if m.full {
						if !m.charge(blk) {
							return m.fail(s)
						}
					} else {
						// First divergent block of the group: fan the shared
						// counter out so every item keeps its exact total.
						for t := range m.steps {
							m.steps[t] = m.stepsAll
						}
						m.budgetScalar = false
					}
				}
				if !m.budgetScalar {
					for _, t := range s.items {
						if m.steps[t] += blk.nInstr; m.steps[t] > m.maxSteps {
							m.err = &execError{k.Name, blk.start, "instruction budget exceeded (possible infinite loop)"}
							return m.fail(s)
						}
					}
				}
				// A fused plan runs item-major over the set: a body with a loop
				// plan for any set, any other only for the whole group of a
				// phase that never partitioned. The rest take the per-step list.
				body := int64(blk.body - blk.start)
				if m.fuse && blk.red != nil && (m.full || blk.red.loop != nil) {
					m.dynFused += body * int64(len(s.items))
					m.next = -1
					if !blk.red.run(m, s.items) {
						return m.fail(s)
					}
					if m.next >= 0 {
						s.pc = m.next
						m.push(s)
						continue
					}
				} else {
					m.dynStep += body * int64(len(s.items))
					if !blk.runSteps(m, s.items) {
						return m.fail(s)
					}
				}
				switch blk.term.kind {
				case wtFall:
					s.pc = blk.term.next
					m.push(s)
				case wtJmp:
					m.stat.Branches += int64(len(s.items))
					s.pc = blk.term.tgt
					m.push(s)
				case wtCond:
					m.stat.Branches += int64(len(s.items))
					base := int(blk.term.condReg) * n
					jz := blk.term.jz
					ib := m.ib
					if m.full {
						// Dynamic uniformity scan: when the whole group agrees
						// on the branch, move the set wholesale. Semantically
						// identical to partitioning into one non-empty and one
						// empty set, but skips rebuilding the item list on every
						// trip around a uniform loop.
						z, same := ib[base] == 0, true
						for _, v := range ib[base+1 : base+n] {
							if (v == 0) != z {
								same = false
								break
							}
						}
						if same {
							if z == jz {
								s.pc = blk.term.tgt
							} else {
								s.pc = blk.term.next
							}
							m.push(s)
							break
						}
					}
					taken := m.takeSet(blk.term.tgt)
					fall := m.takeSet(blk.term.next)
					for _, t := range s.items {
						if (ib[base+int(t)] == 0) == jz {
							taken.items = append(taken.items, t)
						} else {
							fall.items = append(fall.items, t)
						}
					}
					if m.uniform && len(taken.items) > 0 && len(fall.items) > 0 {
						m.colFlush()
					}
					m.freeSet(s)
					m.push(taken)
					m.push(fall)
				case wtRet:
					m.done += len(s.items)
					m.freeSet(s)
				case wtBarrier:
					if m.barrierPC == -1 {
						m.barrierPC = blk.term.next
					} else if m.barrierPC != blk.term.next {
						m.diverged = true
					}
					m.parked += len(s.items)
					m.freeSet(s)
				}
			}
		}

		m.endPhase()
		if m.diverged {
			m.err = &execError{k.Name, m.barrierPC, "work-items diverged to different barriers"}
			return m.err
		}
		if m.parked == 0 {
			return nil
		}
		if m.done > 0 {
			m.err = &execError{k.Name, m.barrierPC, "barrier not reached by all work-items"}
			return m.err
		}
		m.stat.Barriers++
		entry = m.barrierPC
	}
}
