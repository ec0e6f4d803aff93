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
// out identical to the interpreter too: every counter is an
// order-independent sum, mask, or min/max but the locality counters, which
// depend only on each access site's own accesses (endPhase; DESIGN.md §12,
// "Locality: one access log per site").
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

// wgEnt is one entry of a site's access log: run accesses by item lane
// alone, at byte offsets at, at+step, …, or, while the phase has never
// partitioned, run accesses by every item: item t's at at + step*t (lane
// wgEntAff, step 0 or 4), or from colBuf[at+t] on, colBuf[at+n+t] bytes
// apart when run > 1 (lane wgEntCol).
type wgEnt struct {
	lane, at, step int32
	run            int64
}

const (
	wgEntAff int32 = -1 - iota
	wgEntCol
)

// wgSite is the state of the site endPhase books: whether its whole-group
// entries made every item access it, and item t's last offset, wmach.last[t]
// or, with aff set, at + step*t.
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
	lid    [3][]int64 // lid[d][t]: item t's local id in dimension d
	all    []int32    // the items 0 … n-1, each phase's first set
	steps  []int64    // per-item step budget
	// key is the launch (n, local shape, scalar argument bits) the banks, lid
	// and all were set up for (enter); probe is the buffer the next is built in.
	key, probe []uint64

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

	// logs[id] is site id's entries in execution order, colBuf the columns'
	// offsets; endPhase books and empties them, with last, laneAt and byLane
	// as its scratch.
	logs                 [][]wgEnt
	byLane               []wgEnt
	colBuf, last, laneAt []int32

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
	m.args, m.locals, m.st = nil, nil, nil
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
	for d := range m.lid {
		m.lid[d] = grow(m.lid[d], n)
	}
	m.all = grow(m.all, n)
	if len(m.priv) != len(k.PrivArrs) {
		m.priv = make([][]byte, len(k.PrivArrs))
		m.privSz = make([]int, len(k.PrivArrs))
	}
	for i, pa := range k.PrivArrs {
		m.privSz[i] = pa.Len * pa.Elem.Size()
		m.priv[i] = sized(m.priv[i], m.privSz[i]*n)
	}
	m.last = grow(m.last, n)
	m.logs = grow(m.logs, k.NumMemOps) // endPhase left them empty
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

// logLane logs run accesses of site id (none: id < 0) by item t alone, at
// byte offsets off, off+step, ….
func (m *wmach) logLane(t, id, off, step int32, run int64) {
	if id >= 0 {
		m.logs[id] = append(m.logs[id], wgEnt{lane: t, at: off, step: step, run: run})
	}
}

// recAffine logs one global access each item of set made at byte offset
// off + step*t (step 0: a group-uniform load; 4: a lane-contiguous access):
// an entry per item in a partitioned phase, else, in O(1), one more repeat
// of the site's latest entry when that is the same wgEntAff, or a new one.
func (m *wmach) recAffine(set []int32, id, off, step int32) {
	if id < 0 {
		return
	}
	if !m.uniform {
		for _, t := range set {
			m.logLane(t, id, off+step*t, 0, 1)
		}
		return
	}
	l := m.logs[id]
	if j := len(l) - 1; j >= 0 {
		if c := &l[j]; c.lane == wgEntAff && c.at == off && c.step == step {
			c.run++
			return
		}
	}
	m.logs[id] = append(l, wgEnt{lane: wgEntAff, at: off, step: step, run: 1})
}

// colFor returns n slots at the end of colBuf, to be filled before any more
// are taken (growing colBuf can reallocate it and orphan the subslice).
func (m *wmach) colFor(n int) []int32 {
	at := len(m.colBuf)
	m.colBuf = append(m.colBuf, make([]int32, n)...)
	return m.colBuf[at:]
}

// logCol logs one access of site id by the items of done, a prefix of the
// set col was taken for, item done[i] at byte offset col[i]: one wgEntCol
// for the whole group of a uniform phase (m.full), else an entry each.
func (m *wmach) logCol(id int32, col, done []int32) {
	at := len(m.colBuf) - len(col)
	if id >= 0 && m.full && len(done) == m.n {
		m.logs[id] = append(m.logs[id], wgEnt{lane: wgEntCol, at: int32(at), run: 1})
		return
	}
	for i, t := range done {
		m.logLane(t, id, col[i], 0, 1)
	}
	m.colBuf = m.colBuf[:at]
}

// lastAccess is the entries of site id's latest access, which the items of
// set made: one while the phase is uniform, one per item after.
func (m *wmach) lastAccess(id int32, set []int32) []wgEnt {
	l, k := m.logs[id], len(set)
	if m.uniform {
		k = 1
	}
	return l[len(l)-k:]
}

// endPhase books the phase's locality and empties the logs. The memTracker
// keeps its state per site and resets it per phase, so each site books
// alone: its whole-group entries column-major (bookCol), then its per-item
// ones, which all follow them (bookLanes).
func (m *wmach) endPhase() {
	for id, l := range m.logs {
		var s wgSite
		k := 0
		for ; k < len(l) && l[k].lane < 0; k++ {
			m.bookCol(&s, l[k])
		}
		if k < len(l) {
			m.bookLanes(&s, l[k:])
		}
		m.logs[id] = l[:0]
	}
	m.colBuf = m.colBuf[:0]
}

// bookCol books whole-group entry c of site s. Every item has made the
// site's accesses so far, so item t's k-th access is compared with its own
// last offset and with item t-1's k-th: per item a first access, run-1 at
// its stride, and against the item before in closed form (wgCoalesced). A
// wgEntAff's adjacent items are at most 4 bytes apart and its repeats at
// distance 0; on a site that is unseen or affine with the same step its
// first access is at one distance, at - s.at, in every item, so it books in
// O(1) and the site stays affine.
func (m *wmach) bookCol(s *wgSite, c wgEnt) {
	n := m.n
	var seq, rand, warp int64
	if d := c.at - s.at; c.lane == wgEntAff && (!s.seen || s.aff && s.step == c.step) {
		if seq = int64(n); !s.seen || d < -cacheLineBytes || d > cacheLineBytes {
			seq, rand = 0, int64(n)
		}
		seq += (c.run - 1) * int64(n)
		warp = c.run * int64((n+warpSize-1)/warpSize)
		*s = wgSite{seen: true, aff: true, at: c.at, step: c.step}
	} else {
		var col, str []int32
		if c.lane == wgEntCol {
			col = m.colBuf[c.at:][:n]
			if c.run > 1 {
				str = m.colBuf[int(c.at)+n:][:n]
			}
		}
		last, seen, run := m.unAff(s), s.seen, c.run
		var pb, ps int32
		for t := range last {
			b, st := c.at+c.step*int32(t), int32(0)
			if col != nil {
				b = col[t]
			}
			if str != nil {
				st = str[t]
			}
			if warp += run; t%warpSize != 0 {
				warp -= wgCoalesced(int64(b-pb)>>2, (int64(st)-int64(ps))>>2, run)
			}
			last[t], pb, ps = bookRun(&seq, &rand, seen, last[t], b, st, run), b, st
		}
		s.seen = true
	}
	m.st.SeqBytes += 4 * seq
	m.st.RandBytes += 4 * rand
	m.st.WarpTransactions += warp
}

// bookRun books, for the CPU rule, run accesses from byte offset b at stride
// st by an item whose last access, if seen, was at last: the first by its
// distance, the others by the stride's. It returns the new last offset.
func bookRun(seq, rand *int64, seen bool, last, b, st int32, run int64) int32 {
	if d := b - last; seen && d >= -cacheLineBytes && d <= cacheLineBytes {
		*seq++
	} else {
		*rand++
	}
	if st >= -cacheLineBytes && st <= cacheLineBytes {
		*seq += run - 1
	} else {
		*rand += run - 1
	}
	return b + st*int32(run-1)
}

// unAff returns site s's last offsets, first writing an affine site's out.
func (m *wmach) unAff(s *wgSite) []int32 {
	if s.aff {
		for t := range m.last {
			m.last[t] = s.at + s.step*int32(t)
		}
		s.aff = false
	}
	return m.last
}

// wgLanesHook, nil but in tests, sees each site bookLanes books, and whether
// whole-group entries came first.
var wgLanesHook func(prefix bool)

// bookLanes books the per-item entries es of site s item by item, each in
// its order (a stable counting sort by item) and from its state after the
// whole-group entries, which gave every item as many accesses: so its k-th
// access here is compared with item t-1's k-th (laneWarp).
func (m *wmach) bookLanes(s *wgSite, es []wgEnt) {
	if wgLanesHook != nil {
		wgLanesHook(s.seen)
	}
	n := m.n
	at := sized(m.laneAt, n+1)
	srt := grow(m.byLane, len(es))
	m.laneAt, m.byLane = at, srt
	for _, e := range es {
		at[e.lane+1]++
	}
	for t := 1; t <= n; t++ {
		at[t] += at[t-1]
	}
	for _, e := range es {
		srt[at[e.lane]] = e
		at[e.lane]++
	}
	var seq, rand, warp int64
	var prev []wgEnt
	lo := int32(0)
	for t, last := range m.unAff(s) {
		cur, seen := srt[lo:at[t]], s.seen
		for _, e := range cur {
			seen, last = true, bookRun(&seq, &rand, seen, last, e.at, e.step, e.run)
		}
		if t%warpSize == 0 {
			prev = nil
		}
		warp += laneWarp(cur, prev)
		prev, lo = cur, at[t]
	}
	m.st.SeqBytes += 4 * seq
	m.st.RandBytes += 4 * rand
	m.st.WarpTransactions += warp
}

// laneWarp counts the warp transactions item t's accesses cur open after
// item t-1's, prev (nil for the first of a warp): its k-th opens one unless
// prev's k-th lies within 4 bytes, counted per stretch of the two lists in
// which neither entry changes (wgCoalesced).
func laneWarp(cur, prev []wgEnt) (warp int64) {
	j, ri, rj := 0, int64(0), int64(0)
	for i := 0; i < len(cur); {
		c := &cur[i]
		if j == len(prev) {
			warp += c.run - ri
			i, ri = i+1, 0
			continue
		}
		p := &prev[j]
		k := min(c.run-ri, p.run-rj)
		d := int64(c.at) + int64(c.step)*ri - int64(p.at) - int64(p.step)*rj
		warp += k - wgCoalesced(d>>2, (int64(c.step)-int64(p.step))>>2, k)
		if ri += k; ri == c.run {
			i, ri = i+1, 0
		}
		if rj += k; rj == p.run {
			j, rj = j+1, 0
		}
	}
	return warp
}

// wgCoalesced counts the trips j in [0, T) on which two adjacent lanes'
// accesses of one site coalesce: their word distance db + j*ds is at most
// one (the tracker's |byte distance| <= 4).
func wgCoalesced(db, ds, T int64) int64 {
	if ds == 0 {
		if -1 <= db && db <= 1 {
			return T
		}
		return 0
	}
	var c int64
	for v := int64(-1); v <= 1; v++ {
		if q := v - db; q%ds == 0 {
			if j := q / ds; 0 <= j && j < T {
				c++
			}
		}
	}
	return c
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
			m.lid[0][t], m.lid[1][t], m.lid[2][t] = int64(t%lx), int64((t/lx)%ly), int64(t/(lx*ly))
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
		// A serial phase starts partitioned, one item per set.
		m.uniform = !m.serial
		width := n
		if m.serial {
			width = 1
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
					m.uniform = m.uniform && (len(taken.items) == 0 || len(fall.items) == 0)
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
