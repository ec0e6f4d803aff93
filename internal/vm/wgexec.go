package vm

import "math"

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
// heuristic. Stats come out identical to the interpreter too: every counter
// the banked steps touch is an order-independent sum, mask, or min/max —
// except the memory-locality tracker, which is order-sensitive, so the
// steps record each item's (memID, offset) stream in program order and the
// phase end replays the streams through the ordinary memTracker in exactly
// the interpreter's per-item, per-warp call sequence.
//
// Error parity is by presence, not by text: all engines error on the same
// launches (each item's trace, including its step budget, is identical),
// but the failing work-item the message names — and buffer contents on the
// error path — may differ because set order decides who trips first, and a
// budget error names the block leader, not the exact instruction (the
// interpreter checks `steps > maxSteps` before every instruction; a block of
// n instructions errors iff stepsBefore + n > maxSteps, which is what the
// banked check of the whole block tests). Tests compare buffers only on
// error-free runs.

// wgAcc is one recorded global access, replayed through the memTracker at
// phase end.
type wgAcc struct {
	id  int32
	off int32
}

// wgCol is one entry of the columnar access log. run == 0: the n offsets of
// one dynamic access of site id, at colBuf[at:at+n]. run > 0: a broadcast —
// all n items accessed site id at byte offset at, run times in a row as far
// as that site's own stream goes (the tracker keeps no state across sites, so
// entries of other sites in between do not matter).
type wgCol struct {
	id, at, run int32
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
	lid0   []int64 // local ids per item
	lid1   []int64
	lid2   []int64
	lidKey [3]int  // the (lx, ly, n) the lid tables were last filled for
	steps  []int64 // per-item step budget

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
	lastB        []int32 // transposed tracker: last offset per (memID, item)
	seenB        []bool  // lastB validity per (memID, item)

	// Columnar access log. While the phase is uniform each dynamic global
	// access is recorded as one column of n offsets in colBuf, or as a
	// broadcast run when every item used one offset (wgCol), instead of n
	// per-item stream appends, and replayCols books the entries at phase end.
	// The first partition is the one thing that ends it: colFlush transposes
	// the entries into rec and clears uniform. So a phase has two log states
	// and the invariant is: uniform iff rec is empty and the entries, in
	// order, are every item's access stream, site by site in program order.
	cols   []wgCol
	colBuf []int32

	// fuse selects the fused plans (wgfuse.go) for this group; resolved once
	// at group entry from SetWGFuse and from views, the arguments' buffers as
	// float32 words (f32View), which the reduction jam reads: a group with a
	// buffer that has no such view runs per-step, the reference path that
	// decodes bytes. dynFused / dynStep tally the body instructions (per
	// work-item) this group executed fused vs per-step, for backendCtr.
	fuse     bool
	views    [][]float32
	dynFused int64
	dynStep  int64

	// Loop-level fusion (wgloop.go). A plan that ran its block's whole loop
	// sets next (-1 before the call) to the exit pc, and the dispatcher skips
	// the terminator; booked marks a phase whose reduction sites went into
	// lastB/seenB in closed form (see replay); sfile and visits are the walk's
	// scalar register file and per-chain counts. The loop* tallies are folded
	// into backendCtr at group end.
	next           int
	booked         bool
	sfile, visits  []int64
	loopBatches    int64
	loopTrips      int64
	loopNonuniform int64

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

// wmFor returns the scratch's lockstep machine sized and zeroed for one
// work-group of k with n work-items.
func (s *wgScratch) wmFor(k *Kernel, n int) *wmach {
	if s.wm == nil {
		s.wm = &wmach{}
	}
	m := s.wm
	m.n = n
	m.ib = sized(m.ib, k.NumI*n)
	m.fb = sized(m.fb, k.NumF*n)
	m.steps = sized(m.steps, n)
	m.lid0 = grow(m.lid0, n)
	m.lid1 = grow(m.lid1, n)
	m.lid2 = grow(m.lid2, n)
	if len(m.priv) != len(k.PrivArrs) {
		m.priv = make([][]byte, len(k.PrivArrs))
		m.privSz = make([]int, len(k.PrivArrs))
	}
	for i, pa := range k.PrivArrs {
		sz := pa.Len * pa.Elem.Size()
		m.privSz[i] = sz
		tot := sz * n
		if cap(m.priv[i]) < tot {
			m.priv[i] = make([]byte, tot)
		} else {
			m.priv[i] = m.priv[i][:tot]
			clear(m.priv[i])
		}
	}
	for len(m.rec) < n {
		m.rec = append(m.rec, nil)
	}
	m.rec = m.rec[:n]
	for t := range m.rec {
		m.rec[t] = m.rec[t][:0]
	}
	m.lastB = grow(m.lastB, k.NumMemOps*n)
	m.seenB = sized(m.seenB, k.NumMemOps*n)
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
// replay. Only partial-set dispatches record per item, and a phase that has
// had one is no longer uniform, so the columnar log is already flushed.
func (m *wmach) recAcc(t int32, id, off int32) {
	if id >= 0 {
		m.rec[t] = append(m.rec[t], wgAcc{id: id, off: off})
	}
}

// recUniform records one global access all n work-items made at the same
// offset (a load in a loop's control skeleton, wgloop.go, which is only
// walked for a full group, so the phase is uniform). That is O(1): the access
// extends the site's latest entry when that is a broadcast of the same
// offset, and starts a new run otherwise.
func (m *wmach) recUniform(id, off int32) {
	if id < 0 {
		return
	}
	for j := len(m.cols) - 1; j >= 0; j-- {
		if c := &m.cols[j]; c.id == id {
			if c.run > 0 && c.at == off && c.run < math.MaxInt32 {
				c.run++
				return
			}
			break
		}
	}
	m.cols = append(m.cols, wgCol{id: id, at: off, run: 1})
}

// colFor appends a new access column for one dynamic global access of
// memID id and returns its n-offset slice. Caller fills col[t] for every
// item before taking any further column (growing the log can reallocate it
// and orphan the subslice); only valid while the phase is uniform.
func (m *wmach) colFor(id int32) []int32 {
	at := len(m.colBuf)
	need := at + m.n
	if cap(m.colBuf) < need {
		grown := make([]int32, need, need*2)
		copy(grown, m.colBuf)
		m.colBuf = grown
	} else {
		m.colBuf = m.colBuf[:need]
	}
	m.cols = append(m.cols, wgCol{id: id, at: int32(at)})
	return m.colBuf[at:need]
}

// colFlush transposes the columnar log into the per-item rec streams,
// expanding broadcast runs, and ends the phase's uniform state (the first
// partition calls it). Because every access of the phase so far went to the
// log, appending its entries in order reconstructs each item's stream, every
// site's accesses in program order.
func (m *wmach) colFlush() {
	for _, c := range m.cols {
		for t := range m.rec {
			a := wgAcc{id: c.id, off: c.at}
			if c.run == 0 {
				a.off = m.colBuf[int(c.at)+t]
			}
			for r := int32(0); r < max(c.run, 1); r++ {
				m.rec[t] = append(m.rec[t], a)
			}
		}
	}
	m.cols = m.cols[:0]
	m.colBuf = m.colBuf[:0]
	m.uniform = false
}

// replay drives the recorded access streams through the memTracker in the
// interpreter's exact order: items ascending, each opening a warp slot,
// each stream in program order. Sites the phase booked in closed form while
// it was still uniform (wgReduce.trips) are missing from the streams, in
// every item by the same number of occurrences, so the warp comparison stays
// aligned; their stride state carries over from lastB/seenB so each site
// keeps one state machine for the whole phase.
func (m *wmach) replay() {
	n := m.n
	for t := 0; t < n; t++ {
		first := t%warpSize == 0
		m.tr.nextWI(first)
		if m.booked {
			for id := range m.tr.seen {
				if m.seenB[id*n+t] {
					m.tr.seen[id], m.tr.last[id] = true, m.lastB[id*n+t]
				}
			}
		}
		for _, a := range m.rec[t] {
			m.tr.access(a.id, a.off, first, m.st)
		}
		m.rec[t] = m.rec[t][:0]
	}
	if m.booked {
		clear(m.seenB)
	}
}

// bookCol books one log entry of memID id into the transposed tracker: the
// offsets col at which the n work-items made the same dynamic access, or,
// with col nil, the offset off they all used run times in a row. In a phase
// that never partitioned every item records the same static access sequence,
// so the j-th access of every stream shares one memID and one occurrence
// index. The CPU stride stats depend only on each item's own stream (banked
// last/seen state), and the warp comparison of item t's access against item
// t-1's is one of adjacent offsets of the column — so a column-major pass
// computes the memTracker's exact totals. A broadcast is a column of equal
// offsets, and each repeat of it is n accesses at distance 0 from the last
// (Seq) that open one transaction per warp.
func (m *wmach) bookCol(id int, col []int32, off int32, run int64) {
	n := m.n
	lastB := m.lastB[id*n : id*n+n]
	seenB := m.seenB[id*n : id*n+n]
	var seq, rand, warp int64
	var prevOff int32
	for t := range lastB {
		if col != nil {
			off = col[t]
		}
		if seenB[t] {
			d := off - lastB[t]
			if d < 0 {
				d = -d
			}
			if d <= cacheLineBytes {
				seq++
			} else {
				rand++
			}
		} else {
			rand++
			seenB[t] = true
		}
		lastB[t] = off
		if t%warpSize == 0 {
			warp++
		} else {
			d := off - prevOff
			if d < 0 {
				d = -d
			}
			if d > 4 {
				warp++
			}
		}
		prevOff = off
	}
	warps := int64((n + warpSize - 1) / warpSize)
	m.st.SeqBytes += 4 * (seq + (run-1)*int64(n))
	m.st.RandBytes += 4 * rand
	m.st.WarpTransactions += warp + (run-1)*warps
}

// replayCols is the transposed replay for phases that never partitioned: the
// j-th entry of the log is the j-th access, or run of accesses, of every
// item.
func (m *wmach) replayCols() {
	for _, c := range m.cols {
		if c.run == 0 {
			m.bookCol(int(c.id), m.colBuf[c.at:int(c.at)+m.n], 0, 1)
		} else {
			m.bookCol(int(c.id), nil, c.at, int64(c.run))
		}
	}
	m.cols = m.cols[:0]
	m.colBuf = m.colBuf[:0]
	// The banked stride state is per phase, like the memTracker's (nextWI
	// resets it for every item at each phase boundary).
	clear(m.seenB)
}

// execWGLockstep executes one certified work-group on the lockstep engine.
func (k *Kernel) execWGLockstep(nd NDRange, group [3]int, args []Arg, opts ExecOpts, sc *wgScratch) (Stats, error) {
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

// charge adds blk to the step budget the group shares until it first
// diverges (budgetScalar), leaving the overrun error in m.err.
func (m *wmach) charge(blk *wblock) bool {
	if m.stepsAll += blk.nInstr; m.stepsAll > m.maxSteps {
		m.err = &execError{m.k.Name, blk.start, "instruction budget exceeded (possible infinite loop)"}
		return false
	}
	return true
}

// runGroup runs the whole group phase by phase until every item returns.
func (m *wmach) runGroup() error {
	k := m.k
	wg := k.wg
	n := m.n

	// The pooled machine keeps its local-id tables across groups; wmFor
	// reallocates them only for a larger n, which changes the key.
	if lx, ly := m.nd.LocalSize[0], m.nd.LocalSize[1]; m.lidKey != [3]int{lx, ly, n} {
		m.lidKey = [3]int{lx, ly, n}
		for t := 0; t < n; t++ {
			m.lid0[t] = int64(t % lx)
			m.lid1[t] = int64((t / lx) % ly)
			m.lid2[t] = int64(t / (lx * ly))
		}
	}
	for i, p := range k.Params {
		switch p.Kind {
		case ArgInt:
			bank := m.ib[int(p.IReg)*n : int(p.IReg)*n+n]
			v := m.args[i].I
			for t := range bank {
				bank[t] = v
			}
		case ArgFloat:
			bank := m.fb[int(p.FReg)*n : int(p.FReg)*n+n]
			v := float64(float32(m.args[i].F))
			for t := range bank {
				bank[t] = v
			}
		}
	}

	entry := 0
	for {
		m.parked, m.barrierPC = 0, -1
		m.uniform = true
		m.booked = false
		m.cols = m.cols[:0]
		m.colBuf = m.colBuf[:0]
		s := m.takeSet(entry)
		for t := 0; t < n; t++ {
			s.items = append(s.items, int32(t))
		}
		m.work = append(m.work, s)

		for len(m.work) > 0 {
			s := m.popMin()
			blk := wg.blocks[s.pc]
			m.full = m.uniform && len(s.items) == n
			if m.budgetScalar {
				if m.full {
					if !m.charge(blk) {
						m.freeSet(s)
						return m.err
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
						m.freeSet(s)
						return m.err
					}
				}
			}
			// A fused plan runs item-major over the whole group; any
			// other dispatch takes the per-step list.
			body := int64(blk.body - blk.start)
			if m.fuse && blk.red != nil && m.full {
				m.dynFused += body * int64(n)
				m.next = -1
				if !blk.red.run(m) {
					m.freeSet(s)
					return m.err
				}
				if m.next >= 0 {
					s.pc = m.next
					m.push(s)
					continue
				}
			} else {
				m.dynStep += body * int64(len(s.items))
				for _, stp := range blk.steps {
					if !stp(m, s.items) {
						m.freeSet(s)
						return m.err
					}
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
					allZ, allNZ := true, true
					for _, v := range ib[base : base+n] {
						if v == 0 {
							allNZ = false
						} else {
							allZ = false
						}
						if !allZ && !allNZ {
							break
						}
					}
					if allZ || allNZ {
						if allZ == jz {
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

		if m.diverged {
			m.err = &execError{k.Name, m.barrierPC, "work-items diverged to different barriers"}
			return m.err
		}
		if m.uniform {
			m.replayCols()
		} else {
			m.replay()
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
