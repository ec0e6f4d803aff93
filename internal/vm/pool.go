package vm

// SetWorkers is a no-op kept for source compatibility.
//
// Deprecated: the speculative work-group pool it configured was removed
// (DESIGN.md §12, "Why the pool was removed"); every launch runs its groups
// in launch order on the calling goroutine. Host parallelism is the harness's
// independent table cells (harness.Runner.Parallel, fluidibench -parallel).
func SetWorkers(int) {}

// wgScratch is the per-work-group execution state (work-item registers,
// private slabs, local arrays, the memory-locality tracker). It is pooled
// per kernel so repeated work-group executions — and concurrent ones — stop
// allocating. Reused memory is reset to what a group may observe of a fresh
// allocation: the interpreter's states, private slabs and local arrays are
// zeroed, and the lockstep machine's register banks hold the group entry
// contract (wmach.enter), which leaves registers no read can see unspecified.
type wgScratch struct {
	states []*wiState
	locals [][]byte
	tr     *memTracker
	wm     *wmach
	// certKey is the scratch wgCertified builds its cache key in.
	certKey []uint64
}

func (k *Kernel) getScratch() *wgScratch {
	if s, ok := k.scratch.Get().(*wgScratch); ok {
		return s
	}
	return &wgScratch{}
}

func (k *Kernel) putScratch(s *wgScratch) { k.scratch.Put(s) }

// zero returns w to its freshly-allocated state.
func (w *wiState) zero() {
	clear(w.iregs)
	clear(w.fregs)
	for _, p := range w.priv {
		clear(p)
	}
	w.pc, w.steps = 0, 0
	w.done = false
}

// statesFor returns n zeroed per-work-item states, one per work-item of the
// group.
func (s *wgScratch) statesFor(k *Kernel, n int) []*wiState {
	for len(s.states) < n {
		w := &wiState{iregs: make([]int64, k.NumI), fregs: make([]float64, k.NumF), priv: make([][]byte, len(k.PrivArrs))}
		for i, pa := range k.PrivArrs {
			w.priv[i] = make([]byte, pa.Len*pa.Elem.Size())
		}
		s.states = append(s.states, w)
	}
	st := s.states[:n]
	for _, w := range st {
		w.zero()
	}
	return st
}

// localsFor returns the group's zeroed __local arrays.
func (s *wgScratch) localsFor(k *Kernel) [][]byte {
	if len(s.locals) != len(k.LocalArrs) {
		s.locals = make([][]byte, len(k.LocalArrs))
	}
	for i, la := range k.LocalArrs {
		s.locals[i] = sized(s.locals[i], la.Len*la.Elem.Size())
	}
	return s.locals
}

// trackerFor returns the memory tracker. No explicit reset is needed: the
// first nextWI call of a group (always newWarp) clears every per-mem-op
// series, which is exactly the state a fresh tracker presents.
func (s *wgScratch) trackerFor(k *Kernel) *memTracker {
	if s.tr == nil || len(s.tr.last) != k.NumMemOps {
		s.tr = newMemTracker(k.NumMemOps)
	}
	return s.tr
}
