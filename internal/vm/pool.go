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
// allocating. Reused memory is zeroed to be indistinguishable from a fresh
// allocation.
type wgScratch struct {
	single *wiState
	states []*wiState
	locals [][]byte
	tr     *memTracker
	wm     *wmach
	cert   wgCert
}

func (k *Kernel) getScratch() *wgScratch {
	if s, ok := k.scratch.Get().(*wgScratch); ok {
		return s
	}
	return &wgScratch{}
}

func (k *Kernel) putScratch(s *wgScratch) { k.scratch.Put(s) }

func (k *Kernel) newState() *wiState {
	return &wiState{
		iregs: make([]int64, k.NumI),
		fregs: make([]float64, k.NumF),
		priv:  k.allocPriv(),
	}
}

// zero returns w to its freshly-allocated state.
func (w *wiState) zero() {
	clear(w.iregs)
	clear(w.fregs)
	for _, p := range w.priv {
		clear(p)
	}
	w.pc = 0
	w.done = false
}

// singleFor returns the shared work-item state for the non-barrier path,
// zeroed as if freshly allocated (private slabs persist across the group's
// work-items, exactly as before pooling).
func (s *wgScratch) singleFor(k *Kernel) *wiState {
	if s.single == nil {
		s.single = k.newState()
	}
	s.single.zero()
	return s.single
}

// statesFor returns n zeroed per-work-item states for the barrier path.
func (s *wgScratch) statesFor(k *Kernel, n int) []*wiState {
	for len(s.states) < n {
		s.states = append(s.states, k.newState())
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
		n := la.Len * la.Elem.Size()
		if len(s.locals[i]) != n {
			s.locals[i] = make([]byte, n)
		} else {
			clear(s.locals[i])
		}
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
