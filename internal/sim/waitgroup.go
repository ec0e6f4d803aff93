package sim

// WaitGroup counts outstanding simulation tasks; Wait parks the calling
// process until the count returns to zero. Unlike WaitAll over a fixed event
// slice, the set of tasks may grow while others are already waiting (the
// N-way runtime joins a dynamically sized set of device workers and in-flight
// result ships). All methods run in engine context, so plain fields suffice.
type WaitGroup struct {
	env     *Env
	n       int
	waiters []*Event
}

// NewWaitGroup creates a WaitGroup with a zero count.
func (e *Env) NewWaitGroup() *WaitGroup { return &WaitGroup{env: e} }

// Add increases the outstanding-task count by n (n may be negative; Done is
// Add(-1)). When the count reaches zero, every waiter wakes at the current
// virtual time.
func (w *WaitGroup) Add(n int) {
	w.n += n
	if w.n < 0 {
		panic("sim: WaitGroup count went negative")
	}
	if w.n == 0 {
		for _, ev := range w.waiters {
			ev.fire()
		}
		w.waiters = nil
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks p until the count is zero. A zero count returns immediately
// without yielding.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	ev := w.env.NewEvent()
	w.waiters = append(w.waiters, ev)
	p.Wait(ev)
}
