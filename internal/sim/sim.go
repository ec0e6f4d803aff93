// Package sim provides a deterministic, process-based discrete-event
// simulation engine. It is the substrate on which the simulated CPU, GPU,
// PCIe link, OpenCL command queues and the FluidiCL host threads run.
//
// The engine is cooperative: exactly one simulation process executes at a
// time, and control transfers between the engine and a process over
// unbuffered channels, so runs are fully deterministic. Events scheduled for
// the same virtual time are ordered by schedule sequence number.
//
// Virtual time is a float64 number of seconds. All time arithmetic happens
// single-threadedly inside the engine, so float64 accumulation is
// deterministic across runs.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"fluidicl/internal/trace"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time = float64

// Duration is a span of virtual time, in seconds.
type Duration = float64

// Forever is a time later than any event the engine will ever schedule.
const Forever Time = math.MaxFloat64

// killed is the sentinel used to unwind parked processes at shutdown.
type killed struct{}

// event is a scheduled engine action: either waking a process or running a
// callback (used by timers and deferred event firing).
type event struct {
	at       Time
	seq      int64
	p        *Proc // process to wake, if non-nil
	fn       func()
	canceled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Env is a simulation environment: a virtual clock plus the set of processes
// and pending events that advance it.
type Env struct {
	now    Time
	heap   eventHeap
	seq    int64
	parked chan struct{} // a running process signals here when it yields
	live   map[*Proc]bool
	dead   bool

	// Meter accumulates always-on aggregate metrics (device busy time,
	// work-group counts, link traffic). By value so metering never
	// allocates; devices register themselves on construction.
	Meter trace.Meter

	// Trace, when non-nil, records individual events for export. Set it
	// before constructing devices (they register their tracks at
	// construction); a nil recorder is fully inert.
	Trace *trace.Recorder
}

// NewEnv creates an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{parked: make(chan struct{}), live: make(map[*Proc]bool)}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

func (e *Env) schedule(at Time, p *Proc, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := &event{at: at, seq: e.seq, p: p, fn: fn}
	heap.Push(&e.heap, ev)
	return ev
}

// At schedules fn to run at virtual time t (or now, if t is in the past).
// fn runs in engine context and must not block; to start blocking work, have
// fn spawn a process with Go.
func (e *Env) At(t Time, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run d seconds from now.
func (e *Env) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Proc is a simulation process: a goroutine that runs user code and yields
// to the engine whenever it sleeps or waits.
type Proc struct {
	env  *Env
	name string
	// wake carries the engine's true to run the process; shutdown closes
	// it, and the false a parked process then receives unwinds it.
	wake chan bool
}

// Go spawns a new simulation process running fn. The process becomes
// runnable at the current virtual time and starts executing when the engine
// reaches it. A caller that needs to know when fn returns has fn fire an
// event as its last statement.
func (e *Env) Go(name string, fn func(p *Proc)) {
	if e.dead {
		panic("sim: Go called on a finished Env")
	}
	p := &Proc{env: e, name: name, wake: make(chan bool)}
	e.live[p] = true
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); ok {
					// Unwound at shutdown: do not touch engine state;
					// the engine is no longer listening on parked.
					return
				}
				panic(fmt.Sprintf("sim process %q: %v", p.name, r))
			}
		}()
		if !<-p.wake { // wait for first scheduling
			return
		}
		fn(p)
		delete(p.env.live, p)
		p.env.parked <- struct{}{}
	}()
	e.schedule(e.now, p, nil)
}

// step runs the single earliest pending event. It reports false when the
// event heap is empty.
func (e *Env) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*event)
	if ev.canceled {
		return true
	}
	e.now = ev.at
	switch {
	case ev.p != nil:
		ev.p.wake <- true
		<-e.parked
	case ev.fn != nil:
		ev.fn()
	}
	return true
}

// Run executes events until none remain, then shuts the environment down,
// unwinding any processes still blocked on events that never fired.
func (e *Env) Run() { e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= t, then shuts down.
func (e *Env) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.step()
	}
	e.shutdown()
}

// shutdown unwinds every parked process so no goroutines leak.
func (e *Env) shutdown() {
	if e.dead {
		return
	}
	e.dead = true
	// Every live process is parked inside yield() or awaiting its first
	// scheduling; closing its wake channel unwinds it so no goroutine leaks.
	for p := range e.live {
		close(p.wake)
	}
	e.live = nil
}

// yield parks the calling process and returns control to the engine. The
// process resumes when the engine sends on its wake channel.
func (p *Proc) yield() {
	p.env.parked <- struct{}{}
	if !<-p.wake {
		panic(killed{})
	}
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.env.schedule(p.env.now+d, p, nil)
	p.yield()
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.Now() }

// Env returns the process's environment.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Wait blocks the process until ev has fired. If ev has already fired, Wait
// returns immediately without yielding.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, &waiter{p: p})
	p.yield()
}

// WaitAll waits for every event in evs.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// WaitUntil blocks until ev fires or the virtual clock reaches deadline,
// whichever comes first. It reports whether ev fired (true) or the deadline
// was reached (false). If ev has already fired, it returns true immediately.
// If deadline is not after the current time, it returns ev.Fired() without
// yielding.
func (p *Proc) WaitUntil(ev *Event, deadline Time) bool {
	if ev.fired {
		return true
	}
	if deadline <= p.env.now {
		return false
	}
	w := &waiter{p: p}
	timer := p.env.schedule(deadline, p, nil)
	ev.waiters = append(ev.waiters, w)
	p.yield()
	if ev.fired {
		// Exactly one of {timer, w.wake} resumed us; cancel both — the
		// consumed one ignores the flag, the pending one is suppressed.
		timer.canceled = true
		if w.wake != nil {
			w.wake.canceled = true
		}
		return true
	}
	// Timer resumed us; make sure a future fire skips this record.
	w.dropped = true
	return false
}

// waiter is one parked process's registration on an Event. wake is the heap
// entry fire() created for it (nil until fired); dropped suppresses the wake
// for processes that stopped waiting (deadline expired).
type waiter struct {
	p       *Proc
	wake    *event
	dropped bool
}

// Event is a one-shot simulation event. Processes can wait on it; firing it
// wakes all waiters at the current virtual time.
type Event struct {
	env     *Env
	fired   bool
	at      Time
	waiters []*waiter
}

// NewEvent creates an unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e, at: -1} }

// Fire marks the event fired at the current virtual time and wakes waiters.
// Firing an already-fired event is a no-op.
func (ev *Event) Fire() { ev.fire() }

func (ev *Event) fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.at = ev.env.now
	for _, w := range ev.waiters {
		if !w.dropped {
			w.wake = ev.env.schedule(ev.env.now, w.p, nil)
		}
	}
	ev.waiters = nil
}

// FireAt schedules the event to fire at virtual time t.
func (ev *Event) FireAt(t Time) {
	ev.env.schedule(t, nil, ev.fire)
}

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// FiredAt returns the virtual time at which the event fired. It panics if
// the event has not fired.
func (ev *Event) FiredAt() Time {
	if !ev.fired {
		panic("sim: FiredAt on unfired event")
	}
	return ev.at
}
