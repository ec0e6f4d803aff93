package sim

import (
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(1.5)
		at = p.Now()
	})
	e.Run()
	if at != 1.5 {
		t.Fatalf("woke at %v, want 1.5", at)
	}
	if e.Now() != 1.5 {
		t.Fatalf("final clock %v, want 1.5", e.Now())
	}
}

func TestSequentialSleeps(t *testing.T) {
	e := NewEnv()
	var times []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			times = append(times, p.Now())
		}
	})
	e.Run()
	want := []Time{1, 2, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestDeterministicOrderingAtSameTime(t *testing.T) {
	// Two processes scheduled at the same instant must run in spawn order,
	// and that order must be stable across repeated runs.
	var first []string
	for trial := 0; trial < 20; trial++ {
		e := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				p.Sleep(1)
				order = append(order, name)
			})
		}
		e.Run()
		if trial == 0 {
			first = order
		} else {
			for i := range first {
				if order[i] != first[i] {
					t.Fatalf("trial %d: order %v differs from first %v", trial, order, first)
				}
			}
		}
	}
	if len(first) != 3 || first[0] != "a" || first[1] != "b" || first[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", first)
	}
}

func TestEventWakesWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var wokeAt Time
	e.Go("waiter", func(p *Proc) {
		p.Wait(ev)
		wokeAt = p.Now()
	})
	e.Go("firer", func(p *Proc) {
		p.Sleep(2)
		ev.Fire()
	})
	e.Run()
	if wokeAt != 2 {
		t.Fatalf("waiter woke at %v, want 2", wokeAt)
	}
	if !ev.Fired() || ev.FiredAt() != 2 {
		t.Fatalf("event fired=%v at=%v, want true at 2", ev.Fired(), ev.FiredAt())
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var at Time
	e.Go("p", func(p *Proc) {
		ev.Fire()
		p.Wait(ev) // must not block
		p.Wait(ev) // double-wait also fine
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("woke at %v, want 0", at)
	}
}

func TestFireAt(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.FireAt(3)
	var at Time
	e.Go("p", func(p *Proc) {
		p.Wait(ev)
		at = p.Now()
	})
	e.Run()
	if at != 3 {
		t.Fatalf("woke at %v, want 3", at)
	}
}

func TestBlockedProcessDoesNotLeakOrHang(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent() // never fired
	reached := false
	e.Go("stuck", func(p *Proc) {
		p.Wait(ev)
		reached = true
	})
	e.Run() // must terminate
	if reached {
		t.Fatal("process past an unfired event")
	}
}

func TestNeverStartedProcessUnwindsAtShutdown(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {})
	// spawn from within a process after the engine has stopped stepping it
	e.RunUntil(0)
	// Spawning after shutdown must panic cleanly rather than leak.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Go after shutdown")
		}
	}()
	e.Go("late", func(p *Proc) {})
}

func TestAfterCallback(t *testing.T) {
	e := NewEnv()
	var at Time = -1
	e.After(4, func() { at = e.Now() })
	e.Go("p", func(p *Proc) { p.Sleep(10) })
	e.Run()
	if at != 4 {
		t.Fatalf("callback at %v, want 4", at)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	var count int
	e.Go("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
			count++
		}
	})
	e.RunUntil(3.5)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(1)
			q.Put(i)
		}
		q.Close()
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e)
	var at Time
	e.Go("consumer", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok || v != "x" {
			t.Errorf("Get = %q, %v", v, ok)
		}
		at = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(7)
		q.Put("x")
	})
	e.Run()
	if at != 7 {
		t.Fatalf("consumer unblocked at %v, want 7", at)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put(42)
	v, ok := q.TryGet()
	if !ok || v != 42 {
		t.Fatalf("TryGet = %d, %v; want 42, true", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(2)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(2)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{2, 2, 4, 4}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestWaitAll(t *testing.T) {
	e := NewEnv()
	e1, e2 := e.NewEvent(), e.NewEvent()
	e1.FireAt(1)
	e2.FireAt(5)
	var at Time
	e.Go("p", func(p *Proc) {
		p.WaitAll(e1, e2)
		at = p.Now()
	})
	e.Run()
	if at != 5 {
		t.Fatalf("WaitAll completed at %v, want 5", at)
	}
}

func TestWaitUntilEventFirst(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.FireAt(2)
	var fired bool
	var at Time
	e.Go("p", func(p *Proc) {
		fired = p.WaitUntil(ev, 10)
		at = p.Now()
	})
	e.Run()
	if !fired || at != 2 {
		t.Fatalf("fired=%v at=%v, want true at 2", fired, at)
	}
}

func TestWaitUntilDeadlineFirst(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.FireAt(10)
	var fired bool
	var at Time
	e.Go("p", func(p *Proc) {
		fired = p.WaitUntil(ev, 3)
		at = p.Now()
		p.Sleep(20) // survive past the event fire; no double resume allowed
	})
	e.Run()
	if fired || at != 3 {
		t.Fatalf("fired=%v at=%v, want false at 3", fired, at)
	}
	if e.Now() != 23 {
		t.Fatalf("end clock %v, want 23", e.Now())
	}
}

func TestWaitUntilSimultaneous(t *testing.T) {
	// Event and deadline at the same instant: either outcome is fine, but
	// the process must be resumed exactly once.
	e := NewEnv()
	ev := e.NewEvent()
	ev.FireAt(5)
	wakes := 0
	e.Go("p", func(p *Proc) {
		p.WaitUntil(ev, 5)
		wakes++
		p.Sleep(1)
		wakes++
	})
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
	if e.Now() != 6 {
		t.Fatalf("end clock %v, want 6", e.Now())
	}
}

func TestWaitUntilAlreadyFired(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var fired bool
	e.Go("p", func(p *Proc) {
		ev.Fire()
		fired = p.WaitUntil(ev, 100)
	})
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("fired=%v now=%v, want true at 0", fired, e.Now())
	}
}

func TestWaitUntilPastDeadline(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var fired, reached bool
	e.Go("p", func(p *Proc) {
		p.Sleep(5)
		fired = p.WaitUntil(ev, 3) // deadline already in the past
		reached = true
	})
	e.Run()
	if fired || !reached {
		t.Fatalf("fired=%v reached=%v", fired, reached)
	}
}

func TestWaitUntilRepeated(t *testing.T) {
	// A process repeatedly using WaitUntil against fresh events must see
	// deterministic wakeups with no stale timers.
	e := NewEnv()
	var log []Time
	events := make([]*Event, 3)
	for i := range events {
		events[i] = e.NewEvent()
	}
	events[0].FireAt(1)
	events[2].FireAt(8)
	e.Go("p", func(p *Proc) {
		for i, ev := range events {
			p.WaitUntil(ev, Time(3*(i+1)))
			log = append(log, p.Now())
		}
	})
	e.Run()
	want := []Time{1, 6, 8}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}
