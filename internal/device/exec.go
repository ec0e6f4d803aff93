package device

import (
	"math"
	"sync"

	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// inflightWG tracks one work-group currently executing on a compute unit.
type inflightWG struct {
	fgid  int
	cu    int
	start sim.Time
	end   sim.Time
	undo  *vm.UndoLog
	stats vm.Stats
}

// launchScratch is runLaunch's working storage: the compute-unit clock, the
// in-flight list and the undo logs of its groups (the simulator's stand-in
// for §6.4's mid-kernel abort: one log per in-flight GPU work-group). It is
// pooled process-wide because a Device lives for one scheduler run, and in a
// sync.Pool because anything that survives collection is resident in a
// process this small (DESIGN.md §4, "Launch scratch").
type launchScratch struct {
	cuFree []sim.Time
	fly    []inflightWG
	logs   []*vm.UndoLog // settled groups' logs, reset, ready for reuse
	words  []storedWord  // a recorded group's stores (record.go)
}

var launchPool = sync.Pool{New: func() any { return new(launchScratch) }}

// log returns an empty undo log.
func (sc *launchScratch) log() *vm.UndoLog {
	if n := len(sc.logs); n > 0 {
		u := sc.logs[n-1]
		sc.logs = sc.logs[:n-1]
		return u
	}
	return &vm.UndoLog{}
}

// settled takes back the log of a group whose stores are final or undone.
func (sc *launchScratch) settled(u *vm.UndoLog) {
	if u != nil {
		u.Reset()
		sc.logs = append(sc.logs, u)
	}
}

// release returns the scratch to the pool. Groups still in flight (a launch
// that ended on an execution error) keep their stores; their logs are reset
// like any other, so nothing of this launch reaches the next one.
func (sc *launchScratch) release() {
	for i := range sc.fly {
		sc.settled(sc.fly[i].undo)
	}
	clear(sc.fly)
	sc.fly = sc.fly[:0]
	launchPool.Put(sc)
}

// runLaunch executes a kernel launch work-group by work-group, distributing
// groups across compute units greedily (lowest free time first), honouring
// FluidiCL's abort semantics:
//
//   - Before a work-group starts, the entry abort check consults the
//     CPU-completion status that has arrived by that virtual instant; a
//     completed group is skipped for SkipCost.
//   - With in-loop checks (Launch.MidAbort), a running work-group whose
//     flattened ID becomes CPU-complete mid-execution aborts AbortNotice
//     after the status lands, and its stores are rolled back (partial
//     writes are legal per the paper — the merge step overwrites them —
//     but rolling back keeps the simulated memory identical to a machine
//     where the aborted group never committed its tail writes).
//
// The executor reacts to status arrivals promptly by waiting on the abort
// query's Changed event rather than sleeping blindly.
func (d *Device) runLaunch(p *sim.Proc, l *Launch) {
	res := l.Result
	res.Started = true
	n := l.ND.LaunchGroups()
	if n == 0 {
		return
	}
	if l.Bind != nil {
		l.Args = l.Bind()
	}
	// A launch with no abort query may serve its in-range groups from a
	// sweep record (record.go); every other group executes, on the kernel's
	// built-in body where it has one (merge.go) and on the VM otherwise.
	var rec *LaunchRecord
	var lo, hi int
	if l.Replay != nil && l.Abort == nil {
		var ok bool
		if lo, hi, ok = l.Replay.Rec.admit(l, l.Replay.Shared); ok {
			rec = l.Replay.Rec
		}
	}
	p.Sleep(d.Cfg.KernelLaunchOverhead)

	// CPU work-group splitting (§6.3): with fewer groups than hardware
	// threads and a splittable kernel, each group's work-items spread over
	// the idle threads.
	split := 1
	slots := d.Cfg.ComputeUnits
	if l.Split && d.Cfg.Kind == CPU && n < d.Cfg.ComputeUnits &&
		!l.Kernel.HasBarrier && len(l.Kernel.LocalArrs) == 0 {
		split = d.Cfg.ComputeUnits / n
		if split < 1 {
			split = 1
		}
		slots = n
	}

	// GPU occupancy: each compute unit interleaves several resident
	// work-groups, each progressing at 1/occupancy rate. Aggregate
	// throughput is unchanged, but many more work-groups are in flight —
	// which is what makes in-loop abort checks (§6.4) worthwhile.
	occupancy := d.Cfg.Occupancy
	if occupancy < 1 {
		occupancy = 1
	}
	if d.Cfg.Kind == GPU && occupancy > 1 {
		// A launch with few work-groups does not fill the machine: only as
		// many work-groups share a compute unit as the launch provides.
		perCU := (n + d.Cfg.ComputeUnits - 1) / d.Cfg.ComputeUnits
		if perCU < occupancy {
			occupancy = perCU
		}
		if occupancy < 1 {
			occupancy = 1
		}
		slots = slots * occupancy
	} else {
		occupancy = 1
	}

	sc := launchPool.Get().(*launchScratch)
	defer sc.release()
	cuFree := sc.cuFree[:0]
	for i := 0; i < slots; i++ {
		cuFree = append(cuFree, p.Now())
	}
	sc.cuFree = cuFree
	next := 0

	settle := func() {
		now := p.Now()
		kept := 0 // survivors move down only once an entry before them settled
		for i := range sc.fly {
			f := &sc.fly[i]
			if l.Abort != nil && l.MidAbort {
				if u, ok := l.Abort.DoneSince(f.fgid, f.start); ok && u+d.Cfg.AbortNotice < f.end {
					// Aborted mid-flight: CU freed early, stores undone.
					if f.undo != nil {
						f.undo.Rollback()
						sc.settled(f.undo)
					}
					at := u + d.Cfg.AbortNotice
					if cuFree[f.cu] > at {
						cuFree[f.cu] = at
					}
					res.Aborted++
					if rec := d.Env.Trace; rec != nil {
						d.recordAbort(rec, f.fgid, at)
					}
					continue
				}
			}
			if f.end <= now {
				res.Stats.Add(f.stats)
				res.Executed++
				sc.settled(f.undo)
				continue
			}
			if kept != i {
				sc.fly[kept] = *f
			}
			kept++
		}
		clear(sc.fly[kept:]) // drop the settled tail's log pointers
		sc.fly = sc.fly[:kept]
	}

	for {
		settle()
		if next >= n && len(sc.fly) == 0 {
			return
		}
		// Earliest time anything changes without external input.
		now := p.Now()
		var target sim.Time = math.MaxFloat64
		if next < n {
			for _, t := range cuFree {
				if t < target {
					target = t
				}
			}
		} else {
			for i := range sc.fly {
				if f := &sc.fly[i]; f.end < target {
					target = f.end
				}
			}
		}
		if target > now {
			var changed *sim.Event
			if l.Abort != nil && l.MidAbort {
				changed = l.Abort.Changed()
			}
			if changed != nil {
				p.WaitUntil(changed, target)
			} else {
				p.Sleep(target - now)
			}
			continue
		}
		if next >= n {
			// Only waiting for in-flight groups; loop back to settle.
			continue
		}
		// A compute unit is free now: issue the next work-group on it.
		cu := 0
		for i, t := range cuFree {
			if t < cuFree[cu] {
				cu = i
			}
		}
		group := l.ND.GroupAt(next)
		fgid := l.ND.FlatGroupID(group)
		next++
		if l.Abort != nil && l.Abort.DoneAt(fgid, now) {
			cuFree[cu] = now + d.Cfg.SkipCost
			res.Skipped++
			continue
		}
		var undo *vm.UndoLog
		if l.Abort != nil && l.MidAbort {
			undo = sc.log()
		}
		// Arguments are validated per executed group, so a launch whose every
		// group is entry-skipped reports no error.
		var st vm.Stats
		var err error
		done := false
		if rec != nil && fgid >= lo && fgid <= hi {
			st, err = rec.serve(l, group, fgid, lo, sc)
			done = true
		} else if l.Native != nil && undo == nil {
			st, done = l.Native(l.ND, group, l.Args)
		}
		if !done {
			st, err = l.Kernel.ExecWorkGroup(l.ND, group, l.Args, vm.ExecOpts{Undo: undo})
		}
		if err != nil {
			sc.settled(undo)
			res.Err = err
			return
		}
		dur := float64(d.Cfg.WGTime(st, split) * float64(occupancy))
		sc.fly = append(sc.fly, inflightWG{
			fgid: fgid, cu: cu,
			start: now, end: now + dur,
			undo: undo, stats: st,
		})
		cuFree[cu] = now + dur
	}
}
