package device

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// TestLaunchBackendParityUnderAborts runs the same mid-abort launch on the
// interpreter and the lockstep engine and requires
// identical virtual times, counters, Stats and memory — with entry skips,
// mid-flight aborts and rollbacks all landing mid-launch. Every skipped or
// aborted group's words must equal the pre-launch inputs.
func TestLaunchBackendParityUnderAborts(t *testing.T) {
	k := vm.MustCompile(`
__kernel void work(__global float* a, __global float* b, int m) {
    int i = get_global_id(0);
    float s = b[i];
    for (int j = 0; j < m; j++) { s += 1.0f; }
    a[i] = s + 1.0f;
    b[i] = a[i] * 0.5f;
}
`, "work")
	cfg := TeslaC2070()
	cfg.ComputeUnits = 2
	cfg.Occupancy = 2
	const groups, local = 16, 32
	const n = groups * local

	mkBufs := func() ([]byte, []byte) {
		a := make([]byte, 4*n)
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(i)) // denormal-ish noise is fine
		}
		return a, b
	}
	a0, b0 := mkBufs()

	// Probe the abort-free launch duration to place status updates mid-run.
	var total sim.Time
	{
		env := sim.NewEnv()
		d := New(env, cfg)
		q := d.NewQueue("app")
		a, b := mkBufs()
		l := &Launch{Kernel: k, ND: vm.NewNDRange1D(n, local),
			Args: []vm.Arg{vm.BufArg(a), vm.BufArg(b), vm.IntArg(2000)}}
		q.Enqueue(l)
		env.Go("host", func(p *sim.Proc) { p.Wait(l.Done); total = p.Now() })
		env.Run()
		if l.Result.Err != nil {
			t.Fatal(l.Result.Err)
		}
	}

	run := func(be vm.Backend) (*LaunchResult, []byte, []byte, sim.Time) {
		env := sim.NewEnv()
		d := New(env, cfg)
		q := d.NewQueue("app")
		a, b := mkBufs()
		// Two updates land mid-launch, completing groups from the top down —
		// some in-flight groups abort and roll back, later ones entry-skip.
		fa := &fakeAbort{env: env,
			times:    []sim.Time{0.3 * total, 0.6 * total},
			doneFrom: []int{12, 6},
		}
		l := &Launch{Kernel: k, ND: vm.NewNDRange1D(n, local),
			Args:     []vm.Arg{vm.BufArg(a), vm.BufArg(b), vm.IntArg(2000)},
			Abort:    fa,
			MidAbort: true,
			Backend:  be,
		}
		q.Enqueue(l)
		var end sim.Time
		env.Go("host", func(p *sim.Proc) { p.Wait(l.Done); end = p.Now() })
		env.Run()
		if l.Result.Err != nil {
			t.Fatalf("%v: %v", be, l.Result.Err)
		}
		return l.Result, a, b, end
	}

	refRes, refA, refB, refEnd := run(vm.BackendInterp)
	if refRes.Aborted == 0 || refRes.Skipped == 0 {
		t.Fatalf("test schedule produced %d aborts and %d skips; timings need adjusting", refRes.Aborted, refRes.Skipped)
	}
	// A group either ran to completion (every a word written, none is zero)
	// or left no trace: skipped at entry, or aborted and rolled back.
	untouched := 0
	for g := 0; g < groups; g++ {
		lo, hi := 4*g*local, 4*(g+1)*local
		if bytes.Equal(refA[lo:hi], a0[lo:hi]) && bytes.Equal(refB[lo:hi], b0[lo:hi]) {
			untouched++
			continue
		}
		for i := lo; i < hi; i += 4 {
			if binary.LittleEndian.Uint32(refA[i:]) == 0 || bytes.Equal(refB[i:i+4], b0[i:i+4]) {
				t.Fatalf("group %d is partly applied: word %d kept its pre-launch value", g, i/4)
			}
		}
	}
	if untouched != refRes.Skipped+refRes.Aborted {
		t.Fatalf("%d groups hold their pre-launch words, want skipped+aborted = %d+%d",
			untouched, refRes.Skipped, refRes.Aborted)
	}

	lockstep := vm.BackendSnapshot().WGLoopWGs
	res, a, b, end := run(vm.BackendWG)
	if vm.BackendSnapshot().WGLoopWGs == lockstep {
		t.Error("wg: the lockstep engine never ran (every group fell back)")
	}
	if end != refEnd {
		t.Errorf("wg: virtual completion time %v, interp %v", end, refEnd)
	}
	if res.Executed != refRes.Executed || res.Skipped != refRes.Skipped || res.Aborted != refRes.Aborted {
		t.Errorf("wg: exec/skip/abort = %d/%d/%d, interp %d/%d/%d",
			res.Executed, res.Skipped, res.Aborted, refRes.Executed, refRes.Skipped, refRes.Aborted)
	}
	if res.Stats != refRes.Stats {
		t.Errorf("stats differ:\ninterp=%+v\nwg=%+v", refRes.Stats, res.Stats)
	}
	if !bytes.Equal(a, refA) || !bytes.Equal(b, refB) {
		t.Error("wg: buffers differ from the interpreter's")
	}
}

// TestLaunchScratchRecycled runs mid-abort launches of different kernels on
// different buffers back to back, each on a fresh Device, so that the later
// ones execute on the pooled fly list and undo logs the earlier ones
// returned. Recycled storage must behave like new: aborted groups' words
// equal the pre-launch inputs, a rollback touches only its own launch's
// buffers, a pooled scratch holds no group, no record and no reference to a
// buffer, and a launch that ends on an execution error with groups in
// flight returns everything it took.
func TestLaunchScratchRecycled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // sync.Pool is per-P: keep Put and Get on one
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // and the collector from emptying it
	cfg := TeslaC2070()
	cfg.ComputeUnits = 2
	cfg.Occupancy = 2

	type shape struct {
		k             *vm.Kernel
		groups, local int
	}
	work := shape{vm.MustCompile(`
__kernel void work(__global float* a, __global float* b, int m) {
    int i = get_global_id(0);
    float s = b[i];
    for (int j = 0; j < m; j++) { s += 1.0f; }
    a[i] = s + 1.0f;
    b[i] = a[i] * 0.5f;
}`, "work"), 16, 32}
	other := shape{vm.MustCompile(`
__kernel void other(__global float* c, __global float* d, int m) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < m; j++) { s += d[i]; }
    d[i] = s + 3.0f;
    c[i] = d[i];
}`, "other"), 12, 16}
	// faulty stores out of bounds from group 6 on, after six good groups.
	faulty := shape{vm.MustCompile(`
__kernel void faulty(__global float* a, __global float* b, int m) {
    int i = get_global_id(0);
    b[i] = 2.0f;
    if (i >= 96) { a[i + 100000] = 1.0f; }
    a[i] = 1.0f;
}`, "faulty"), 16, 16}

	inputs := func(s shape) (a, b []byte) {
		n := s.groups * s.local
		a, b = make([]byte, 4*n), make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(a[4*i:], uint32(7*i+1))
			binary.LittleEndian.PutUint32(b[4*i:], uint32(i+1))
		}
		return a, b
	}
	// launch runs s on a fresh device; with aborts, two status updates land
	// mid-launch as in the parity test (total is the abort-free duration).
	launch := func(s shape, a, b []byte, aborts bool, total sim.Time) (*LaunchResult, sim.Time) {
		env := sim.NewEnv()
		q := New(env, cfg).NewQueue("app")
		l := &Launch{Kernel: s.k, ND: vm.NewNDRange1D(s.groups*s.local, s.local),
			Args: []vm.Arg{vm.BufArg(a), vm.BufArg(b), vm.IntArg(2000)}, MidAbort: true}
		if aborts {
			l.Abort = &fakeAbort{env: env, times: []sim.Time{0.3 * total, 0.6 * total},
				doneFrom: []int{3 * s.groups / 4, 3 * s.groups / 8}}
		} else {
			l.Abort = &fakeAbort{env: env} // logs taken, nothing ever aborts
		}
		q.Enqueue(l)
		var end sim.Time
		env.Go("host", func(p *sim.Proc) { p.Wait(l.Done); end = p.Now() })
		env.Run()
		return l.Result, end
	}
	// abortRun launches s with aborts on fresh inputs and checks that every
	// group is either fully applied or holds its pre-launch words.
	abortRun := func(s shape) (a, b []byte) {
		t.Helper()
		a, b = inputs(s)
		_, total := launch(s, a, b, false, 0)
		a0, b0 := inputs(s)
		a, b = inputs(s)
		res, _ := launch(s, a, b, true, total)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Aborted == 0 || res.Skipped == 0 {
			t.Fatalf("%s: %d aborts and %d skips; timings need adjusting", s.k.Name, res.Aborted, res.Skipped)
		}
		untouched := 0
		for g := 0; g < s.groups; g++ {
			lo, hi := 4*g*s.local, 4*(g+1)*s.local
			if bytes.Equal(a[lo:hi], a0[lo:hi]) && bytes.Equal(b[lo:hi], b0[lo:hi]) {
				untouched++
				continue
			}
			for i := lo; i < hi; i += 4 {
				if bytes.Equal(a[i:i+4], a0[i:i+4]) || bytes.Equal(b[i:i+4], b0[i:i+4]) {
					t.Fatalf("%s: group %d is partly applied: word %d kept its pre-launch value", s.k.Name, g, i/4)
				}
			}
		}
		if untouched != res.Skipped+res.Aborted {
			t.Fatalf("%s: %d groups hold their pre-launch words, want skipped+aborted = %d+%d",
				s.k.Name, untouched, res.Skipped, res.Aborted)
		}
		return a, b
	}
	// drain empties the pool and returns the used scratches it held.
	drain := func() (used []*launchScratch) {
		for {
			sc := launchPool.Get().(*launchScratch)
			if cap(sc.fly) == 0 {
				return used
			}
			used = append(used, sc)
		}
	}
	clean := func(what string, sc *launchScratch) {
		t.Helper()
		if len(sc.fly) != 0 {
			t.Errorf("%s: pooled scratch lists %d groups in flight", what, len(sc.fly))
		}
		for _, f := range sc.fly[:cap(sc.fly)] {
			if f.undo != nil {
				t.Errorf("%s: pooled fly storage still points at an undo log", what)
			}
		}
		if len(sc.logs) == 0 {
			t.Errorf("%s: pooled scratch kept no undo log", what)
		}
		for _, u := range sc.logs {
			if _, recs := u.Stores(); len(recs) != 0 {
				t.Errorf("%s: pooled undo log holds %d records", what, len(recs))
			}
		}
	}
	// onRecycled runs f with sc (and only sc) in the pool until f's launches
	// provably took it and gave it back. The race detector makes sync.Pool
	// drop a quarter of all Puts, hence the retries.
	onRecycled := func(what string, sc *launchScratch, f func()) {
		t.Helper()
		for try := 0; try < 20; try++ {
			drain()
			launchPool.Put(sc)
			f()
			if got := drain(); len(got) == 1 && got[0] == sc {
				clean(what, sc)
				return
			}
		}
		t.Fatalf("%s: never ran on the recycled scratch", what)
	}

	var sc *launchScratch
	var a1, b1 []byte
	for try := 0; sc == nil && try < 20; try++ {
		drain()
		a1, b1 = abortRun(work)
		if got := drain(); len(got) == 1 {
			sc = got[0]
		}
	}
	if sc == nil {
		t.Fatal("a finished launch never returned its scratch to the pool")
	}
	clean("first launch", sc)

	// A different kernel on different buffers, on the first launch's storage:
	// its rollbacks must not reach the first launch's buffers.
	a1After, b1After := bytes.Clone(a1), bytes.Clone(b1)
	freed := make(chan struct{})
	onRecycled("second launch", sc, func() {
		_, d := abortRun(other)
		freed = make(chan struct{})
		done := freed
		runtime.SetFinalizer(&d[0], func(*byte) { close(done) })
	})
	if !bytes.Equal(a1, a1After) || !bytes.Equal(b1, b1After) {
		t.Error("the second launch's rollbacks wrote into the first launch's buffers")
	}
	// The scratch is still held here, the second launch's buffers are not:
	// Reset must have dropped the logs' references to them.
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Error("a recycled undo log still references the previous launch's buffers")
	}

	// An execution error with groups in flight: their stores stay, their
	// logs come back empty with the scratch.
	onRecycled("faulting launch", sc, func() {
		a, b := inputs(faulty)
		res, _ := launch(faulty, a, b, false, 0)
		if res.Err == nil {
			t.Fatal("the out-of-bounds store did not fail the launch")
		}
		for i := 0; i < 4*6*faulty.local; i += 4 {
			if binary.LittleEndian.Uint32(a[i:]) != math.Float32bits(1) {
				t.Fatalf("word %d of a group that ran before the fault lost its store", i/4)
			}
		}
	})
	onRecycled("launch after the fault", sc, func() { abortRun(work) })
}
