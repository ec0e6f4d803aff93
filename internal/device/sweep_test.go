package device_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/harness"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// The sweep record's tests drive it the way its one user does, through
// sched's static splits; they live here because the hooks they read
// (export_test.go) are the device package's.

// sweepSplits are the static splits a record serves: 0 % and 100 % are the
// single-device runs, which launch the app's own kernels on the plain
// records.
var sweepSplits = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// sweepRun is one run a sweep serves: run makes it on sw, or afresh when
// sw is nil.
type sweepRun struct {
	name string
	run  func(m sched.Machine, app *sched.App, sw *sched.Sweep) (*sched.Result, error)
}

// splits are the static splits at pcts.
func splits(pcts ...int) []sweepRun {
	var runs []sweepRun
	for _, pct := range pcts {
		runs = append(runs, sweepRun{fmt.Sprintf("%d%%", pct), func(m sched.Machine, app *sched.App, sw *sched.Sweep) (*sched.Result, error) {
			if sw == nil {
				return sched.RunStatic(m, app, pct)
			}
			return sw.RunStatic(m, pct)
		}})
	}
	return runs
}

// socl is SOCL under policy; dmda calibrates on single-device runs of its
// own.
func socl(policy sched.Policy) sweepRun {
	return sweepRun{"SOCL " + policy.String(), func(m sched.Machine, app *sched.App, sw *sched.Sweep) (*sched.Result, error) {
		var model sched.DmdaModel
		if policy == sched.Dmda {
			var err error
			if model, err = sched.CalibrateDmda(m, app); err != nil {
				return nil, err
			}
		}
		if sw == nil {
			return sched.RunSocl(m, app, policy, model)
		}
		return sw.RunSocl(m, policy, model)
	}}
}

// sweepRuns are every run a sweep serves: the static splits, CPU-only and
// GPU-only among them, and SOCL under both policies. plainRuns are those
// that launch the app's own kernels.
var (
	sweepRuns = append(splits(sweepSplits...), socl(sched.Eager), socl(sched.Dmda))
	plainRuns = append(splits(0, 100), socl(sched.Eager), socl(sched.Dmda))
)

// sameRun reports how two runs of one split differ, or "" if they do not.
func sameRun(got, want *sched.Result) string {
	switch {
	case got.Time != want.Time:
		return fmt.Sprintf("time %v, want %v", got.Time, want.Time)
	case !reflect.DeepEqual(got.LaunchTimes, want.LaunchTimes):
		return "launch times differ"
	case !reflect.DeepEqual(got.Summary, want.Summary):
		return fmt.Sprintf("summary %+v, want %+v", got.Summary, want.Summary)
	case len(got.Outputs) != len(want.Outputs):
		return "output sets differ"
	}
	for name, w := range want.Outputs {
		if !bytes.Equal(got.Outputs[name], w) {
			return "output " + name + " differs"
		}
	}
	return ""
}

// sweepParity makes each run of app in order on one shared record and
// compares it with the same run made afresh.
func sweepParity(t *testing.T, app *sched.App, runs []sweepRun) {
	t.Helper()
	onSweep(t, sched.NewSweep(app), app, runs)
}

// onSweep is sweepParity on sw, a record of app.
func onSweep(t *testing.T, sw *sched.Sweep, app *sched.App, runs []sweepRun) {
	t.Helper()
	m := sched.DefaultMachine()
	for _, r := range runs {
		want, err := r.run(m, app, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", app.Name, r.name, err)
		}
		got, err := r.run(m, app, sw)
		if err != nil {
			t.Fatalf("%s %s on the record: %v", app.Name, r.name, err)
		}
		if d := sameRun(got, want); d != "" {
			t.Errorf("%s %s on the record: %s", app.Name, r.name, d)
		}
	}
}

// inRangeGroups is how many in-range groups one static split of app runs:
// every group of every launch, on one side or the other.
func inRangeGroups(app *sched.App) int64 {
	n := 0
	for _, l := range app.Launches {
		n += l.ND.TotalGroups()
	}
	return int64(n)
}

// TestSweepParity: every quick benchmark, swept upward and downward on one
// record, gives each run exactly what the same run gives afresh, and
// executes each in-range group of the guarded kernels once and each group of
// the plain kernels once. Checked, every replay executes as well and must
// store the recorded words and produce the recorded Stats.
func TestSweepParity(t *testing.T) {
	down := slices.Clone(sweepRuns)
	slices.Reverse(down)
	for _, check := range []bool{false, true} {
		for _, b := range polybench.AllQuick() {
			groups := inRangeGroups(b.App)
			// The unguarded runs alone: CPU-only executes every group, and
			// GPU-only and SOCL under both policies replay every one.
			tally := device.WatchSweeps(t, check)
			sweepParity(t, b.App, plainRuns)
			if got := tally.Recorded.Load(); got != groups {
				t.Errorf("%s: %d groups executed over the unguarded runs, want each of %d once", b.Name, got, groups)
			}
			if got := tally.Checked.Load(); check && got != 3*groups {
				t.Errorf("%s: the checked unguarded runs checked %d replays, want %d", b.Name, got, 3*groups)
			}
			tally = device.WatchSweeps(t, check)
			sweepParity(t, b.App, sweepRuns)
			if got, want := tally.Recorded.Load(), 2*groups; got != want {
				t.Errorf("%s: %d groups executed over the sweep, want each of %d once per kernel form", b.Name, got, groups)
			}
			if check && tally.Checked.Load() == 0 {
				t.Errorf("%s: checked sweep checked no replay", b.Name)
			}
			sweepParity(t, b.App, down)
		}
	}
}

// TestSweepConcurrentRunsExecuteOnce: runs that share a record at once
// still execute each group once between them. A run that wants a group
// another run is recording waits for the record and replays it.
func TestSweepConcurrentRunsExecuteOnce(t *testing.T) {
	m := sched.DefaultMachine()
	runs := append(splits(0, 100, 50, 60), socl(sched.Eager))
	for _, b := range polybench.AllQuick() {
		tally := device.WatchSweeps(t, false)
		sw := sched.NewSweep(b.App)
		errs := make(chan error, len(runs))
		for _, r := range runs {
			go func() {
				_, err := r.run(m, b.App, sw)
				errs <- err
			}()
		}
		for range runs {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if got, want := tally.Recorded.Load(), 2*inRangeGroups(b.App); got != want {
			t.Errorf("%s: %d groups executed by concurrent runs, want each of %d once per kernel form", b.Name, got, want/2)
		}
	}
}

// f32s encodes vals as a buffer.
func f32s(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// ramp returns n distinct floats.
func ramp(n int) []byte {
	v := make([]float32, n)
	for i := range v {
		v[i] = 0.25 + float32(i%61)/8
	}
	return f32s(v)
}

// TestSweepAdversaries: launches a record must refuse, or serve only in
// part, give the fresh runs' results all the same.
func TestSweepAdversaries(t *testing.T) {
	const n, local = 256, 16 // 16 groups
	one := func(kernel string, args ...sched.ArgSpec) sched.Launch {
		return sched.Launch{Kernel: kernel, ND: vm.NewNDRange1D(n, local), Args: args}
	}

	// mirror updates x in place from the word at the other end, which
	// another group updates: no cross-group certificate, and the result
	// depends on which groups ran before which. twice reads that result, so
	// its launch-start bytes differ between splits.
	mirror := &sched.App{
		Name: "mirror",
		Source: `
__kernel void mirror(__global float* x, int n) {
    int i = get_global_id(0);
    x[i] = x[i] + 0.5f * x[n - 1 - i];
}
__kernel void twice(__global float* x, __global float* y) {
    int i = get_global_id(0);
    y[i] = 2.0f * x[i];
}
`,
		Buffers:  map[string]int{"x": 4 * n, "y": 4 * n},
		Inputs:   map[string][]byte{"x": ramp(n)},
		Launches: []sched.Launch{one("mirror", sched.Buf("x"), sched.Int(n)), one("twice", sched.Buf("x"), sched.Buf("y"))},
		Outputs:  []string{"x", "y"},
	}

	t.Run("cross-group in place", func(t *testing.T) {
		tally := device.WatchSweeps(t, false)
		sweepParity(t, &sched.App{
			Name: "mirror", Source: mirror.Source, Buffers: mirror.Buffers, Inputs: mirror.Inputs,
			Launches: mirror.Launches[:1], Outputs: []string{"x"},
		}, splits(10, 50))
		// 10 %: every group records, group 0 on the GPU side and 1..15 on
		// the CPU side, which begins at group 1. 50 %: only group 0 finds the groups
		// that ran before it unchanged; the other 15 execute.
		if got := tally.Recorded.Load(); got != 16+15 {
			t.Errorf("%d groups executed, want 16 at 10%% and all but group 0 at 50%%", got)
		}
	})

	t.Run("launch-start bytes differ", func(t *testing.T) {
		sweepParity(t, mirror, splits(10, 50, 90, 30))
	})

	t.Run("2-D slices round out to whole rows", func(t *testing.T) {
		// 4 x 4 groups: a split that cuts a row rounds its GPU slice out to
		// the row's end and its CPU slice back to the row's start (40 %: g = 6,
		// so groups 6 and 7 run the guard alone on the GPU, 4 and 5 on the
		// CPU). Those groups store nothing there, and a record of them would
		// replay as a group that stores nothing where it is in range.
		const side, tile = 32, 8
		sweepParity(t, &sched.App{
			Name: "bump2d",
			Source: `
__kernel void bump(__global float* a, int w) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    a[y * w + x] = a[y * w + x] * 0.5f + (float)(x + 3 * y);
}
`,
			Buffers:  map[string]int{"a": 4 * side * side},
			Inputs:   map[string][]byte{"a": ramp(side * side)},
			Launches: []sched.Launch{{Kernel: "bump", ND: vm.NewNDRange2D(side, side, tile, tile), Args: []sched.ArgSpec{sched.Buf("a"), sched.Int(side)}}},
			Outputs:  []string{"a"},
		}, splits(append([]int{40}, sweepSplits...)...))
	})

	t.Run("groups overwrite each other's words", func(t *testing.T) {
		// Groups 2j and 2j+1 both store s[j], and the later one's value
		// stands. s[j] starts at 2j+1, so where group 2j is the GPU side's
		// last (20 %: g = 3), the CPU side's store changes nothing, the
		// merge keeps the GPU's, and a record of s[j] taken after the
		// launch rather than after group 2j (90 % first) would show.
		s := make([]float32, n)
		for j := range s {
			s[j] = float32(2*j + 1)
		}
		sweepParity(t, &sched.App{
			Name: "pairs",
			Source: `
__kernel void pairs(__global float* s) {
    if (get_local_id(0) == 0) {
        s[get_group_id(0) / 2] = (float)get_group_id(0);
    }
}
`,
			Buffers:  map[string]int{"s": 4 * n},
			Inputs:   map[string][]byte{"s": f32s(s)},
			Launches: []sched.Launch{one("pairs", sched.Buf("s"))},
			Outputs:  []string{"s"},
		}, splits(90, 20))
	})

	// trap's group 5 stores out of bounds; the groups before it update x in
	// place.
	trap := &sched.App{
		Name: "trap",
		Source: `
__kernel void trap(__global float* x, int n) {
    int i = get_global_id(0);
    if (get_group_id(0) == 5) {
        x[i + n] = 1.0f;
    } else {
        x[i] = x[i] + 1.0f;
    }
}
`,
		Buffers:  map[string]int{"x": 4 * n},
		Inputs:   map[string][]byte{"x": ramp(n)},
		Launches: []sched.Launch{one("trap", sched.Buf("x"), sched.Int(n))},
		Outputs:  []string{"x"},
	}
	m := sched.DefaultMachine()

	t.Run("group traps while recorded", func(t *testing.T) {
		_, want := sched.RunStatic(m, trap, 50)
		if want == nil {
			t.Fatal("group 5 stores out of bounds, yet the run succeeded")
		}
		sw := sched.NewSweep(trap)
		for run := 0; run < 2; run++ {
			// The second run finds group 5 unrecorded and traps again.
			if _, err := sw.RunStatic(m, 50); err == nil || err.Error() != want.Error() {
				t.Fatalf("run %d on the record: error %v, want %v", run, err, want)
			}
		}
	})

	// Unguarded rows: CPU-only, GPU-only and SOCL launch the app's own
	// kernels over the whole grid on the plain records. In each, a replay
	// would be wrong somewhere, and there the group must execute.
	t.Run("unguarded: SOCL from other launch-start bytes", func(t *testing.T) {
		app := *mirror
		app.Inputs = map[string][]byte{"x": ramp(n)}
		sw := sched.NewSweep(&app)
		tally := device.WatchSweeps(t, false)
		onSweep(t, sw, &app, splits(0, 100))
		if got := tally.Recorded.Load(); got != 2*16 {
			t.Fatalf("the singles executed %d groups, want each of mirror's and twice's 16 once", got)
		}
		// SOCL starts from other bytes: no group of either launch may replay
		// the singles' words.
		shifted := make([]float32, n)
		for i := range shifted {
			shifted[i] = float32(i) - 7
		}
		app.Inputs = map[string][]byte{"x": f32s(shifted)}
		for _, p := range []sched.Policy{sched.Eager, sched.Dmda} {
			model, err := sched.CalibrateDmda(m, &app)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sched.RunSocl(m, &app, p, model)
			if err != nil {
				t.Fatal(err)
			}
			before := vmGroups()
			got, err := sw.RunSocl(m, p, model)
			if err != nil {
				t.Fatal(err)
			}
			if n := vmGroups() - before; n != 2*16 {
				t.Errorf("SOCL %v from other bytes executed %d groups, want all 32", p, n)
			}
			if d := sameRun(got, want); d != "" {
				t.Errorf("SOCL %v from other bytes on the record: %s", p, d)
			}
		}
	})

	t.Run("unguarded: in-place cross-group kernel launched twice", func(t *testing.T) {
		// The second launch starts from the first's output, so it executes
		// under its own record rather than replaying the first's; later runs
		// replay both, each group after the same groups as when it was
		// recorded.
		tally := device.WatchSweeps(t, true)
		sweepParity(t, &sched.App{
			Name: "mirror2", Source: mirror.Source, Buffers: mirror.Buffers, Inputs: mirror.Inputs,
			Launches: []sched.Launch{mirror.Launches[0], mirror.Launches[0]}, Outputs: []string{"x"},
		}, plainRuns)
		if got := tally.Recorded.Load(); got != 2*16 {
			t.Errorf("%d groups executed, want each of both launches' 16 once", got)
		}
		if got := tally.Checked.Load(); got != 3*2*16 {
			t.Errorf("%d replays checked, want GPU-only's and both SOCL runs' 32 each", got)
		}
	})

	t.Run("unguarded: trap mid-launch", func(t *testing.T) {
		// Groups 0-4 record once and replay after; group 5 executes and traps
		// in every run, and is never recorded.
		tally := device.WatchSweeps(t, false)
		sw := sched.NewSweep(trap)
		for _, r := range plainRuns {
			_, want := r.run(m, trap, nil)
			if _, err := r.run(m, trap, sw); want == nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("%s on the record: error %v, want %v", r.name, err, want)
			}
		}
		if got := tally.Recorded.Load(); got != 5 {
			t.Errorf("%d groups recorded, want groups 0-4 once", got)
		}
	})
}

// vmGroups is the process-wide count of work-groups the VM executed.
func vmGroups() int64 {
	c := vm.BackendSnapshot()
	return c.WGLoopWGs + c.InterpWGs
}

// TestSweepExecutesEachGroupOnce pins the record's win: one quick Runner
// running fig13 sweeps eleven static splits of six benchmarks, CPU-only and
// GPU-only among them, yet executes each in-range group of every guarded
// launch once and each group of every plain launch once, 592 in all.
func TestSweepExecutesEachGroupOnce(t *testing.T) {
	tally := device.WatchSweeps(t, false)
	r := harness.NewRunner()
	r.Quick = true
	r.Parallel = 1
	if _, err := r.Run("fig13"); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, b := range polybench.AllQuick()[:6] {
		want += 2 * inRangeGroups(b.App)
	}
	if got := tally.Recorded.Load(); got != want || want != 592 {
		t.Errorf("fig13 executed %d recorded groups, want each of %d once per kernel form (592)", got, want)
	}
}
