package device_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
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

// sweepSplits are the static splits a record serves: 0 % and 100 % are
// single-device runs, which never use it.
var sweepSplits = []int{10, 20, 30, 40, 50, 60, 70, 80, 90}

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

// sweepParity runs app at each split in order on one shared record and
// compares every run with a fresh RunStatic of the same split.
func sweepParity(t *testing.T, app *sched.App, splits []int) {
	t.Helper()
	m := sched.DefaultMachine()
	sw := sched.NewSweep(app)
	for _, pct := range splits {
		want, err := sched.RunStatic(m, app, pct)
		if err != nil {
			t.Fatalf("%s at %d%%: %v", app.Name, pct, err)
		}
		got, err := sw.RunStatic(m, pct)
		if err != nil {
			t.Fatalf("%s at %d%% on the record: %v", app.Name, pct, err)
		}
		if d := sameRun(got, want); d != "" {
			t.Errorf("%s at %d%% on the record: %s", app.Name, pct, d)
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
// record, gives each split exactly the run a fresh RunStatic gives, and
// executes each in-range group once. Checked, every replay executes as well
// and must store the recorded words and produce the recorded Stats.
func TestSweepParity(t *testing.T) {
	down := make([]int, len(sweepSplits))
	for i, pct := range sweepSplits {
		down[len(down)-1-i] = pct
	}
	for _, check := range []bool{false, true} {
		for _, b := range polybench.AllQuick() {
			tally := device.WatchSweeps(t, check)
			sweepParity(t, b.App, sweepSplits)
			if got, want := tally.Recorded.Load(), inRangeGroups(b.App); got != want {
				t.Errorf("%s: %d in-range groups executed over the sweep, want each of %d once", b.Name, got, want)
			}
			if check && tally.Checked.Load() == 0 {
				t.Errorf("%s: checked sweep checked no replay", b.Name)
			}
			sweepParity(t, b.App, down)
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
		}, []int{10, 50})
		// 10 %: every group records, group 0 on the GPU side and 1..15 on
		// the CPU side, which begins at group 1. 50 %: only group 0 finds the groups
		// that ran before it unchanged; the other 15 execute.
		if got := tally.Recorded.Load(); got != 16+15 {
			t.Errorf("%d groups executed, want 16 at 10%% and all but group 0 at 50%%", got)
		}
	})

	t.Run("launch-start bytes differ", func(t *testing.T) {
		sweepParity(t, mirror, []int{10, 50, 90, 30})
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
		}, append([]int{40}, sweepSplits...))
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
		}, []int{90, 20})
	})

	t.Run("group traps while recorded", func(t *testing.T) {
		app := &sched.App{
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
		_, want := sched.RunStatic(m, app, 50)
		if want == nil {
			t.Fatal("group 5 stores out of bounds, yet the run succeeded")
		}
		sw := sched.NewSweep(app)
		for run := 0; run < 2; run++ {
			// The second run finds group 5 unrecorded and traps again.
			if _, err := sw.RunStatic(m, 50); err == nil || err.Error() != want.Error() {
				t.Fatalf("run %d on the record: error %v, want %v", run, err, want)
			}
		}
	})
}

// TestSweepExecutesEachGroupOnce pins the record's win: one quick Runner
// running fig13 sweeps nine static splits of six benchmarks, yet executes
// each in-range group of every launch once, 296 in all.
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
		want += inRangeGroups(b.App)
	}
	if got := tally.Recorded.Load(); got != want || want != 296 {
		t.Errorf("fig13 executed %d in-range static-split groups, want each of %d once (296)", got, want)
	}
}
