package harness

import (
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// executed is the process-wide count of work-groups the VM executed,
// whichever engine ran them.
func executed() int64 {
	c := vm.BackendSnapshot()
	return c.WGLoopWGs + c.InterpWGs
}

// TestRunnerSimulatesEachCellOnce: on one Runner every distinct simulation
// runs once, whichever experiments ask for it, and counts in the first
// table that ran it; a fresh Runner runs them all again.
func TestRunnerSimulatesEachCellOnce(t *testing.T) {
	r := quickRunner()
	benches := r.benchmarks()

	w0 := executed()
	fig13, err := r.Overall()
	if err != nil {
		t.Fatal(err)
	}
	runs13, wgs13 := fig13.Runs, executed()-w0
	if runs13 != int64(len(benches)) {
		t.Errorf("fig13 ran %d cooperative runs, want one per benchmark (%d)", runs13, len(benches))
	}
	// Per benchmark: the static splits 0, 10, ..., 100 (0 and 100 are the
	// CPU-only and GPU-only cells) and one FluidiCL run.
	if n := len(r.memo.cells); n != 12*len(benches) {
		t.Errorf("fig13 made %d memo entries, want %d", n, 12*len(benches))
	}

	// fig16's singles and dmda calibration are fig13's runs, and its FluidiCL
	// cells are fig13's. Its SOCL cells are not memoized, but they launch
	// the app's own kernels from the singles' bytes, so every group replays
	// from the benchmark's sweep record and none executes.
	w0 = executed()
	fig16, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if runs, wgs := fig16.Runs, executed()-w0; runs != 0 || wgs != 0 {
		t.Errorf("fig16 after fig13: %d cooperative runs and %d work-groups, want 0 and 0", runs, wgs)
	}

	// table3's plain CORR cells are fig13's; FCL+Pro runs CorrWithVariant,
	// which is never memoized, so it runs every time.
	for i := 0; i < 2; i++ {
		table3, err := r.Table3()
		if err != nil {
			t.Fatal(err)
		}
		if runs := table3.Runs; runs != 1 {
			t.Errorf("table3 #%d ran %d cooperative runs, want 1 (FCL+Pro)", i+1, runs)
		}
	}
	if n := len(r.memo.cells); n != 12*len(benches) {
		t.Errorf("fig16 and table3 grew the memo to %d entries, want %d", n, 12*len(benches))
	}

	fresh := quickRunner()
	w0 = executed()
	again, err := fresh.Overall()
	if err != nil {
		t.Fatal(err)
	}
	if runs, wgs := again.Runs, executed()-w0; runs != runs13 || wgs != wgs13 {
		t.Errorf("fig13 on a fresh Runner: %d runs, %d work-groups; want the first Runner's %d, %d", runs, wgs, runs13, wgs13)
	}
}

// TestRunnerBenchmarksMatchPolybench: the Runner's constructor cache builds
// polybench.All's sizes at full scale and AllQuick's at quick scale, and
// hands every experiment the same instance.
func TestRunnerBenchmarksMatchPolybench(t *testing.T) {
	for _, quick := range []bool{false, true} {
		r := NewRunner()
		r.Quick = quick
		want := polybench.All()
		if quick {
			want = polybench.AllQuick()[:6]
		}
		got := r.benchmarks()
		for i, b := range got {
			if b.Name != want[i].Name || b.InputDesc != want[i].InputDesc {
				t.Errorf("quick=%v: benchmark %d is %s %s, want %s %s", quick, i, b.Name, b.InputDesc, want[i].Name, want[i].InputDesc)
			}
			if again := r.benchmarks()[i]; again != b {
				t.Errorf("quick=%v: %s built twice", quick, b.Name)
			}
		}
	}
}

// TestRunnerMemoizesErrors: a benchmark whose kernel traps fails once; every
// later cell, concurrent ones included, gets that error without simulating.
func TestRunnerMemoizesErrors(t *testing.T) {
	const n = 64
	b := &polybench.Benchmark{Name: "TRAP", App: &sched.App{
		Name:     "trap",
		Source:   `__kernel void oob(__global float* a, int n) { a[get_global_id(0) + n] = 1.0f; }`,
		Buffers:  map[string]int{"a": 4 * n},
		Launches: []sched.Launch{{Kernel: "oob", ND: vm.NewNDRange1D(n, 16), Args: []sched.ArgSpec{sched.Buf("a"), sched.Int(n)}}},
		Outputs:  []string{"a"},
	}}
	r := quickRunner()
	r.Parallel = 2
	for _, gpuPct := range []int{0, 50} {
		_, first := r.static(r.M, b, gpuPct)
		if first == nil {
			t.Fatalf("%d%% GPU: trapping kernel returned no error", gpuPct)
		}
		w0 := executed()
		errs := make([]error, 2)
		if err := r.cells(2, func(i int) error {
			_, errs[i] = r.static(r.M, b, gpuPct)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != first {
				t.Errorf("%d%% GPU, cell %d: error %v, want the first run's %v", gpuPct, i, err, first)
			}
		}
		if wgs := executed() - w0; wgs != 0 {
			t.Errorf("%d%% GPU: a memoized failure executed %d work-groups", gpuPct, wgs)
		}
	}
}

// TestRunnerConcurrentExperiments: two experiments that share cells run at
// once on one Runner and render as they do one after the other, and each
// FluidiCL run counts in exactly one of the two tallies, whichever table
// claims it first: none twice, none dropped. Under the race detector (make
// race) this is the memo's concurrency check.
func TestRunnerConcurrentExperiments(t *testing.T) {
	ids := []string{"fig13", "fig16"}
	run := func(r *Runner, workers int) []*Table {
		tabs := make([]*Table, len(ids))
		if err := parallelFor(workers, len(ids), func(i int) (err error) {
			tabs[i], err = r.Run(ids[i])
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return tabs
	}
	seq := quickRunner()
	seq.Parallel = 1
	alone := run(seq, 1)
	r := quickRunner()
	r.Parallel = 4
	got := run(r, 2)
	for i, id := range ids {
		if g, w := got[i].String(), alone[i].String(); g != w {
			t.Errorf("%s run beside %s differs from %s alone:\n%s\n--- alone ---\n%s", id, ids[1-i], id, g, w)
		}
	}
	gc, gn := counted(got)
	wc, wn := counted(alone)
	if gc != wc || gn != wn {
		t.Errorf("concurrent tallies sum to %+v %v, one after the other to %+v %v", gc, gn, wc, wn)
	}
	if wn[0] != int64(len(seq.benchmarks())) {
		t.Errorf("fig13 then fig16 counted %d FluidiCL runs, want one per benchmark", wn[0])
	}
}

// counted sums the tallies of tabs: the counters, the runs and the
// summary's integer fields by kind (work-groups, bytes each way and
// refreshed).
func counted(tabs []*Table) (core.Counters, [6]int64) {
	var c core.Counters
	var n [6]int64
	for _, tab := range tabs {
		c = c.Add(tab.Counters)
		cpu, gpu := tab.Summary.ByKind("CPU"), tab.Summary.ByKind("GPU")
		for i, v := range []int64{tab.Runs, cpu.WGs, gpu.WGs, cpu.BytesH2D + gpu.BytesH2D, cpu.BytesD2H + gpu.BytesD2H, cpu.BytesRefresh + gpu.BytesRefresh} {
			n[i] += v
		}
	}
	return c, n
}
