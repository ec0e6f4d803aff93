package sched

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// testApp builds a small two-kernel app: b = 2a, then c = b + 1.
func testApp(n int) *App {
	a := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(a[4*i:], math.Float32bits(float32(i)))
	}
	nd := vm.NewNDRange1D(n, 16)
	return &App{
		Name: "chain",
		Source: `
__kernel void dbl(__global float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) { b[i] = a[i] * 2.0f; }
}
__kernel void inc(__global float* b, __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = b[i] + 1.0f; }
}
`,
		Buffers: map[string]int{"a": 4 * n, "b": 4 * n, "c": 4 * n},
		Inputs:  map[string][]byte{"a": a},
		Launches: []Launch{
			{Kernel: "dbl", ND: nd, Args: []ArgSpec{Buf("a"), Buf("b"), Int(int64(n))}},
			{Kernel: "inc", ND: nd, Args: []ArgSpec{Buf("b"), Buf("c"), Int(int64(n))}},
		},
		Outputs: []string{"c"},
	}
}

func checkChain(t *testing.T, res *Result, n int, label string) {
	t.Helper()
	c, ok := res.Outputs["c"]
	if !ok {
		t.Fatalf("%s: no output c", label)
	}
	for i := 0; i < n; i++ {
		want := float32(i)*2 + 1
		got := math.Float32frombits(binary.LittleEndian.Uint32(c[4*i:]))
		if got != want {
			t.Fatalf("%s: c[%d] = %v, want %v", label, i, got, want)
		}
	}
	if res.Time <= 0 {
		t.Fatalf("%s: no virtual time elapsed", label)
	}
}

func TestRunSingleBothDevices(t *testing.T) {
	n := 128
	m := DefaultMachine()
	for _, cfg := range []device.Config{m.CPU, m.GPU} {
		res, err := RunSingle(cfg, testApp(n))
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, res, n, cfg.Name)
		if len(res.LaunchTimes) != 2 {
			t.Fatalf("LaunchTimes = %v, want 2 entries", res.LaunchTimes)
		}
	}
}

func TestRunStaticSweepCorrect(t *testing.T) {
	n := 128
	m := DefaultMachine()
	for pct := 0; pct <= 100; pct += 25 {
		res, err := RunStatic(m, testApp(n), pct)
		if err != nil {
			t.Fatalf("pct %d: %v", pct, err)
		}
		checkChain(t, res, n, "static")
	}
}

func TestRunOraclePicksMinimum(t *testing.T) {
	n := 128
	m := DefaultMachine()
	or, err := RunOracle(m, testApp(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(or.Curve) != 11 {
		t.Fatalf("curve has %d points, want 11", len(or.Curve))
	}
	for pct, tm := range or.Curve {
		if tm < or.Best.Time {
			t.Fatalf("curve[%d] = %v below reported best %v", pct, tm, or.Best.Time)
		}
	}
	if or.Curve[or.BestPct] != or.Best.Time {
		t.Fatal("BestPct does not match Best")
	}
	checkChain(t, or.Best, n, "oracle")
}

func TestRunFluidiCLWrapper(t *testing.T) {
	n := 128
	res, err := RunFluidiCL(DefaultMachine(), testApp(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, res, n, "fluidicl")
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(res.Reports))
	}
}

func TestRunFluidiCLRepeatMeasuresLastRun(t *testing.T) {
	n := 128
	app := testApp(n)
	once, err := RunFluidiCL(DefaultMachine(), app, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	thrice, err := RunFluidiCLRepeat(DefaultMachine(), app, core.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, thrice, n, "repeat")
	// The last-iteration duration must be in the same ballpark as a single
	// run, not three times it.
	if thrice.Time > 2*once.Time {
		t.Fatalf("last-run time %v vs single run %v: not measuring one iteration", thrice.Time, once.Time)
	}
}

func TestSoclEagerAlternatesDevices(t *testing.T) {
	n := 128
	m := DefaultMachine()
	res, err := RunSocl(m, testApp(n), Eager, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, res, n, "eager")
}

func TestSoclDmdaRequiresModel(t *testing.T) {
	if _, err := RunSocl(DefaultMachine(), testApp(64), Dmda, nil); err == nil {
		t.Fatal("dmda without model accepted")
	}
}

func TestCalibrateAndRunDmda(t *testing.T) {
	n := 128
	m := DefaultMachine()
	app := testApp(n)
	model, err := CalibrateDmda(m, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(model) != 2 { // two distinct kernels
		t.Fatalf("model has %d entries, want 2", len(model))
	}
	for key, per := range model {
		if per[device.CPU] <= 0 || per[device.GPU] <= 0 {
			t.Fatalf("model[%s] incomplete: %v", key, per)
		}
	}
	res, err := RunSocl(m, app, Dmda, model)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, res, n, "dmda")
}

func TestDmdaNotWorseThanWorstDevice(t *testing.T) {
	n := 256
	m := DefaultMachine()
	app := testApp(n)
	cpu, err := RunSingle(m.CPU, app)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := RunSingle(m.GPU, app)
	if err != nil {
		t.Fatal(err)
	}
	model, err := CalibrateDmda(m, app)
	if err != nil {
		t.Fatal(err)
	}
	dmda, err := RunSocl(m, app, Dmda, model)
	if err != nil {
		t.Fatal(err)
	}
	worst := cpu.Time
	if gpu.Time > worst {
		worst = gpu.Time
	}
	if dmda.Time > worst*1.1 {
		t.Fatalf("dmda (%v) worse than the worst single device (%v)", dmda.Time, worst)
	}
}

// TestFitDmdaMeansRepeatedLaunches: launches that share a kernel@groups key
// are averaged with equal weight. Times 1, 2, 3 have mean 2; folding each
// into a running (prev+new)/2 would give 2.25.
func TestFitDmdaMeansRepeatedLaunches(t *testing.T) {
	app := testApp(64)
	l := app.Launches[0]
	app.Launches = []Launch{l, l, l}
	model, err := FitDmda(app, &Result{LaunchTimes: []sim.Time{1, 2, 3}}, &Result{LaunchTimes: []sim.Time{4, 4, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(model) != 1 {
		t.Fatalf("model has %d keys, want 1: %v", len(model), model)
	}
	per := model[dmdaKey(l)]
	if per[device.CPU] != 2 || per[device.GPU] != 5 {
		t.Fatalf("model[%s] = %v, want CPU 2 and GPU 5", dmdaKey(l), per)
	}
	if _, err := FitDmda(app, &Result{LaunchTimes: []sim.Time{1}}, &Result{LaunchTimes: []sim.Time{1, 2, 3}}); err == nil {
		t.Fatal("a run with a missing launch time was fitted")
	}
}

// TestSweepOracleOverGivenRuns: the sweep asks for 0, 10, ..., 100 in order,
// keeps the first fastest split, and stops at the first error.
func TestSweepOracleOverGivenRuns(t *testing.T) {
	var asked []int
	or, err := SweepOracle(func(pct int) (*Result, error) {
		asked = append(asked, pct)
		return &Result{Time: math.Abs(float64(pct - 45))}, nil // 40 and 50 tie
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("sweep asked for %v, want %v", asked, want)
	}
	if or.BestPct != 40 || or.Best.Time != 5 || or.Curve[50] != 5 {
		t.Fatalf("best = %d%% (%v), want the first of the tied 40%% and 50%%", or.BestPct, or.Best.Time)
	}
	boom := errors.New("boom")
	asked = nil
	if _, err := SweepOracle(func(pct int) (*Result, error) {
		asked = append(asked, pct)
		if pct == 20 {
			return nil, boom
		}
		return &Result{Time: 1}, nil
	}); !errors.Is(err, boom) || len(asked) != 3 {
		t.Fatalf("err = %v after %v, want boom after three splits", err, asked)
	}
}

func TestPolicyString(t *testing.T) {
	if Eager.String() != "eager" || Dmda.String() != "dmda" {
		t.Fatal("policy names wrong")
	}
}

func TestFluidiCLVariantForUnknownKernel(t *testing.T) {
	app := testApp(32)
	app.Variants = []Variant{{Kernel: "nope", Source: "x", Name: "y"}}
	if _, err := RunFluidiCL(DefaultMachine(), app, core.Options{}); err == nil {
		t.Fatal("variant for unknown kernel accepted")
	}
}

func TestStaticMixedSplitUsesBothDevices(t *testing.T) {
	// A 50/50 static run should take less time than the slower device
	// running everything (for this compute-heavy app).
	n := 512
	m := DefaultMachine()
	app := &App{
		Name: "heavy",
		Source: `
__kernel void heavy(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float s = 0.0f;
        for (int k = 0; k < 5000; k++) { s += a[i] * 0.999f; }
        out[i] = s;
    }
}
`,
		Buffers:  map[string]int{"a": 4 * n, "out": 4 * n},
		Launches: []Launch{{Kernel: "heavy", ND: vm.NewNDRange1D(n, 16), Args: []ArgSpec{Buf("a"), Buf("out"), Int(int64(n))}}},
		Outputs:  []string{"out"},
	}
	cpu, err := RunSingle(m.CPU, app)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := RunSingle(m.GPU, app)
	if err != nil {
		t.Fatal(err)
	}
	half, err := RunStatic(m, app, 50)
	if err != nil {
		t.Fatal(err)
	}
	worst := cpu.Time
	if gpu.Time > worst {
		worst = gpu.Time
	}
	if half.Time >= worst {
		t.Fatalf("50/50 split (%v) not faster than the slower device (%v)", half.Time, worst)
	}
}
