package bench

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"fluidicl/internal/polybench"
	"fluidicl/internal/vm"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) in Python 3.11.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{5, 1, 9, 2, 7, 7, 3}, [3]float64{2, 5, 7}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, med, q3 := Quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := Geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean = %v, want 4", got)
	}
}

func TestDriftCorrection(t *testing.T) {
	// On the reference machine nothing changes.
	if got := Correct(2, CalibRefS, CalibRefS); got != 2 {
		t.Errorf("reference machine: %v, want 2", got)
	}
	// A machine running at half speed takes twice as long for both the
	// sample and the loop: the corrected sample is the same.
	if got := Correct(4, 2*CalibRefS, 2*CalibRefS); got != 2 {
		t.Errorf("half-speed machine: %v, want 2", got)
	}
	// Speed changing across the sample: the mean of the two loops.
	if got, want := Correct(3, CalibRefS, 2*CalibRefS), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("drifting machine: %v, want %v", got, want)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	const n = 4096
	a, b, c := StreamInOut(7, n, 256), StreamInOut(7, n, 256), StreamInOut(8, n, 256)
	if !reflect.DeepEqual(a.App.Inputs, b.App.Inputs) || !reflect.DeepEqual(a.Expected, b.Expected) {
		t.Error("same seed gave different inputs or references")
	}
	if bytes.Equal(a.App.Inputs["x"], c.App.Inputs["x"]) {
		t.Error("different seeds gave the same inputs")
	}
	// Sizes and launches never depend on the seed.
	if !reflect.DeepEqual(a.App.Buffers, c.App.Buffers) || len(a.App.Launches) != len(c.App.Launches) {
		t.Error("sizes depend on the seed")
	}
}

// smallStream is the stream-chunks body at n = 4096.
func smallStream(seed uint64) *Instance {
	out, inout := StreamOut(seed, 4096, 256), StreamInOut(seed, 4096, 256)
	return &Instance{
		Apps:   []*polybench.Benchmark{out, inout},
		Runs:   []CoopRun{{out, Twin}, {out, NwayTopo}, {inout, NwayTopo}},
		NoTwin: map[string]bool{inout.Name: true},
	}
}

func TestStreamReferencesMatchRuns(t *testing.T) {
	vm.SetWorkers(1)
	vm.SetBackend(vm.BackendWG)
	defer vm.SetBackend(vm.BackendAuto)
	in := smallStream(3)
	var chk Checks
	first := in.Iterate(&chk, nil)
	second := in.Iterate(&chk, nil)
	if chk.Failed != 0 || chk.Attempted != 2*len(in.Runs) {
		t.Fatalf("checks %+v, want %d attempted and none failed", chk, 2*len(in.Runs))
	}
	if first.Sig != second.Sig || first.VirtS != second.VirtS || first.VirtS <= 0 {
		t.Errorf("iterations disagree: virt %v vs %v", first.VirtS, second.VirtS)
	}
	if s := in.CoopSpeedup(first.Results, &chk); !(s > 0) || chk.Failed != 0 {
		t.Errorf("coop_speedup %v, checks %+v", s, chk)
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	vm.SetWorkers(1)
	in := smallStream(3)
	in.Apps[0].Expected["w"][5] ^= 1
	var chk Checks
	in.Iterate(&chk, nil)
	if chk.Failed != 2 { // stream-out runs twice
		t.Fatalf("failed = %d, want 2: %v", chk.Failed, chk.Errors)
	}
	res := newResult(nil, nil, chk)
	if res.Correct || res.Failed != 2 {
		t.Errorf("result %+v: a failed check must make the run incorrect (and flbench exit non-zero)", res)
	}
}

func TestReplicaMatchesSched(t *testing.T) {
	vm.SetWorkers(1)
	in := smallStream(5)
	var chk Checks
	want := in.Iterate(&chk, nil).Results
	tr := NewTracer()
	replicaPass(tr, in, want, &chk, nil)
	if chk.Failed != 0 {
		t.Fatalf("replica differs from sched: %v", chk.Errors)
	}
	// Spans nest: every core call inside sim.Run is marked inclusive and
	// has the sim.Run span as its parent.
	byID := map[int]Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	n := 0
	for _, s := range tr.Spans() {
		if s.Name == spanEnqueue {
			n++
			if p := byID[s.Parent]; p.Name != spanSimRun || !s.Inclusive {
				t.Errorf("span %+v: parent %q, want %q and inclusive", s, p.Name, spanSimRun)
			}
		}
	}
	if n != 9 { // three runs of three launches
		t.Errorf("%d enqueue spans, want 9", n)
	}
	if tr.Total(spanVerify, 0) <= 0 {
		t.Error("no verify time recorded")
	}
}

func TestWorkUnitsMatchLaunches(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-size stream inputs")
	}
	for _, w := range Workloads {
		in := w.Instance(1)
		units := len(in.Experiments)
		if units == 0 {
			for _, r := range in.Runs {
				for _, l := range r.App.App.Launches {
					units += l.ND.TotalGroups()
				}
			}
		}
		if float64(units) != w.Units {
			t.Errorf("%s: Units = %v, its launches give %d", w.Name, w.Units, units)
		}
	}
}

func TestDescriptionMatchesBinary(t *testing.T) {
	desc, err := ReadDescription("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(desc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if desc.Workloads[i].Name != w.Name || desc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)",
				i, desc.Workloads[i].Name, desc.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, got []DescMetric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the binary {%s %s %s}", kind, i, g, d.Name, d.Unit, better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", desc.EndToEnd, EndToEnd, true)
	check("per_layer", desc.PerLayer, PerLayer, false)
	if len(desc.Paths) != 1 || desc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", desc.Paths)
	}
	if desc.RunSeconds != RunSeconds {
		t.Errorf("run_seconds = %d, flbench's default is %d", desc.RunSeconds, RunSeconds)
	}
}
