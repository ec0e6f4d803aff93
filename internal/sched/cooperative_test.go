package sched_test

import (
	"crypto/sha256"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// TestOneDriverBothProtocols runs one multi-kernel app through the single
// host driver under each cooperation protocol and checks what the unified
// surface promises: verified outputs, one report per launch with the
// protocol's shape and a work-group count per device under both protocols,
// and refresh-planner counters only where a planner runs.
func TestOneDriverBothProtocols(t *testing.T) {
	for _, tc := range []struct {
		topology string
		nway     bool
	}{
		{"cpu+gpu", false},
		{"2cpu+2gpu", true},
		{"4gpu-bus", true},
	} {
		t.Run(tc.topology, func(t *testing.T) {
			b, err := polybench.ByNameQuick("2MM")
			if err != nil {
				t.Fatal(err)
			}
			topo, err := device.ParseTopology(tc.topology)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.RunTopology(topo, b.App, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Verify(res.Outputs); err != nil {
				t.Fatal(err)
			}
			if len(res.Reports) != len(b.App.Launches) {
				t.Fatalf("%d reports for %d launches", len(res.Reports), len(b.App.Launches))
			}
			for i, rep := range res.Reports {
				if rep.KID != i+1 || rep.Name != b.App.Launches[i].Kernel || rep.End < rep.Start {
					t.Errorf("report %d malformed: %+v", i, rep)
				}
				if got := rep.CPUWGs + rep.GPUExecuted; got < rep.TotalWGs {
					t.Errorf("report %d: devices executed %d of %d work-groups", i, got, rep.TotalWGs)
				}
				if len(rep.DeviceWGs) != len(topo.Devices) {
					t.Fatalf("report %d: %d DeviceWGs entries for %d devices", i, len(rep.DeviceWGs), len(topo.Devices))
				}
				sum := 0
				for _, n := range rep.DeviceWGs {
					sum += n
				}
				switch {
				case !tc.nway && (rep.DeviceWGs[0] != rep.CPUWGs || rep.DeviceWGs[1] != rep.GPUExecuted):
					t.Errorf("report %d: twin DeviceWGs = %v, want [CPUWGs %d, GPUExecuted %d]", i, rep.DeviceWGs, rep.CPUWGs, rep.GPUExecuted)
				case tc.nway && sum != rep.TotalWGs:
					t.Errorf("report %d: N-way DeviceWGs = %v sum to %d, want TotalWGs %d", i, rep.DeviceWGs, sum, rep.TotalWGs)
				}
			}
			c := res.Counters
			if refreshed := c.RefreshDeltas != 0 || c.RefreshBytesSkipped != 0; refreshed != tc.nway {
				t.Errorf("refresh activity (deltas %d, bytes skipped %d) under nway=%v",
					c.RefreshDeltas, c.RefreshBytesSkipped, tc.nway)
			}
			if tc.nway && c.PrimeCopiesElided != 0 {
				t.Errorf("N-way run reported %d twin scratch primes", c.PrimeCopiesElided)
			}
			if c.BackendCounters != (vm.BackendCounters{}) {
				t.Errorf("per-run counters carry process-global backend activity: %+v", c.BackendCounters)
			}
		})
	}
}

// TestReleaseRecyclesEachArrayOnce runs the six paper apps back to back
// under every strategy (sched.EveryStrategy), each run drawing the storage
// the one before it released. A run's host shadows and device copies share
// its handed-over inputs until something writes them, so a run must hand
// every backing array it owns to ocl.Recycle once or Recycle panics, and
// must hand over no input: the input stays its app's, and the next run would
// write it. Each run's outputs must verify.
func TestReleaseRecyclesEachArrayOnce(t *testing.T) {
	for _, s := range sched.EveryStrategy() {
		for _, b := range polybench.All() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s under %s: %v", b.Name, s.Name, r)
					}
				}()
				res, err := s.Run(b.App)
				if err != nil {
					t.Fatalf("%s under %s: %v", b.Name, s.Name, err)
				}
				if err := b.Verify(res.Outputs); err != nil {
					t.Fatalf("%s under %s: %v", b.Name, s.Name, err)
				}
				for name := range b.App.Buffers {
					if ocl.Listed(b.App.Input(name)) {
						t.Fatalf("%s under %s: the run put input %q on the free list", b.Name, s.Name, name)
					}
				}
			}()
		}
	}
}

// TestBaselineRunAllocs guards the baselines' release: once a first run has
// warmed the caches and filled the free list, a second 2MM run under a single
// device, a static split and SOCL allocates less than half of its buffer
// bytes, because its device copies, host shadows and merge scratch draw the
// storage the first run handed back. The free list is emptied before the
// first run, so storage an earlier test released cannot stand in for it.
// The VM's scratch pools (sync.Pool) stay warm only on one P with the
// collector off, so the test runs so. Not parallel: TotalAlloc counts the
// whole process. The race detector's instrumentation allocates several
// times the buffer bytes, so the guard skips under -race, as vm's do.
func TestBaselineRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := polybench.TwoMM(128, 128, 128)
	bufBytes := 0
	for _, size := range b.App.Buffers {
		bufBytes += size
	}
	m := sched.DefaultMachine()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, s := range []sched.Strategy{
		{Name: "single-gpu", Run: func(app *sched.App) (*sched.Result, error) { return sched.RunSingle(m.GPU, app) }},
		{Name: "static-50", Run: func(app *sched.App) (*sched.Result, error) { return sched.RunStatic(m, app, 50) }},
		{Name: "socl-eager", Run: func(app *sched.App) (*sched.Result, error) { return sched.RunSocl(m, app, sched.Eager, nil) }},
	} {
		run := func() {
			res, err := s.Run(b.App)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if err := b.Verify(res.Outputs); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
		ocl.Recycle(nil)
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated, %.2f× the %d buffer bytes", s.Name, got, float64(got)/float64(bufBytes), bufBytes)
		if got >= uint64(bufBytes/2) {
			t.Errorf("%s: a warmed-up 2MM run allocated %d bytes, want < %d (half its %d buffer bytes)", s.Name, got, bufBytes/2, bufBytes)
		}
	}
}

// TestHandedOverInputsNeverWritten: every strategy hands each buffer's
// initial contents — an app's input or a view of the shared zero slab —
// over to the storage that reads it, so no strategy may write through one.
// Every app runs under every strategy, the twin twice in one runtime, and
// every buffer's initial contents must hash the same before and after.
func TestHandedOverInputsNeverWritten(t *testing.T) {
	m := sched.DefaultMachine()
	strategies := []struct {
		name string
		run  func(app *sched.App) (*sched.Result, error)
	}{
		{"single-cpu", func(app *sched.App) (*sched.Result, error) { return sched.RunSingle(m.CPU, app) }},
		{"single-gpu", func(app *sched.App) (*sched.Result, error) { return sched.RunSingle(m.GPU, app) }},
		{"static", func(app *sched.App) (*sched.Result, error) { return sched.RunStatic(m, app, 50) }},
		{"socl", func(app *sched.App) (*sched.Result, error) { return sched.RunSocl(m, app, sched.Eager, nil) }},
		{"twin-repeat", func(app *sched.App) (*sched.Result, error) {
			return sched.RunFluidiCLRepeat(m, app, core.Options{}, 2)
		}},
	}
	for _, spec := range []string{"2cpu+2gpu", "4gpu-bus", "bigcpu+gt440+gpu"} {
		topo := device.MustParseTopology(spec)
		strategies = append(strategies, struct {
			name string
			run  func(app *sched.App) (*sched.Result, error)
		}{spec, func(app *sched.App) (*sched.Result, error) { return sched.RunTopology(topo, app, core.Options{}) }})
	}
	hashes := func(app *sched.App) map[string][sha256.Size]byte {
		h := map[string][sha256.Size]byte{}
		for name := range app.Buffers {
			h[name] = sha256.Sum256(app.Input(name))
		}
		return h
	}
	for _, b := range polybench.AllWithExtras() {
		before := hashes(b.App)
		for _, s := range strategies {
			res, err := s.run(b.App)
			if err != nil {
				t.Fatalf("%s under %s: %v", b.Name, s.name, err)
			}
			if err := b.Verify(res.Outputs); err != nil {
				t.Fatalf("%s under %s: %v", b.Name, s.name, err)
			}
			if after := hashes(b.App); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s under %s wrote through a handed-over input", b.Name, s.name)
			}
		}
	}
}

// TestCoopRunAllocs guards the hand-over of host writes: once a first run
// has warmed the build and plan caches, a second run allocates less than a
// quarter of its input bytes, under the twin protocol and under N-way,
// because neither the host shadows nor the device copies of its inputs copy
// them. GESUMMV's inputs are read-only; ATAX's kernels also write buffers
// they never read, which N-way sends per chunk window. The free list is
// emptied before the second run, so storage the first run released cannot
// hide a copy. Not parallel: TotalAlloc counts the whole process.
func TestCoopRunAllocs(t *testing.T) {
	for _, b := range []*polybench.Benchmark{polybench.Gesummv(768), polybench.Atax(768)} {
		in := 0
		for _, data := range b.App.Inputs {
			in += len(data)
		}
		for _, spec := range []string{"cpu+gpu", "2cpu+2gpu", "4gpu-bus"} {
			topo := device.MustParseTopology(spec)
			run := func() {
				res, err := sched.RunTopology(topo, b.App, core.Options{})
				if err != nil {
					t.Fatalf("%s on %s: %v", b.Name, spec, err)
				}
				if err := b.Verify(res.Outputs); err != nil {
					t.Fatalf("%s on %s: %v", b.Name, spec, err)
				}
			}
			run()
			ocl.Recycle(nil)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(in/4) {
				t.Errorf("%s on %s: a warmed-up run allocated %d bytes, want < %d (a quarter of its %d input bytes)",
					b.Name, spec, got, in/4, in)
			}
		}
	}
}

// The pre-unification names must stay the unified types (bench/ compiles
// against them).
var (
	_ *core.Runtime = (*core.TopoRuntime)(nil)
	_ *core.Program = (*core.TopoProgram)(nil)
	_ *core.Kernel  = (*core.TopoKernel)(nil)
	_ *core.Buffer  = (*core.TopoBuffer)(nil)
)
