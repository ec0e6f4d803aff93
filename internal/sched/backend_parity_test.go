// Acceptance test for the VM backends (external package: polybench imports
// sched). Both work-group execution backends must be observationally
// identical through the whole stack: same output buffers, same virtual time,
// and byte-identical Chrome traces on every quick-scale Polybench experiment.
package sched_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/core"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// TestCorrFullyCertifiedWG pins the strided certificate's headline win:
// CORR's correlation kernel stores to the diagonal, a row run, and a
// strided column — three different affine forms that the identical-form
// certificate rejects — yet its per-work-item footprints are pairwise
// disjoint, so the disjointness certificate admits every work-group to the
// lockstep engine and the quick-scale experiment runs with zero wg-backend
// fallbacks.
func TestCorrFullyCertifiedWG(t *testing.T) {
	b, err := polybench.ByNameQuick("CORR")
	if err != nil {
		t.Fatal(err)
	}
	before := core.CounterSnapshot()
	res, err := sched.RunFluidiCL(sched.DefaultMachine(), b.App, core.Options{Backend: vm.BackendWG})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		t.Fatal(err)
	}
	delta := core.CounterSnapshot().Sub(before)
	if delta.WGFallbackWGs != 0 {
		t.Errorf("WGFallbackWGs = %d, want 0: CORR must run fully certified under the wg backend (rejects by %v: %v)",
			delta.WGFallbackWGs, vm.WGRejectNames(), delta.WGRejects)
	}
	if delta.WGStridedWGs == 0 {
		t.Error("WGStridedWGs = 0: no work-group was admitted by the strided disjointness certificate")
	}
	if delta.WGLoopWGs == 0 {
		t.Error("WGLoopWGs = 0: the lockstep engine never ran")
	}
}

func TestBackendParityFluidiCL(t *testing.T) {
	for _, b := range polybench.AllQuick() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			type runOut struct {
				res   *sched.Result
				chrom []byte
			}
			run := func(be vm.Backend) runOut {
				rec := trace.NewRecorder()
				res, err := sched.RunFluidiCLTraced(sched.DefaultMachine(), b.App,
					core.Options{Backend: be}, rec)
				if err != nil {
					t.Fatalf("%v backend: %v", be, err)
				}
				var buf bytes.Buffer
				if err := rec.WriteChrome(&buf); err != nil {
					t.Fatal(err)
				}
				return runOut{res, buf.Bytes()}
			}
			ri, rw := run(vm.BackendInterp), run(vm.BackendWG)
			if ri.res.Time != rw.res.Time {
				t.Errorf("virtual time diverges: interp=%v wg=%v", ri.res.Time, rw.res.Time)
			}
			for name, want := range ri.res.Outputs {
				if got := rw.res.Outputs[name]; !bytes.Equal(got, want) {
					t.Errorf("output %q differs between interp and wg", name)
				}
			}
			if err := b.Verify(rw.res.Outputs); err != nil {
				t.Errorf("wg backend output wrong: %v", err)
			}
			if !bytes.Equal(ri.chrom, rw.chrom) {
				t.Errorf("Chrome traces differ between interp and wg (%d vs %d bytes)",
					len(ri.chrom), len(rw.chrom))
			}
		})
	}
}

// TestWGFallbackRunsInterp pins the one seam wg has to another engine, on the
// one kernel of the evaluation that uses it: table3's hand-optimised CORR CPU
// variant keeps a private acc[256] without a barrier, which buildWG rejects
// (shape), so under the wg backend every work-group of it runs on the
// interpreter — and must compute what the interpreter selected directly and
// the AST reference compute.
func TestWGFallbackRunsInterp(t *testing.T) {
	const m, n = 48, 64
	b := polybench.CorrWithVariant(m, n)
	v := b.App.Variants[0]
	ki, err := clc.FindKernelInfo(v.Source, v.Name)
	if err != nil {
		t.Fatal(err)
	}
	k, err := vm.Compile(ki)
	if err != nil {
		t.Fatal(err)
	}
	nd := b.App.Launches[len(b.App.Launches)-1].ND
	mkArgs := func() []vm.Arg {
		return []vm.Arg{vm.BufArg(bytes.Clone(b.App.Inputs["data"])), vm.BufArg(make([]byte, 4*m*m)),
			vm.IntArg(m), vm.IntArg(n)}
	}

	interpArgs := mkArgs()
	interpStats, err := k.ExecLaunch(nd, interpArgs, vm.ExecOpts{Backend: vm.BackendInterp})
	if err != nil {
		t.Fatal(err)
	}
	before := vm.BackendSnapshot()
	wgArgs := mkArgs()
	wgStats, err := k.ExecLaunch(nd, wgArgs, vm.ExecOpts{Backend: vm.BackendWG})
	if err != nil {
		t.Fatal(err)
	}
	after := vm.BackendSnapshot()
	groups := int64(nd.LaunchGroups())
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"WGFallbackWGs", after.WGFallbackWGs - before.WGFallbackWGs, groups},
		{"WGRejects[shape]", after.WGRejects[vm.WGRejShape] - before.WGRejects[vm.WGRejShape], groups},
		{"InterpWGs", after.InterpWGs - before.InterpWGs, groups},
		{"WGLoopWGs", after.WGLoopWGs - before.WGLoopWGs, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s rose by %d over the wg launch, want %d", c.name, c.got, c.want)
		}
	}
	if wgStats != interpStats {
		t.Errorf("Stats diverge:\ninterp: %+v\nwg:     %+v", interpStats, wgStats)
	}

	ref, err := vm.NewRefExec(ki)
	if err != nil {
		t.Fatal(err)
	}
	refArgs := mkArgs()
	for g := 0; g < nd.LaunchGroups(); g++ {
		if err := ref.ExecWorkGroup(nd, nd.GroupAt(g), refArgs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(wgArgs[i].Buf, interpArgs[i].Buf) {
			t.Errorf("buffer %d differs between wg and interp", i)
		}
		if !bytes.Equal(wgArgs[i].Buf, refArgs[i].Buf) {
			t.Errorf("buffer %d differs between wg and the AST reference", i)
		}
	}
}

// TestWGFuseParityFluidiCL pins the region-fusion pass (DESIGN.md S20)
// against the per-step lockstep engine through the whole stack: with the
// wg backend on both devices, a fused run and an unfused run of every
// quick-scale Polybench app must produce the same output bytes, the same
// virtual time, and byte-identical Chrome traces. Fused runs first so the
// jams execute against cold per-kernel scratch pools, the state in which
// a mis-reserved columnar log historically diverged.
func TestWGFuseParityFluidiCL(t *testing.T) {
	defer vm.SetWGFuse(true)
	for _, b := range polybench.AllQuick() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			type runOut struct {
				res   *sched.Result
				chrom []byte
			}
			run := func(fuse bool) runOut {
				vm.SetWGFuse(fuse)
				rec := trace.NewRecorder()
				res, err := sched.RunFluidiCLTraced(sched.DefaultMachine(), b.App,
					core.Options{Backend: vm.BackendWG}, rec)
				if err != nil {
					t.Fatalf("wgfuse=%v: %v", fuse, err)
				}
				var buf bytes.Buffer
				if err := rec.WriteChrome(&buf); err != nil {
					t.Fatal(err)
				}
				return runOut{res, buf.Bytes()}
			}
			fusedBefore := vm.BackendSnapshot().WGFusedInstrsDyn
			rf := run(true)
			if b.Name != "2DCONV" && vm.BackendSnapshot().WGFusedInstrsDyn == fusedBefore {
				t.Error("the fused run executed no fused closure") // 2DCONV has no jam-shaped block
			}
			ru := run(false)
			if rf.res.Time != ru.res.Time {
				t.Errorf("virtual time diverges: fused=%v unfused=%v", rf.res.Time, ru.res.Time)
			}
			for name, want := range ru.res.Outputs {
				if got := rf.res.Outputs[name]; !bytes.Equal(got, want) {
					t.Errorf("output %q differs between fused and unfused wg", name)
				}
			}
			if err := b.Verify(rf.res.Outputs); err != nil {
				t.Errorf("fused wg output wrong: %v", err)
			}
			if !bytes.Equal(rf.chrom, ru.chrom) {
				t.Errorf("Chrome traces differ between fused and unfused wg (%d vs %d bytes)",
					len(rf.chrom), len(ru.chrom))
			}
		})
	}
}

// TestWGFusionIsTheDeliveredPath pins that the fused path is the one every
// caller gets: on a four-thread host, with no other knob touched, a wg launch
// of a reduction kernel and a cooperative quick-scale SYRK both execute
// through the fused closures and the loop closure.
func TestWGFusionIsTheDeliveredPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	requireFused := func(what string, before vm.BackendCounters) {
		t.Helper()
		after := vm.BackendSnapshot()
		if after.WGFusedInstrsDyn == before.WGFusedInstrsDyn {
			t.Errorf("%s: WGFusedInstrsDyn did not move: no fused closure ran", what)
		}
		if after.WGLoopTripsDyn == before.WGLoopTripsDyn {
			t.Errorf("%s: WGLoopTripsDyn did not move: no reduction loop ran whole", what)
		}
	}

	k := vm.MustCompile(`
__kernel void dot(__global float* A, __global float* B, __global float* C, int m, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float acc = C[i];
        for (int k = 0; k < m; k++) { acc += A[i*m + k] * B[k]; }
        C[i] = acc;
    }
}
`, "dot")
	const n, m = 64, 12
	buf := func(words int) vm.Arg { return vm.BufArg(make([]byte, 4*words)) }
	before := vm.BackendSnapshot()
	if _, err := k.ExecLaunch(vm.NewNDRange1D(n, 16),
		[]vm.Arg{buf(n * m), buf(m), buf(n), vm.IntArg(m), vm.IntArg(n)},
		vm.ExecOpts{Backend: vm.BackendWG}); err != nil {
		t.Fatal(err)
	}
	requireFused("ExecLaunch", before)

	b, err := polybench.ByNameQuick("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	before = vm.BackendSnapshot()
	res, err := sched.RunFluidiCL(sched.DefaultMachine(), b.App, core.Options{Backend: vm.BackendWG})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		t.Fatal(err)
	}
	requireFused("cooperative SYRK", before)
}

// TestWGAllocatesNoMoreThanInterp keeps paid the debt that blocked wg as
// the process default: once warm (kernels compiled, pools and the per-kernel
// decision cache filled), a quick cooperative SYRK + GESUMMV allocates no
// more bytes on the wg engine than on the interpreter — neither engine
// allocates per launch or per work-group, so what is left is the buffers and
// the runtime. A certificate recomputed per sub-kernel, or launch scratch
// grown from nil, shows up here as wg's surplus: 6.3 KB at the parent of the
// flip, whose one-entry certificate cache recomputed on every change of key.
// The least of three passes is compared, with 2 KB of slack: the Go runtime's
// own allocations (sudogs, pool chains) jitter by about 0.6 KB per pass.
func TestWGAllocatesNoMoreThanInterp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one set of pools
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		if probe.Put(x); probe.Get() != x {
			t.Skip("sync.Pool drops Puts here (the race detector does, at random): pooled scratch is regrown by chance")
		}
	}
	var apps []*polybench.Benchmark
	for _, name := range []string{"SYRK", "GESUMMV"} {
		b, err := polybench.ByNameQuick(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, b)
	}
	allocated := func(be vm.Backend) (least uint64) {
		for pass := 0; pass < 4; pass++ { // pass 0 warms up
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, b := range apps {
				res, err := sched.RunFluidiCL(sched.DefaultMachine(), b.App, core.Options{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Verify(res.Outputs); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			if n := m1.TotalAlloc - m0.TotalAlloc; pass == 1 || pass > 1 && n < least {
				least = n
			}
		}
		return least
	}
	wg, interp := allocated(vm.BackendWG), allocated(vm.BackendInterp)
	t.Logf("TotalAlloc: wg %d bytes, interp %d bytes", wg, interp)
	if wg > interp+2<<10 {
		t.Errorf("wg allocated %d bytes, interp %d: the default engine costs more heap than its fallback", wg, interp)
	}
}
