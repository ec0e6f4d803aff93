package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/harness"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// axpySrc is the in-place update of bench's stream-inout: y is read-write,
// so its plan takes the strided fallback and evaluates a footprint. tag
// makes the source — and with it the process-wide transform entry and its
// plan caches — private to one test.
func axpySrc(tag string) string {
	return "// " + tag + `
__kernel void axpy(__global float* x, __global float* y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
`
}

func axpyApp(tag string, n, local int) *sched.App {
	return &sched.App{
		Name:    "axpy",
		Source:  axpySrc(tag),
		Buffers: map[string]int{"x": 4 * n, "y": 4 * n},
		Launches: []sched.Launch{{
			Kernel: "axpy",
			ND:     vm.NewNDRange1D(n, local),
			Args:   []sched.ArgSpec{sched.Buf("x"), sched.Buf("y"), sched.Float(0.5), sched.Int(int64(n))},
		}},
		Outputs: []string{"y"},
	}
}

// newRuntime builds a runtime the way sched does: the twin protocol on a
// plain pair, N-way claims otherwise.
func newRuntime(t *testing.T, spec string) *core.Runtime {
	t.Helper()
	topo, err := device.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	if cpu, gpu, ok := topo.Pair(); ok {
		return core.MustNew(env, device.New(env, cpu), device.New(env, gpu), core.Options{})
	}
	rt, err := core.NewTopo(env, topo.Build(env), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// checkPlans asks for the plan of every launch of app on a fresh runtime,
// twice, and requires the cache's answer to deep-equal a fresh derivation
// both times.
func checkPlans(t *testing.T, spec string, app *sched.App) {
	t.Helper()
	rt := newRuntime(t, spec)
	defer rt.Release()
	prog, err := rt.BuildProgram(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	bufs := map[string]*core.Buffer{}
	for name, size := range app.Buffers {
		bufs[name] = rt.CreateBuffer(size)
	}
	for li, l := range app.Launches {
		k := prog.MustKernel(l.Kernel)
		args := make([]core.Arg, len(l.Args))
		for i, a := range l.Args {
			switch a.Kind {
			case sched.ArgBuf:
				args[i] = core.BufArg(bufs[a.Name])
			case sched.ArgInt:
				args[i] = core.IntArg(a.I)
			default:
				args[i] = core.FloatArg(a.F)
			}
		}
		for pass := 0; pass < 2; pass++ {
			if cached, fresh := core.CachedAndFreshPlan(k, l.ND, args); !reflect.DeepEqual(cached, fresh) {
				t.Errorf("%s on %s, launch %d (%s), pass %d: cached plan differs from a fresh one:\ncached %+v\nfresh  %+v",
					app.Name, spec, li, l.Kernel, pass, cached, fresh)
			}
		}
	}
}

func TestLaunchPlanCached(t *testing.T) {
	t.Run("equals-fresh", func(t *testing.T) {
		apps := []*sched.App{axpyApp("equals-fresh", 1<<19, 256)}
		for _, b := range polybench.All() {
			apps = append(apps, b.App)
		}
		for _, spec := range []string{"cpu+gpu", "2cpu+2gpu"} {
			for _, app := range apps {
				checkPlans(t, spec, app)
			}
		}
	})

	t.Run("second-runtime-evaluates-nothing", func(t *testing.T) {
		app := axpyApp("second-runtime", 8192, 256)
		for si, spec := range []string{"cpu+gpu", "2cpu+2gpu"} {
			topo, _ := device.ParseTopology(spec)
			var evals [2]int64
			for run := range evals {
				before := core.FootprintEvals()
				if _, err := sched.RunTopology(topo, app, core.Options{}); err != nil {
					t.Fatal(err)
				}
				evals[run] = core.FootprintEvals() - before
			}
			// Both protocols share one transform entry, so only the very
			// first run of the source pays.
			want := [2]int64{}
			if si == 0 {
				want[0] = 1
			}
			if evals != want {
				t.Errorf("%s: footprints evaluated by the first and the second runtime = %v, want %v", spec, evals, want)
			}
		}
	})

	t.Run("distinct-keys-and-cap", func(t *testing.T) {
		const n = 1024
		rt := newRuntime(t, "cpu+gpu")
		defer rt.Release()
		prog, err := rt.BuildProgram(axpySrc("distinct-keys"))
		if err != nil {
			t.Fatal(err)
		}
		k := prog.MustKernel("axpy")
		x, y, big := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n), rt.CreateBuffer(8*n)
		plan := func(what string, wantPlans int, nd vm.NDRange, yb *core.Buffer, a float64, nArg int64) {
			t.Helper()
			args := []core.Arg{core.BufArg(x), core.BufArg(yb), core.FloatArg(a), core.IntArg(nArg)}
			if cached, fresh := core.CachedAndFreshPlan(k, nd, args); !reflect.DeepEqual(cached, fresh) {
				t.Errorf("%s: cached plan differs from a fresh one", what)
			}
			if got := core.CachedPlans(k); got != wantPlans {
				t.Errorf("%s: cache holds %d plans, want %d", what, got, wantPlans)
			}
		}
		nd := vm.NewNDRange1D(n, 256)
		plan("first launch", 1, nd, y, 0.5, n)
		plan("same launch", 1, nd, y, 0.5, n)
		plan("another float arg", 1, nd, y, 0.25, n)
		plan("another buffer of the same size", 1, nd, x, 0.5, n)
		plan("another int arg", 2, nd, y, 0.5, n-1)
		plan("another buffer size", 3, nd, big, 0.5, n)
		plan("another local size", 4, vm.NewNDRange1D(n, 128), y, 0.5, n)
		for i := 0; i < 2*core.PlanCacheCap; i++ {
			plan(fmt.Sprintf("int arg %d", i), min(5+i, core.PlanCacheCap), nd, y, 0.5, int64(i))
		}
		// The newest entries survive: the last key is still cached, the
		// first was dropped and is derived (and cached) again.
		before := core.FootprintEvals()
		plan("newest key", core.PlanCacheCap, nd, y, 0.5, int64(2*core.PlanCacheCap-1))
		if d := core.FootprintEvals() - before; d != 1 { // the fresh derivation alone
			t.Errorf("newest key: %d footprints evaluated, want 1 (cache hit)", d)
		}
		plan("oldest key", core.PlanCacheCap, nd, y, 0.5, n)
		if d := core.FootprintEvals() - before; d != 3 {
			t.Errorf("oldest key: %d footprints evaluated in total, want 3 (cache miss)", d)
		}
	})

	// Concurrent cells insert into and read from the same kernels' caches;
	// the tables must not depend on who wins.
	t.Run("parallel-cells", func(t *testing.T) {
		var tables [2]string
		for i, par := range []int{1, 4} {
			r := &harness.Runner{M: sched.DefaultMachine(), Quick: true, Parallel: par}
			tab, err := r.Run("fig13")
			if err != nil {
				t.Fatal(err)
			}
			tables[i] = tab.String()
		}
		if tables[0] != tables[1] {
			t.Errorf("fig13 differs between Parallel 1 and 4:\n%s\n%s", tables[0], tables[1])
		}
	})
}
