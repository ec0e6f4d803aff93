package core_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// N-way residency. Under N-way a device receives a buffer's bytes only when
// its own chunks need them, so most device copies lag the host shadow on
// purpose; what must hold instead is the invariant every send and merge
// keeps: a device copy equals the host shadow outside its pending set.

// TestPendingInvariantEveryLaunch drives every quick Polybench app through an
// N-way runtime on three topologies and checks the invariant after every
// launch, with the queues drained, and the outputs at the end.
func TestPendingInvariantEveryLaunch(t *testing.T) {
	for _, spec := range []string{"2cpu+2gpu", "4gpu-bus", "bigcpu+gt440+gpu"} {
		topo := device.MustParseTopology(spec)
		for _, b := range polybench.AllQuick() {
			out := driveChecked(t, topo, b.App, spec)
			if err := b.Verify(out); err != nil {
				t.Fatalf("%s on %s: %v", b.Name, spec, err)
			}
		}
	}
}

// driveChecked runs app under N-way on topo as sched's host program does —
// inputs (or zeros) in name order, the launches, the outputs — and checks
// the pending-set invariant after each launch. It returns the outputs.
func driveChecked(t *testing.T, topo device.Topology, app *sched.App, on string) map[string][]byte {
	t.Helper()
	env := sim.NewEnv()
	rt, err := core.NewTopo(env, topo.Build(env), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rt.BuildProgram(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(app.Buffers))
	for name := range app.Buffers {
		names = append(names, name)
	}
	sort.Strings(names)
	bufs := map[string]*core.Buffer{}
	for _, name := range names {
		bufs[name] = rt.CreateBuffer(app.Buffers[name])
	}
	out := map[string][]byte{}
	env.Go("app", func(p *sim.Proc) {
		for _, name := range names {
			data := app.Inputs[name]
			if data == nil {
				data = make([]byte, app.Buffers[name])
			}
			rt.EnqueueWriteBuffer(p, bufs[name], data)
		}
		for li, l := range app.Launches {
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
			if err := rt.EnqueueNDRangeKernel(p, prog.MustKernel(l.Kernel), l.ND, args); err != nil {
				t.Errorf("%s on %s, launch %d: %v", app.Name, on, li, err)
				return
			}
			rt.Finish(p)
			if bad := core.PendingInvariant(rt); bad != "" {
				t.Errorf("%s on %s, after launch %d (%s): %s", app.Name, on, li, l.Kernel, bad)
				return
			}
		}
		for _, name := range app.Outputs {
			out[name] = rt.EnqueueReadBuffer(p, bufs[name])
		}
	})
	env.Run()
	if err := rt.Err(); err != nil {
		t.Fatalf("%s on %s: %v", app.Name, on, err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// guardSrc's kernels write only the slots their guard lets through, at the
// work-item's own id, and never read the buffer: write-only over slots a
// chunk's ship window covers but the chunk leaves alone.
const guardSrc = `
__kernel void evens(__global float* out, int n) {
    int i = get_global_id(0);
    if (i < n && i % 2 == 0) { out[i] = 1.0f; }
}
__kernel void thirds(__global float* out, int n) {
    int i = get_global_id(0);
    if (i < n && i % 3 == 0) { out[i] = 2.0f; }
}
`

// TestWriteOnlyGuardKeepsPreKernelBytes: the host fills a buffer with 5,
// evens writes 1 to its even slots, then thirds writes 2 to every third.
// Both kernels only write the buffer, so each device is sent just its
// pending bytes inside each chunk's ship window — the host write's for
// evens, evens' merged results for thirds — and the slots a chunk skips
// must still hold those bytes when the window ships, or the merge would
// take the device's stale words for results.
func TestWriteOnlyGuardKeepsPreKernelBytes(t *testing.T) {
	const n, local = 4096, 64
	fill := make([]float32, n)
	want := make([]float32, n)
	for i := range fill {
		fill[i], want[i] = 5, 5
		if i%2 == 0 {
			want[i] = 1
		}
		if i%3 == 0 {
			want[i] = 2
		}
	}
	app := &sched.App{
		Name:    "guard",
		Source:  guardSrc,
		Buffers: map[string]int{"out": 4 * n},
		Inputs:  map[string][]byte{"out": f32bytes(fill)},
		Launches: []sched.Launch{
			{Kernel: "evens", ND: vm.NewNDRange1D(n, local), Args: []sched.ArgSpec{sched.Buf("out"), sched.Int(n)}},
			{Kernel: "thirds", ND: vm.NewNDRange1D(n, local), Args: []sched.ArgSpec{sched.Buf("out"), sched.Int(n)}},
		},
		Outputs: []string{"out"},
	}
	for _, spec := range []string{"2cpu+2gpu", "4gpu-bus"} {
		topo := device.MustParseTopology(spec)
		res, err := sched.RunTopology(topo, app, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.Counters.ShipBytesSkipped == 0 {
			t.Fatalf("%s: no ship was narrowed to a window", spec)
		}
		if !bytes.Equal(res.Outputs["out"], f32bytes(want)) {
			t.Fatalf("%s: outputs differ from the reference", spec)
		}
		if out := driveChecked(t, topo, app, spec); !bytes.Equal(out["out"], f32bytes(want)) {
			t.Fatalf("%s: outputs of the checked run differ from the reference", spec)
		}
	}
}

// aliasSrc's scale reads in and writes out, so a buffer bound to both is
// read and written by the launch.
const aliasSrc = `
__kernel void scale(__global float* in, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a * in[i]; }
}
__kernel void axpy(__global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { y[i] = a * x[i] + y[i]; }
}
`

// TestAliasedBufferReadAndWriteOnly binds one buffer to scale's read
// parameter and to its write-only parameter. The launch reads it through
// the first binding, so the buffer is read-write, and every device must be
// current before it runs a chunk; the outputs must equal a single-device
// run's on 4gpu-bus.
func TestAliasedBufferReadAndWriteOnly(t *testing.T) {
	const n, local = 4096, 64
	x, y := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i], y[i] = float32(i%7)+0.5, float32(i%5)+0.25
	}
	nd := vm.NewNDRange1D(n, local)
	args := func(a, b string, alpha float64) []sched.ArgSpec {
		return []sched.ArgSpec{sched.Buf(a), sched.Buf(b), sched.Float(alpha), sched.Int(n)}
	}
	app := &sched.App{
		Name:    "alias",
		Source:  aliasSrc,
		Buffers: map[string]int{"x": 4 * n, "y": 4 * n},
		Inputs:  map[string][]byte{"x": f32bytes(x), "y": f32bytes(y)},
		Launches: []sched.Launch{
			{Kernel: "axpy", ND: nd, Args: args("x", "y", 1.5)},
			{Kernel: "scale", ND: nd, Args: args("y", "y", 0.75)},
			{Kernel: "scale", ND: nd, Args: args("y", "x", 2)},
		},
		Outputs: []string{"x", "y"},
	}
	single, err := sched.RunSingle(device.TeslaC2070(), app)
	if err != nil {
		t.Fatal(err)
	}
	topo := device.MustParseTopology("4gpu-bus")
	res, err := sched.RunTopology(topo, app, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checked := driveChecked(t, topo, app, "4gpu-bus")
	for _, name := range app.Outputs {
		if !bytes.Equal(res.Outputs[name], single.Outputs[name]) {
			t.Fatalf("%s differs from the single-device run's", name)
		}
		if !bytes.Equal(checked[name], single.Outputs[name]) {
			t.Fatalf("%s of the checked run differs from the single-device run's", name)
		}
	}
}

func f32bytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}
