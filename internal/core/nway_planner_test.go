package core

import (
	"bytes"
	"strings"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// topoScale builds a 1..N-device N-way runtime with the scale kernel compiled
// everywhere.
func topoScale(t *testing.T, cfgs ...device.Config) (*sim.Env, *Runtime, *Kernel) {
	t.Helper()
	env := sim.NewEnv()
	var devs []*device.Device
	for _, cfg := range cfgs {
		devs = append(devs, device.New(env, cfg))
	}
	rt, err := NewTopo(env, devs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rt.BuildProgram(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	return env, rt, prog.MustKernel("scale")
}

// TestPlannerOwnerSkipSingleDevice: on a one-device topology every merged run
// is owned by the device that computed it, so the planner must never enqueue
// a refresh — the owner's copy is already current — while still accounting
// the skipped rebroadcast bytes.
func TestPlannerOwnerSkipSingleDevice(t *testing.T) {
	const n, m = 256, 3
	env, rt, k := topoScale(t, device.XeonW3550())
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i%17) + 1
	}
	bufA := rt.CreateBuffer(4 * n)
	bufB := rt.CreateBuffer(4 * n)
	bufC := rt.CreateBuffer(4 * n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		nd := vm.NewNDRange1D(n, 16)
		if err := rt.EnqueueNDRangeKernel(p, k, nd,
			[]Arg{BufArg(bufA), BufArg(bufB), IntArg(n), IntArg(m)}); err != nil {
			t.Error(err)
			return
		}
		// Second kernel reads the first's output: with one device there is
		// nothing pending, so no flush may be enqueued.
		if err := rt.EnqueueNDRangeKernel(p, k, nd,
			[]Arg{BufArg(bufB), BufArg(bufC), IntArg(n), IntArg(m)}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufC)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	for i := 0; i < n; i++ {
		want := (float32(i%17) + 1) * 0.5 * float32(m) * 0.5 * float32(m)
		if got := f32at(out, i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	c := rt.Counters()
	if c.RefreshDeltas != 0 {
		t.Fatalf("owner-skip: single device enqueued %d delta refreshes, want 0", c.RefreshDeltas)
	}
	if c.RefreshBytesSkipped == 0 {
		t.Fatal("owner-skip: no refresh bytes accounted as skipped")
	}
}

// TestPlannerZeroChunkDeviceFullDelta: a device that claims no chunks of a
// kernel owns nothing, so its pending set must grow to the full dirty delta
// — and the next kernel touching the buffer there must flush it current
// before launching.
func TestPlannerZeroChunkDeviceFullDelta(t *testing.T) {
	const n, m = 16, 3
	env, rt, k := topoScale(t, device.XeonW3550(), device.XeonW3550())
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i) + 1
	}
	bufA := rt.CreateBuffer(4 * n)
	bufB := rt.CreateBuffer(4 * n)
	bufC := rt.CreateBuffer(4 * n)
	var devCopy []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		// One work-group total: the first worker claims it, the second
		// claims nothing.
		nd := vm.NewNDRange1D(n, n)
		if err := rt.EnqueueNDRangeKernel(p, k, nd,
			[]Arg{BufArg(bufA), BufArg(bufB), IntArg(n), IntArg(m)}); err != nil {
			t.Error(err)
			return
		}
		rep1 := rt.Reports[len(rt.Reports)-1]
		loser := -1
		for di, wgs := range rep1.DeviceWGs {
			if wgs == 0 {
				loser = di
			}
		}
		if loser < 0 {
			t.Error("expected one device to claim zero work-groups")
			return
		}
		if bufB.nway().pend[loser].empty() {
			t.Errorf("zero-chunk device %d has an empty pending set after the kernel", loser)
			return
		}
		// Every word the kernel wrote is non-zero over a zero-initialized
		// buffer, so the dirty delta is the whole buffer and the zero-chunk
		// device must be pending all of it.
		if got := bufB.nway().pend[loser].bytes(); got != bufB.Size {
			t.Errorf("zero-chunk device pending %d bytes, want the full dirty delta %d", got, bufB.Size)
		}
		// Kernel 2 reads bufB: the planner must flush the loser's delta
		// before its chunks may run.
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 4),
			[]Arg{BufArg(bufB), BufArg(bufC), IntArg(n), IntArg(m)}); err != nil {
			t.Error(err)
			return
		}
		rep2 := rt.Reports[len(rt.Reports)-1]
		if rep2.RefreshDeltas == 0 {
			t.Error("kernel 2 enqueued no delta refresh for the stale device")
		}
		if !bufB.nway().pend[loser].empty() {
			t.Errorf("pending set still non-empty after flush: %v", bufB.nway().pend[loser].spans)
		}
		devCopy = make([]byte, bufB.Size)
		p.Wait(rt.qs[loser].EnqueueReadBuffer(bufB.bufs[loser], devCopy))
	})
	env.Run()
	if devCopy == nil {
		t.Fatal("app did not complete")
	}
	if !bytes.Equal(devCopy, bufB.host) {
		t.Fatal("stale device copy differs from the host shadow after the delta flush")
	}
}

// TestPlannerWindowViolationBlocksRefresh: a chunk whose dynamic writes
// escape its certified ship window must hard-error before any merge lands or
// any delta refresh is enqueued (satellite soundness edge: the narrowed ship
// would otherwise silently drop the out-of-window bytes).
func TestPlannerWindowViolationBlocksRefresh(t *testing.T) {
	const n = 64
	env, rt, k := topoScale(t, device.XeonW3550())
	b := rt.CreateBuffer(4 * n)
	nd := vm.NewNDRange1D(n, 16)
	l := &launch{k: k, kid: 1, nd: nd, el: []elision{{}, {slotExact: true}},
		args: []Arg{{}, BufArg(b)}}
	nw := rt.proto.(*nway)
	o := nw.getOut(b, 1, l.el[1])
	var stats vm.Stats
	stats.ParamWriteMask = 1 << 1
	stats.WrLo[1] = 0
	stats.WrHi[1] = int32(b.Size) // way past chunk [0,0]'s 64-byte slot window
	wg := env.NewWaitGroup()
	err := nw.shipChunk(l, 0, 0, 0, []*nwayOut{o}, &stats, wg)
	if err == nil {
		t.Fatal("out-of-window dynamic write did not hard-error")
	}
	if !strings.Contains(err.Error(), "outside its certified window") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !o.dirty.empty() {
		t.Fatalf("merge state dirtied despite the violation: %v", o.dirty.spans)
	}
	if c := rt.Counters(); c.RefreshDeltas != 0 {
		t.Fatalf("delta refresh enqueued despite the violation: %d", c.RefreshDeltas)
	}
}
