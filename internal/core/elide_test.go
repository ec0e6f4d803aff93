package core

import (
	"strings"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// TestStaleCopyUploadedBeforeRelaunch keeps the stale-output scenario as a
// coherence check: kernel 1 leaves other devices' copies of its out buffer
// stale, and the same kernel then runs again on the same buffers. The second
// launch rewrites every word, yet each stale byte a device's chunk can leave
// unwritten must be current before that chunk runs: under the twin protocol
// (kernel 1 entirely on the CPU) one "upload" of the whole buffer to the GPU
// before kernel 2; under N-way (2cpu+2gpu) a "refresh" of exactly the
// device's pending bytes inside each chunk's ship window, landing before
// that chunk, and nothing for a device that claims no chunk.
func TestStaleCopyUploadedBeforeRelaunch(t *testing.T) {
	t.Run("twin", func(t *testing.T) {
		const n = 128
		env := sim.NewEnv()
		rec := trace.NewRecorder()
		env.Trace = rec
		gpu := device.TeslaC2070()
		gpu.KernelLaunchOverhead = 20e-3 // slow to start; CPU wins kernel 1
		rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, gpu), Options{})
		runTwice(t, env, rt, n, nil)
		if !rt.Reports[0].CPUDidAll {
			t.Fatal("GPU won kernel 1; the GPU copy was never stale")
		}
		ups := transfers(rec, "upload")
		if len(ups) != 1 || ups[0].bytes != 4*n || ups[0].dev != gpu.Name {
			t.Fatalf("uploads = %+v, want one of %d bytes to %s", ups, 4*n, gpu.Name)
		}
		checkLandsBeforeLaunch(t, rec, rt, ups)
	})
	t.Run("nway", func(t *testing.T) {
		// Big enough that kernel 2's chunks fall differently from kernel
		// 1's (kernel 1's first chunks also wait for a's upload).
		const n = 8192
		env := sim.NewEnv()
		rec := trace.NewRecorder()
		env.Trace = rec
		topo, err := device.ParseTopology("2cpu+2gpu")
		if err != nil {
			t.Fatal(err)
		}
		devs := topo.Build(env)
		rt, err := NewTopo(env, devs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Kernel 2 writes the values kernel 1 wrote, so its merge changes
		// nothing and a device's pending set only shrinks, by what it was
		// sent: the expected refresh bytes are the pending bytes between
		// the launches minus those left after them.
		var bufB *Buffer
		before := make([]int, len(devs))
		runTwice(t, env, rt, n, func(b *Buffer) {
			bufB = b
			for di := range devs {
				before[di] = b.pend[di].bytes()
			}
		})
		got := map[string]int{}
		total := 0
		for _, tr := range transfers(rec, "refresh") {
			if tr.start < rt.Reports[1].Start {
				t.Fatalf("refresh %+v before kernel 2 was enqueued at %v", tr, rt.Reports[1].Start)
			}
			got[tr.dev] += tr.bytes
			total += tr.bytes
		}
		if total == 0 {
			t.Fatal("kernel 2 refreshed nothing; its chunks fell exactly on kernel 1's")
		}
		for di, d := range devs {
			want := before[di] - bufB.pend[di].bytes()
			if rt.Reports[1].DeviceWGs[di] == 0 && want != 0 {
				t.Fatalf("device %d claimed no chunk of kernel 2 but its pending set shrank by %d", di, want)
			}
			if got[d.Cfg.Name] != want {
				t.Fatalf("%s: refreshed %d bytes, want %d", d.Cfg.Name, got[d.Cfg.Name], want)
			}
		}
		checkLandsBeforeChunk(t, rec, transfers(rec, "refresh"))
		if bad := pendingInvariant(rt); bad != "" {
			t.Fatal(bad)
		}
	})
}

// runTwice writes a = 3, runs k1 (b = 2a) twice over the same buffers,
// reads b back and requires every word to be 6. between, when set, sees b
// after the first launch.
func runTwice(t *testing.T, env *sim.Env, rt *Runtime, n int, between func(b *Buffer)) {
	t.Helper()
	prog, err := rt.BuildProgram(twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	k1 := prog.MustKernel("k1")
	a := make([]float32, n)
	for i := range a {
		a[i] = 3
	}
	bufA, bufB := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		nd := vm.NewNDRange1D(n, 16)
		for rep := 0; rep < 2; rep++ {
			if err := rt.EnqueueNDRangeKernel(p, k1, nd, []Arg{BufArg(bufA), BufArg(bufB), IntArg(int64(n))}); err != nil {
				t.Error(err)
				return
			}
			if rep == 0 && between != nil {
				between(bufB)
			}
		}
		out = rt.EnqueueReadBuffer(p, bufB)
	})
	env.Run()
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("app did not complete")
	}
	if bad := firstWrong("b", out, func(int) float32 { return 6 }); bad != "" {
		t.Fatal(bad)
	}
	if c := rt.Counters(); c.UploadsSkipped != 0 {
		t.Fatalf("UploadsSkipped = %d, want 0", c.UploadsSkipped)
	}
}

// transfer is one recorded link transfer.
type transfer struct {
	dev        string // the device's compute track
	start, end float64
	bytes      int
}

// transfers returns the link transfers rec holds under label, in record
// order.
func transfers(rec *trace.Recorder, label string) []transfer {
	tracks := rec.Tracks()
	var out []transfer
	for _, e := range rec.Events() {
		dev, ok := strings.CutSuffix(tracks[e.Track], " link")
		if !ok || e.Name != label {
			continue
		}
		tr := transfer{dev: dev, start: e.Start, end: e.Start + e.Dur}
		for _, kv := range e.Args {
			if kv.K == "bytes" {
				tr.bytes = int(kv.V)
			}
		}
		out = append(out, tr)
	}
	return out
}

// checkLandsBeforeLaunch requires each transfer to end no later than the
// first kernel launch its device starts after kernel 2 is enqueued.
func checkLandsBeforeLaunch(t *testing.T, rec *trace.Recorder, rt *Runtime, trs []transfer) {
	t.Helper()
	tracks := rec.Tracks()
	for _, tr := range trs {
		for _, e := range rec.Events() {
			if tracks[e.Track] == tr.dev && e.Name == "k1" && e.Start >= rt.Reports[1].Start {
				if e.Start < tr.end {
					t.Fatalf("%s ran kernel 2 at %v before its transfer %+v landed", tr.dev, e.Start, tr)
				}
				break
			}
		}
	}
}

// checkLandsBeforeChunk requires each transfer to end no later than the next
// kernel launch its device starts, and such a launch to exist: what a chunk
// is sent lands ahead of it.
func checkLandsBeforeChunk(t *testing.T, rec *trace.Recorder, trs []transfer) {
	t.Helper()
	tracks := rec.Tracks()
	for _, tr := range trs {
		next := -1.0
		for _, e := range rec.Events() {
			if tracks[e.Track] == tr.dev && e.Name == "k1" && e.Start >= tr.start && (next < 0 || e.Start < next) {
				next = e.Start
			}
		}
		if next < 0 || next < tr.end {
			t.Fatalf("transfer %+v is not ahead of a launch on its device (next launch at %v)", tr, next)
		}
	}
}
