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
// coherence check: kernel 1 runs entirely on one device, leaving every other
// device's copy of its out buffer stale, and the same kernel then runs again
// on the same buffers. The second launch rewrites every word, yet each stale
// copy must be brought current before the launch runs on its device: under
// the twin protocol one "upload" of the whole buffer to the GPU, under N-way
// (2cpu+2gpu) one "refresh" per device that did not compute kernel 1's
// result, each landing before that device's next chunk.
func TestStaleCopyUploadedBeforeRelaunch(t *testing.T) {
	const n = 128
	t.Run("twin", func(t *testing.T) {
		env := sim.NewEnv()
		rec := trace.NewRecorder()
		env.Trace = rec
		gpu := device.TeslaC2070()
		gpu.KernelLaunchOverhead = 20e-3 // slow to start; CPU wins kernel 1
		rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, gpu), Options{})
		runTwice(t, env, rt, n)
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
		runTwice(t, env, rt, n)
		// Kernel 1 changes every word, and the devices' own runs partition
		// the buffer, so each device is missing all but its own share: in
		// all, every byte once per device but one.
		total := 0
		for _, tr := range transfers(rec, "refresh") {
			if tr.start < rt.Reports[1].Start {
				t.Fatalf("refresh %+v before kernel 2 was enqueued at %v", tr, rt.Reports[1].Start)
			}
			total += tr.bytes
		}
		if want := (len(devs) - 1) * 4 * n; total != want {
			t.Fatalf("refreshed %d bytes, want %d", total, want)
		}
		checkLandsBeforeLaunch(t, rec, rt, transfers(rec, "refresh"))
	})
}

// runTwice writes a = 3, runs k1 (b = 2a) twice over the same buffers,
// reads b back and requires every word to be 6 and no upload skipped.
func runTwice(t *testing.T, env *sim.Env, rt *Runtime, n int) {
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
