package device

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// TestLaunchBackendParityUnderAborts runs the same mid-abort launch on the
// interpreter, the closure engine and the lockstep engine and requires
// identical virtual times, counters, Stats and memory — with entry skips,
// mid-flight aborts and rollbacks all landing mid-launch. Every skipped or
// aborted group's words must equal the pre-launch inputs.
func TestLaunchBackendParityUnderAborts(t *testing.T) {
	k := vm.MustCompile(`
__kernel void work(__global float* a, __global float* b, int m) {
    int i = get_global_id(0);
    float s = b[i];
    for (int j = 0; j < m; j++) { s += 1.0f; }
    a[i] = s + 1.0f;
    b[i] = a[i] * 0.5f;
}
`, "work")
	cfg := TeslaC2070()
	cfg.ComputeUnits = 2
	cfg.Occupancy = 2
	const groups, local = 16, 32
	const n = groups * local

	mkBufs := func() ([]byte, []byte) {
		a := make([]byte, 4*n)
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(i)) // denormal-ish noise is fine
		}
		return a, b
	}
	a0, b0 := mkBufs()

	// Probe the abort-free launch duration to place status updates mid-run.
	var total sim.Time
	{
		env := sim.NewEnv()
		d := New(env, cfg)
		q := d.NewQueue("app")
		a, b := mkBufs()
		l := &Launch{Kernel: k, ND: vm.NewNDRange1D(n, local),
			Args: []vm.Arg{vm.BufArg(a), vm.BufArg(b), vm.IntArg(2000)}}
		q.Enqueue(l)
		env.Go("host", func(p *sim.Proc) { p.Wait(l.Done); total = p.Now() })
		env.Run()
		if l.Result.Err != nil {
			t.Fatal(l.Result.Err)
		}
	}

	run := func(be vm.Backend) (*LaunchResult, []byte, []byte, sim.Time) {
		env := sim.NewEnv()
		d := New(env, cfg)
		q := d.NewQueue("app")
		a, b := mkBufs()
		// Two updates land mid-launch, completing groups from the top down —
		// some in-flight groups abort and roll back, later ones entry-skip.
		fa := &fakeAbort{env: env,
			times:    []sim.Time{0.3 * total, 0.6 * total},
			doneFrom: []int{12, 6},
		}
		l := &Launch{Kernel: k, ND: vm.NewNDRange1D(n, local),
			Args:     []vm.Arg{vm.BufArg(a), vm.BufArg(b), vm.IntArg(2000)},
			Abort:    fa,
			MidAbort: true,
			Backend:  be,
		}
		q.Enqueue(l)
		var end sim.Time
		env.Go("host", func(p *sim.Proc) { p.Wait(l.Done); end = p.Now() })
		env.Run()
		if l.Result.Err != nil {
			t.Fatalf("%v: %v", be, l.Result.Err)
		}
		return l.Result, a, b, end
	}

	refRes, refA, refB, refEnd := run(vm.BackendInterp)
	if refRes.Aborted == 0 || refRes.Skipped == 0 {
		t.Fatalf("test schedule produced %d aborts and %d skips; timings need adjusting", refRes.Aborted, refRes.Skipped)
	}
	// A group either ran to completion (every a word written, none is zero)
	// or left no trace: skipped at entry, or aborted and rolled back.
	untouched := 0
	for g := 0; g < groups; g++ {
		lo, hi := 4*g*local, 4*(g+1)*local
		if bytes.Equal(refA[lo:hi], a0[lo:hi]) && bytes.Equal(refB[lo:hi], b0[lo:hi]) {
			untouched++
			continue
		}
		for i := lo; i < hi; i += 4 {
			if binary.LittleEndian.Uint32(refA[i:]) == 0 || bytes.Equal(refB[i:i+4], b0[i:i+4]) {
				t.Fatalf("group %d is partly applied: word %d kept its pre-launch value", g, i/4)
			}
		}
	}
	if untouched != refRes.Skipped+refRes.Aborted {
		t.Fatalf("%d groups hold their pre-launch words, want skipped+aborted = %d+%d",
			untouched, refRes.Skipped, refRes.Aborted)
	}

	for _, be := range []vm.Backend{vm.BackendClosure, vm.BackendWG} {
		lockstep := vm.BackendSnapshot().WGLoopWGs
		res, a, b, end := run(be)
		if be == vm.BackendWG && vm.BackendSnapshot().WGLoopWGs == lockstep {
			t.Error("wg: the lockstep engine never ran (every group fell back)")
		}
		if end != refEnd {
			t.Errorf("%v: virtual completion time %v, interp %v", be, end, refEnd)
		}
		if res.Executed != refRes.Executed || res.Skipped != refRes.Skipped || res.Aborted != refRes.Aborted {
			t.Errorf("%v: exec/skip/abort = %d/%d/%d, interp %d/%d/%d", be,
				res.Executed, res.Skipped, res.Aborted, refRes.Executed, refRes.Skipped, refRes.Aborted)
		}
		if res.Stats != refRes.Stats {
			t.Errorf("%v: stats differ:\ninterp=%+v\n%v=%+v", be, refRes.Stats, be, res.Stats)
		}
		if !bytes.Equal(a, refA) || !bytes.Equal(b, refB) {
			t.Errorf("%v: buffers differ from the interpreter's", be)
		}
	}
}
