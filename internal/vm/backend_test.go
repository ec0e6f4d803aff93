package vm

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluidicl/internal/passes"
)

// fusedTestSrc is a SYRK-shaped kernel whose inner loop is the reduction
// jam's grammar: affine indices (i*m+k), indexed loads feeding multiplies, a
// multiply-add chain and the loop-increment idiom.
const fusedTestSrc = `
__kernel void syrk_like(__global float* A, __global float* C, float alpha, int m, int n) {
    int i = get_global_id(0);
    int j = get_global_id(1);
    if (i < n && j < n) {
        float acc = C[i*n + j];
        for (int k = 0; k < m; k++) {
            acc += alpha * A[i*m + k] * A[j*m + k];
        }
        C[i*n + j] = acc;
    }
}
`

// TestSetBackend pins the built-in default: wg, the engine that runs every
// launch, both at start-up and as what SetBackend(BackendAuto) resets to;
// and the names -jsonout records.
func TestSetBackend(t *testing.T) {
	orig := DefaultBackend()
	defer SetBackend(orig)
	if orig != BackendWG {
		t.Errorf("process default is %v, want wg", orig)
	}
	if BackendInterp.String() != "interp" || BackendWG.String() != "wg" || BackendAuto.String() != "auto" {
		t.Errorf("Backend.String names changed")
	}
	SetBackend(BackendInterp)
	if DefaultBackend() != BackendInterp {
		t.Fatal("SetBackend(interp) not observed")
	}
	if got := BackendAuto.resolve(); got != BackendInterp {
		t.Fatalf("Auto resolved to %v with interp default", got)
	}
	SetBackend(BackendAuto) // resets to the built-in default
	if DefaultBackend() != BackendWG || builtinBackend != BackendWG {
		t.Fatalf("SetBackend(auto) reset to %v, want wg", DefaultBackend())
	}
}

func TestDisasmFusedGolden(t *testing.T) {
	k := MustCompile(fusedTestSrc, "syrk_like")
	got := k.Disasm()
	if !strings.Contains(got, "; wg.loop-fuse") {
		t.Fatalf("disasm lacks fusion annotations:\n%s", got)
	}
	golden := filepath.Join("testdata", "disasm_fused.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("fused disasm drifted from %s (UPDATE_GOLDEN=1 to regenerate)\ngot:\n%s", golden, got)
	}
}

// runBoth executes one work-group on the interpreter and on wg, which must
// run it in whole-group sets, and returns the two buffer states, stats, and
// errors.
func runBoth(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg) (bufI, bufW []string, stI, stW Stats, errI, errW error) {
	t.Helper()
	oneLane := BackendSnapshot().WGFallbackWGs
	run := func(be Backend) ([]string, Stats, error) {
		args := mkArgs()
		st, err := k.ExecWorkGroup(nd, [3]int{0, 0, 0}, args, ExecOpts{Backend: be})
		var bufs []string
		for _, a := range args {
			if a.Kind == ArgBuffer {
				bufs = append(bufs, string(a.Buf))
			}
		}
		return bufs, st, err
	}
	bufI, stI, errI = run(BackendInterp)
	bufW, stW, errW = run(BackendWG)
	if BackendSnapshot().WGFallbackWGs != oneLane {
		t.Fatal("the wg run ran in one-lane sets")
	}
	return
}

// TestBackendBarrierParity: a __local kernel matches the interpreter in
// one-lane sets (local_store); a barrier kernel over global memory only runs
// its phases in lockstep and matches it.
func TestBackendBarrierParity(t *testing.T) {
	rev := MustCompile(revSrc, "rev")
	n := 16
	mkArgs := func() []Arg {
		buf := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(i)*0.5))
		}
		return []Arg{BufArg(buf), IntArg(int64(n))}
	}
	before := BackendSnapshot().WGRejects[WGRejLocalStore]
	if err := runWGParity(t, rev, NewNDRange1D(n, 16), mkArgs); err != nil {
		t.Fatal(err)
	}
	if d := BackendSnapshot().WGRejects[WGRejLocalStore] - before; d != 1 {
		t.Errorf("%d local_store rejects for the __local kernel, want 1", d)
	}

	k := MustCompile(twoPhaseSrc, "twophase")
	bufI, bufW, stI, stW, errI, errW := runBoth(t, k, NewNDRange1D(n, 16), twoPhaseArgs(n))
	if errI != nil || errW != nil {
		t.Fatalf("errors: interp=%v wg=%v", errI, errW)
	}
	if stI != stW {
		t.Fatalf("Stats diverge:\ninterp: %+v\nwg:     %+v", stI, stW)
	}
	for i := range bufI {
		if bufI[i] != bufW[i] {
			t.Fatalf("buffer %d differs between backends", i)
		}
	}
	if stI.Barriers == 0 {
		t.Fatal("barrier phase not counted")
	}
}

// TestClosureErrorParity holds the interpreter and wg to the same errors. It
// keeps the name it had when the second engine was the closure engine: a
// rename retires four recorded test names (it has three subtests).
func TestClosureErrorParity(t *testing.T) {
	t.Run("oob", func(t *testing.T) {
		k := MustCompile(`__kernel void f(__global float* a, int n) { a[n] = 1.0f; }`, "f")
		_, _, _, _, errI, errW := runBoth(t, k, NewNDRange1D(1, 1), func() []Arg {
			return []Arg{BufArg(make([]byte, 8)), IntArg(99)}
		})
		if errI == nil || errW == nil || errI.Error() != errW.Error() {
			t.Fatalf("error mismatch:\ninterp: %v\nwg:     %v", errI, errW)
		}
	})
	t.Run("divzero", func(t *testing.T) {
		k := MustCompile(`__kernel void f(__global int* a, int d) { a[0] = 10 / d; }`, "f")
		_, _, _, _, errI, errW := runBoth(t, k, NewNDRange1D(1, 1), func() []Arg {
			return []Arg{BufArg(make([]byte, 4)), IntArg(0)}
		})
		if errI == nil || errW == nil || errI.Error() != errW.Error() {
			t.Fatalf("error mismatch:\ninterp: %v\nwg:     %v", errI, errW)
		}
	})
	t.Run("budget", func(t *testing.T) {
		// The wg engine charges the step budget per block, so the reported
		// pc may differ from the interpreter's; error presence and message
		// kind must agree (see wgexec.go's error-parity note).
		k := MustCompile(`__kernel void f(__global int* a) { while (true) { a[0] = 1; } }`, "f")
		for _, be := range []Backend{BackendInterp, BackendWG} {
			_, err := k.ExecWorkGroup(NewNDRange1D(1, 1), [3]int{0, 0, 0},
				[]Arg{BufArg(make([]byte, 4))}, ExecOpts{MaxSteps: 10000, Backend: be})
			if err == nil || !strings.Contains(err.Error(), "instruction budget exceeded") {
				t.Fatalf("%v: budget error not raised: %v", be, err)
			}
		}
	})
}

// triangularSrc is corr_kernel4's shape: lane j1 runs j2 from j1+1 to m, each
// j2 an n-trip reduction.
const triangularSrc = `
__kernel void tri(__global float* data, __global float* sym, int m, int n) {
    int j1 = get_global_id(0);
    for (int j2 = j1 + 1; j2 < m; j2++) {
        float acc = 0.0f;
        for (int k = 0; k < n; k++) { acc += data[k * m + j1] * data[k * m + j2]; }
        sym[j1 * m + j2] = acc;
    }
}`

// TestExecLaunchAllocs guards the scratch/engine pooling: after warm-up,
// repeated sequential launches must not allocate per work-group (wiState,
// memTracker, locals and the wg machine all come from the kernel's scratch
// pool). It runs the SYRK-shaped kernel as written and as the twin
// GPU sees it (passes.TransformGPU); in both, the wg engine must execute the
// loop through the reduction jam's loop closure, whose plans live in fixed
// arrays and whose scalar register file lives on the stack. It also runs
// the GPU variant of BenchmarkExecLaunch's STREAM kernel under an undo log,
// as the device does: group-uniform steps and the full-group store; and
// corr_kernel4's triangular shape, both variants, whose inner loops run for
// ever fewer lanes of a group, their loads appended to per-lane streams.
func TestExecLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	gpuSrc, _, err := TransformedSources(fusedTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	streamGPU, _, err := TransformedSources(StreamSrc)
	if err != nil {
		t.Fatal(err)
	}
	triGPU, _, err := TransformedSources(triangularSrc)
	if err != nil {
		t.Fatal(err)
	}
	const tm, tn = 16, 8
	triArgs := func() []Arg {
		return []Arg{BufArg(make([]byte, 4*tm*tn)), BufArg(make([]byte, 4*tm*tm)), IntArg(tm), IntArg(tn)}
	}
	const m, n, sn = 8, 8, 1024
	a := make([]byte, 4*m*n)
	c := make([]byte, 4*n*n)
	args := []Arg{BufArg(a), BufArg(c), FloatArg(1.5), IntArg(m), IntArg(n)}
	nd := NewNDRange2D(n, n, 4, 4)
	words := func() Arg { return BufArg(make([]byte, 4*sn)) }
	var log UndoLog
	for _, v := range []struct {
		name, src, kernel string
		nd                NDRange
		args              []Arg
		undo              *UndoLog
	}{
		{"source", fusedTestSrc, "syrk_like", nd, args, nil},
		{"gpuvar", gpuSrc, "syrk_like", nd, append(args[:len(args):len(args)], GPUAbortArgs(1, passes.NoCPUWork)...), nil},
		{"stream gpuvar, undo log", streamGPU, "stream", NewNDRange1D(sn, 256),
			append([]Arg{words(), words(), words(), FloatArg(0.75), IntArg(sn)}, GPUAbortArgs(1, passes.NoCPUWork)...), &log},
		{"triangular", triangularSrc, "tri", NewNDRange1D(tm, 8), triArgs(), nil},
		{"triangular gpuvar", triGPU, "tri", NewNDRange1D(tm, 8), append(triArgs(), GPUAbortArgs(1, passes.NoCPUWork)...), nil},
	} {
		k := MustCompile(v.src, v.kernel)
		for _, be := range []Backend{BackendInterp, BackendWG} {
			run := func() {
				if _, err := k.ExecLaunch(v.nd, v.args, ExecOpts{Backend: be, Undo: v.undo}); err != nil {
					t.Fatal(err)
				}
				log.Reset()
			}
			before, partial := BackendSnapshot(), PartialLoopBatches()
			run() // warm the pools
			after := BackendSnapshot()
			if be == BackendWG && after.WGFallbackWGs != before.WGFallbackWGs {
				t.Errorf("%s: the wg launch ran in one-lane sets", v.name)
			}
			if be == BackendWG && v.kernel != "stream" && after.WGLoopBatchesDyn == before.WGLoopBatchesDyn {
				t.Errorf("%s: the wg launch ran no loop closure", v.name)
			}
			if be == BackendWG && v.kernel == "tri" && PartialLoopBatches() == partial {
				t.Errorf("%s: the wg launch ran no loop closure for part of a group", v.name)
			}
			if avg := testing.AllocsPerRun(20, run); avg >= 1 {
				t.Errorf("%s/%v: ExecLaunch allocates %.1f allocs/op after warm-up", v.name, be, avg)
			}
		}
	}
}
