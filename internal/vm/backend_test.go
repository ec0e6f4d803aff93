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

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"interp", BackendInterp, true},
		{"interpreter", BackendInterp, true},
		{"wg", BackendWG, true},
		{"workgroup", BackendWG, true},
		{"auto", BackendAuto, true},
		{"", BackendAuto, true},
		{"WG", BackendWG, true},
		{"jit", BackendAuto, false},
		// The retired engine's name is an error, not a silent fallback.
		{"closure", BackendAuto, false},
		{"closures", BackendAuto, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if BackendInterp.String() != "interp" || BackendWG.String() != "wg" || BackendAuto.String() != "auto" {
		t.Errorf("Backend.String round-trip broken")
	}
}

// TestSetBackend pins the built-in default: wg, the engine the benchmark
// measures, both at start-up (when FLUIDICL_BACKEND chooses nothing) and as
// what SetBackend(BackendAuto) resets to.
func TestSetBackend(t *testing.T) {
	orig := DefaultBackend()
	defer SetBackend(orig)
	if os.Getenv("FLUIDICL_BACKEND") == "" && orig != BackendWG {
		t.Errorf("process default is %v with no FLUIDICL_BACKEND, want wg", orig)
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

// TestBackendEnvHonoured fails whenever FLUIDICL_BACKEND is set and the
// process is not running the engine it names — a misspelt value used to be
// ignored, so `FLUIDICL_BACKEND=closuer go test ./...` ran the default engine
// and reported green. Tests that change the default restore it, so the
// default seen here is the one init chose.
func TestBackendEnvHonoured(t *testing.T) {
	env := os.Getenv("FLUIDICL_BACKEND")
	if err := BackendEnvErr(); err != nil {
		t.Fatal(err)
	}
	want, _ := ParseBackend(env)
	if want == BackendAuto {
		want = builtinBackend
	}
	if got := DefaultBackend(); got != want {
		t.Fatalf("FLUIDICL_BACKEND=%q but the process default is %v", env, got)
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
// run it in lockstep, and returns the two buffer states, stats, and errors.
func runBoth(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg) (bufI, bufW []string, stI, stW Stats, errI, errW error) {
	t.Helper()
	lockstep := BackendSnapshot().WGLoopWGs
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
	if BackendSnapshot().WGLoopWGs == lockstep {
		t.Fatal("the wg run fell back to the interpreter")
	}
	return
}

func TestBackendBarrierParity(t *testing.T) {
	k := MustCompile(`
__kernel void rev(__global float* a, int n) {
    __local float tmp[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    tmp[l] = a[g];
    barrier(CLK_LOCAL_MEM_FENCE);
    a[g] = tmp[15 - l] + 1.0f;
}
`, "rev")
	n := 16
	mkArgs := func() []Arg {
		buf := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(i)*0.5))
		}
		return []Arg{BufArg(buf), IntArg(int64(n))}
	}
	bufI, bufW, stI, stW, errI, errW := runBoth(t, k, NewNDRange1D(n, 16), mkArgs)
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

// TestExecLaunchAllocs guards the scratch/engine pooling: after warm-up,
// repeated sequential launches must not allocate per work-group (wiState,
// memTracker, locals and the wg machine all come from the kernel's scratch
// pool). It runs the SYRK-shaped kernel as written and as the twin
// GPU sees it (passes.TransformGPU); in both, the wg engine must execute the
// loop through the reduction jam's loop closure, whose plans live in fixed
// arrays and whose scalar register file lives on the stack.
func TestExecLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	gpuSrc, _, err := TransformedSources(fusedTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 8, 8
	a := make([]byte, 4*m*n)
	c := make([]byte, 4*n*n)
	args := []Arg{BufArg(a), BufArg(c), FloatArg(1.5), IntArg(m), IntArg(n)}
	nd := NewNDRange2D(n, n, 4, 4)
	for _, v := range []struct {
		name string
		src  string
		args []Arg
	}{
		{"source", fusedTestSrc, args},
		{"gpuvar", gpuSrc, append(args[:len(args):len(args)], GPUAbortArgs(1, passes.NoCPUWork)...)},
	} {
		k := MustCompile(v.src, "syrk_like")
		for _, be := range []Backend{BackendInterp, BackendWG} {
			run := func() {
				if _, err := k.ExecLaunch(nd, v.args, ExecOpts{Backend: be}); err != nil {
					t.Fatal(err)
				}
			}
			loopsBefore := BackendSnapshot().WGLoopBatchesDyn
			run() // warm the pools
			if be == BackendWG && BackendSnapshot().WGLoopBatchesDyn == loopsBefore {
				t.Errorf("%s: the wg launch ran no loop closure", v.name)
			}
			if avg := testing.AllocsPerRun(20, run); avg >= 1 {
				t.Errorf("%s/%v: ExecLaunch allocates %.1f allocs/op after warm-up", v.name, be, avg)
			}
		}
	}
}
