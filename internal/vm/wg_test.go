package vm

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Tests for the whole-work-group lockstep backend: parity against the
// per-item engines on barrier shapes the certificate accepts, and correct
// fallback (never wrong answers) on the shapes it must reject.

// revSrc is the local-memory reversal kernel: one barrier, a __local array
// written by local id and read reversed.
const revSrc = `
__kernel void rev(__global float* a, int n) {
    __local float tmp[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    tmp[l] = a[g];
    barrier(CLK_LOCAL_MEM_FENCE);
    a[g] = tmp[15 - l] + 1.0f;
}
`

func floatBuf(n int, f func(i int) float32) []byte {
	buf := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f(i)))
	}
	return buf
}

// runWGParity executes the launch under interp and wg and requires identical
// buffers, Stats, and error presence. It returns the wg-side error.
func runWGParity(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg) error {
	t.Helper()
	run := func(be Backend) ([]string, Stats, error) {
		args := mkArgs()
		st, err := k.ExecLaunch(nd, args, ExecOpts{Backend: be})
		var bufs []string
		for _, a := range args {
			if a.Kind == ArgBuffer {
				bufs = append(bufs, string(a.Buf))
			}
		}
		return bufs, st, err
	}
	bufI, stI, errI := run(BackendInterp)
	bufW, stW, errW := run(BackendWG)
	if (errI == nil) != (errW == nil) {
		t.Fatalf("error disagreement: interp=%v wg=%v", errI, errW)
	}
	if errI != nil {
		return errW
	}
	if stI != stW {
		t.Fatalf("Stats diverge:\ninterp: %+v\nwg:     %+v", stI, stW)
	}
	for i := range bufI {
		if bufI[i] != bufW[i] {
			t.Fatalf("buffer %d differs between interp and wg", i)
		}
	}
	return nil
}

func TestWGBarrierParity(t *testing.T) {
	k := MustCompile(revSrc, "rev")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the rev kernel")
	}
	before := BackendSnapshot()
	if err := runWGParity(t, k, NewNDRange1D(32, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(32, func(i int) float32 { return float32(i) * 0.5 })), IntArg(32)}
	}); err != nil {
		t.Fatal(err)
	}
	after := BackendSnapshot()
	if got := after.WGLoopWGs - before.WGLoopWGs; got != 2 {
		t.Errorf("WGLoopWGs advanced by %d, want 2 (both groups on the lockstep engine)", got)
	}
	if after.WGFallbackWGs != before.WGFallbackWGs {
		t.Errorf("WGFallbackWGs advanced for a certified kernel")
	}
}

func TestWGBarrierInLoopParity(t *testing.T) {
	k := MustCompile(`
__kernel void iterrev(__global float* a, int rounds) {
    __local float tmp[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    float v = a[g];
    for (int r = 0; r < rounds; r++) {
        tmp[l] = v;
        barrier(CLK_LOCAL_MEM_FENCE);
        v = tmp[15 - l] * 0.5f + 1.0f;
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    a[g] = v;
}
`, "iterrev")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the barrier-in-loop kernel")
	}
	if len(k.wg.regions) != 3 {
		t.Errorf("expected 3 barrier regions (entry + two resumes), got %d", len(k.wg.regions))
	}
	if err := runWGParity(t, k, NewNDRange1D(16, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) - 3 })), IntArg(5)}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWG2DLocalParity(t *testing.T) {
	k := MustCompile(`
__kernel void t2d(__global float* a, int w) {
    __local float tile[16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    tile[ly*4 + lx] = a[gy*w + gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    a[gy*w + gx] = tile[lx*4 + ly] + 2.0f;
}
`, "t2d")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the 2D local kernel")
	}
	const w = 8
	if err := runWGParity(t, k, NewNDRange2D(w, w, 4, 4), func() []Arg {
		return []Arg{BufArg(floatBuf(w*w, func(i int) float32 { return float32(i%7) * 1.25 })), IntArg(w)}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWGDivergentBarrierFallback(t *testing.T) {
	// The barrier hides under control flow the static analyzer flags as
	// work-item-divergent (condition on get_global_id), so buildWG must
	// reject the kernel and the wg backend must fall back — with correct
	// results, since g >= 0 is dynamically uniform (always true).
	k := MustCompile(`
__kernel void divb(__global float* a, int n) {
    __local float tmp[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    tmp[l] = a[g];
    if (g >= 0) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    a[g] = tmp[15 - l];
}
`, "divb")
	if k.wg != nil {
		t.Fatal("wg compilation accepted a divergent-barrier kernel")
	}
	before := BackendSnapshot()
	if err := runWGParity(t, k, NewNDRange1D(16, 16), func() []Arg {
		return []Arg{
			BufArg(floatBuf(16, func(i int) float32 { return float32(i) })),
			IntArg(16),
		}
	}); err != nil {
		t.Fatal(err)
	}
	after := BackendSnapshot()
	if after.WGLoopWGs != before.WGLoopWGs {
		t.Errorf("lockstep engine ran a rejected kernel")
	}
	if after.WGFallbackWGs == before.WGFallbackWGs {
		t.Errorf("WGFallbackWGs did not advance on the fallback path")
	}
}

func TestWGUncertifiedFallback(t *testing.T) {
	// Structurally fine (wg compiles), but the store index is loaded from a
	// buffer, so the launch-time certificate sees TOP and must refuse: the
	// scatter may collide across work-items, where lockstep block order and
	// interp item order would disagree. idx maps item l to slot 15-l, so the
	// sequential result is well-defined and must be reproduced exactly.
	k := MustCompile(`
__kernel void scatter(__global float* a, __global int* idx, int n) {
    int l = get_local_id(0);
    a[idx[l]] = (float)l;
}
`, "scatter")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the scatter kernel (expected launch-time fallback instead)")
	}
	before := BackendSnapshot()
	if err := runWGParity(t, k, NewNDRange1D(16, 16), func() []Arg {
		ib := make([]byte, 4*16)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(ib[4*i:], uint32(15-i))
		}
		return []Arg{BufArg(make([]byte, 4*16)), BufArg(ib), IntArg(16)}
	}); err != nil {
		t.Fatal(err)
	}
	after := BackendSnapshot()
	if after.WGLoopWGs != before.WGLoopWGs {
		t.Errorf("lockstep engine ran an uncertified launch")
	}
	if after.WGFallbackWGs == before.WGFallbackWGs {
		t.Errorf("WGFallbackWGs did not advance on the uncertified path")
	}
}

func TestWGAliasedBuffersFallback(t *testing.T) {
	// Two buffer params backed by the same storage defeat the certificate's
	// per-object disjointness, so the group must fall back even though the
	// index forms certify. Parity against interp with the same aliasing.
	k := MustCompile(`
__kernel void axpy(__global float* x, __global float* y, int n) {
    int g = get_global_id(0);
    y[g] = x[g] * 2.0f;
}
`, "axpy")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the axpy kernel")
	}
	shared := floatBuf(16, func(i int) float32 { return float32(i) })
	before := BackendSnapshot()
	run := func(be Backend) string {
		buf := append([]byte(nil), shared...)
		if _, err := k.ExecLaunch(NewNDRange1D(16, 16),
			[]Arg{BufArg(buf), BufArg(buf), IntArg(16)}, ExecOpts{Backend: be}); err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if run(BackendInterp) != run(BackendWG) {
		t.Fatal("aliased-buffer results differ between interp and wg")
	}
	if got := BackendSnapshot().WGLoopWGs; got != before.WGLoopWGs {
		t.Errorf("lockstep engine ran an aliased launch")
	}
}

func TestWGPrivateArrayFallback(t *testing.T) {
	// Barrier-free kernels with private arrays must not build a wg program:
	// the per-item engines share one un-cleared slab across a group's items
	// (see buildWG), which lockstep cannot reproduce.
	k := MustCompile(`
__kernel void privsum(__global float* a, int n) {
    float acc[4];
    int g = get_global_id(0);
    acc[0] = a[g];
    a[g] = acc[0] + 1.0f;
}
`, "privsum")
	if k.wg != nil {
		t.Fatal("wg compilation accepted a barrier-free kernel with a private array")
	}
	if err := runWGParity(t, k, NewNDRange1D(16, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) })), IntArg(16)}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWGAbortRollbackParity(t *testing.T) {
	// A certified kernel that faults mid-group: with an undo log, rolling
	// back must restore the buffers exactly on every backend, and error
	// presence must agree (the faulting work-item and partial writes may
	// differ — set order decides who trips first).
	k := MustCompile(`
__kernel void oob(__global float* a, int off) {
    int g = get_global_id(0);
    a[g + off] = 1.0f;
}
`, "oob")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the oob kernel")
	}
	orig := floatBuf(16, func(i int) float32 { return float32(i) * 0.25 })
	for _, be := range []Backend{BackendInterp, BackendWG} {
		buf := append([]byte(nil), orig...)
		var undo UndoLog
		_, err := k.ExecWorkGroup(NewNDRange1D(16, 16), [3]int{0, 0, 0},
			[]Arg{BufArg(buf), IntArg(8)}, ExecOpts{Undo: &undo, Backend: be})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%v: expected out-of-range store error, got %v", be, err)
		}
		undo.Rollback()
		if string(buf) != string(orig) {
			t.Fatalf("%v: rollback did not restore the buffer after mid-group abort", be)
		}
	}
}

func TestWGCompileCounters(t *testing.T) {
	before := BackendSnapshot()
	k := MustCompile(revSrc, "rev")
	after := BackendSnapshot()
	if k.wg == nil {
		t.Fatal("wg compilation rejected the rev kernel")
	}
	if got := after.WGKernels - before.WGKernels; got != 1 {
		t.Errorf("WGKernels advanced by %d, want 1", got)
	}
	if got := after.WGRegions - before.WGRegions; got != 2 {
		t.Errorf("WGRegions advanced by %d, want 2 (entry + one barrier resume)", got)
	}
}

func TestWGBudgetErrorParity(t *testing.T) {
	// The banked budget check charges a whole block at once, yet both
	// backends raise the budget error on the same launches.
	k := MustCompile(`__kernel void f(__global int* a) { while (true) { a[0] = 1; } }`, "f")
	for _, be := range []Backend{BackendInterp, BackendWG} {
		_, err := k.ExecWorkGroup(NewNDRange1D(1, 1), [3]int{0, 0, 0},
			[]Arg{BufArg(make([]byte, 4))}, ExecOpts{MaxSteps: 10000, Backend: be})
		if err == nil || !strings.Contains(err.Error(), "instruction budget exceeded") {
			t.Fatalf("%v: budget error not raised: %v", be, err)
		}
	}
}

func TestDisasmWGGolden(t *testing.T) {
	k := MustCompile(revSrc, "rev")
	got := k.Disasm()
	if !strings.Contains(got, "; -- wg region") || !strings.Contains(got, "; wg.loop") {
		t.Fatalf("disasm lacks wg annotations:\n%s", got)
	}
	golden := filepath.Join("testdata", "disasm_wg.golden")
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
		t.Errorf("wg disasm drifted from %s (UPDATE_GOLDEN=1 to regenerate)\ngot:\n%s", golden, got)
	}
}

// TestWGLocalIDTablesFollowTheShape: a pooled lockstep machine keeps its
// local-id tables from group to group and must refill them when the local
// shape changes at an unchanged work-group size.
func TestWGLocalIDTablesFollowTheShape(t *testing.T) {
	k := MustCompile(`
__kernel void lids(__global float* out, int w, int h) {
    int g = (get_global_id(2) * h + get_global_id(1)) * w + get_global_id(0);
    out[g] = get_local_id(0) + 100 * get_local_id(1) + 10000 * get_local_id(2);
}
`, "lids")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the lids kernel")
	}
	const n = 512
	sc := &wgScratch{} // one scratch, as the kernel's pool hands out
	before := BackendSnapshot()
	for i, nd := range []NDRange{
		NewNDRange1D(n, 256),
		NewNDRange2D(32, 16, 16, 16),
		NewNDRange(3, [3]int{16, 8, 4}, [3]int{8, 8, 4}),
		NewNDRange1D(n, 256),
	} {
		w, h := IntArg(int64(nd.NumGroups[0]*nd.LocalSize[0])), IntArg(int64(nd.LocalSize[1]))
		want, got := make([]byte, 4*n), make([]byte, 4*n)
		for g := 0; g < nd.TotalGroups(); g++ {
			group := [3]int{g, 0, 0}
			if _, err := k.execWG(nd, group, []Arg{BufArg(want), w, h}, ExecOpts{Backend: BackendInterp}, &wgScratch{}); err != nil {
				t.Fatal(err)
			}
			if _, err := k.execWG(nd, group, []Arg{BufArg(got), w, h}, ExecOpts{Backend: BackendWG}, sc); err != nil {
				t.Fatal(err)
			}
		}
		if string(got) != string(want) {
			t.Errorf("launch %d (local %v): wg on the reused scratch differs from the interpreter", i, nd.LocalSize)
		}
	}
	if d := BackendSnapshot().WGLoopWGs - before.WGLoopWGs; d != 8 {
		t.Errorf("%d of 8 groups ran on the lockstep engine", d)
	}
}
