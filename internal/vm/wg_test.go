package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Tests for the whole-work-group lockstep backend: parity against the
// interpreter on barrier shapes the certificate accepts, and on the shapes it
// must reject, which run in one-lane sets in work-item order.

// revSrc is the local-memory reversal kernel: one barrier, a __local array
// written by local id and read reversed. It stores to __local, so wg runs it
// in one-lane sets (local_store).
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

// twoPhaseSrc is a barrier kernel over global memory only: every item writes
// its own word of tmp, crosses the barrier and reads that word back. The
// certificate admits it, so wg runs both barrier phases in lockstep.
const twoPhaseSrc = `
__kernel void twophase(__global float* in, __global float* tmp, __global float* out, int n) {
    int g = get_global_id(0);
    tmp[g] = in[g] * 0.5f;
    barrier(CLK_GLOBAL_MEM_FENCE);
    out[g] = tmp[g] + in[n - 1 - g];
}
`

// twoPhaseArgs returns twoPhaseSrc's arguments for n work-items.
func twoPhaseArgs(n int) func() []Arg {
	return func() []Arg {
		return []Arg{BufArg(floatBuf(n, func(i int) float32 { return float32(i)*0.5 - 3 })),
			BufArg(make([]byte, 4*n)), BufArg(make([]byte, 4*n)), IntArg(int64(n))}
	}
}

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

// TestWGBarrierParity: the __local reversal runs group by group in one-lane
// sets with reason local_store and matches the interpreter; the global-only
// barrier kernel runs both groups' barrier phases in lockstep and matches it
// too.
func TestWGBarrierParity(t *testing.T) {
	k := MustCompile(revSrc, "rev")
	if err := oneLaneParity(t, k, NewNDRange1D(32, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(32, func(i int) float32 { return float32(i) * 0.5 })), IntArg(32)}
	}, WGRejLocalStore); err != nil {
		t.Fatal(err)
	}

	k = MustCompile(twoPhaseSrc, "twophase")
	before := BackendSnapshot()
	if err := runWGParity(t, k, NewNDRange1D(32, 16), twoPhaseArgs(32)); err != nil {
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
	const w = 8
	if err := runWGParity(t, k, NewNDRange2D(w, w, 4, 4), func() []Arg {
		return []Arg{BufArg(floatBuf(w*w, func(i int) float32 { return float32(i%7) * 1.25 })), IntArg(w)}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWGDivergentBarrierFallback keeps the name it had when a barrier the
// analyzer flags as divergent kept its kernel off the lockstep engine. Such a
// kernel now compiles like any other and its barriers are checked where they
// run: a flagged barrier every item reaches runs in lockstep and matches the
// interpreter, and the two ways items can fail to meet at one barrier are the
// same error on both engines.
func TestWGDivergentBarrierFallback(t *testing.T) {
	// g >= 0 depends on the global id, so the analyzer flags the barrier,
	// but every item takes it.
	k := MustCompile(`
__kernel void flagged(__global float* a, __global float* b, int n) {
    int g = get_global_id(0);
    a[g] = a[g] * 2.0f;
    if (g >= 0) {
        barrier(CLK_GLOBAL_MEM_FENCE);
    }
    b[g] = a[g] + 1.0f;
}
`, "flagged")
	if !k.sum.HasDivergentBarrier() {
		t.Fatal("the analyzer does not flag the barrier under g >= 0")
	}
	before := BackendSnapshot()
	if err := runWGParity(t, k, NewNDRange1D(32, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(32, func(i int) float32 { return float32(i) - 7 })), BufArg(make([]byte, 4*32)), IntArg(32)}
	}); err != nil {
		t.Fatal(err)
	}
	after := BackendSnapshot()
	if got := after.WGLoopWGs - before.WGLoopWGs; got != 2 {
		t.Errorf("WGLoopWGs advanced by %d, want 2 (both groups in lockstep)", got)
	}
	if after.WGFallbackWGs != before.WGFallbackWGs {
		t.Errorf("WGFallbackWGs advanced for a flagged barrier every item reaches")
	}

	for _, c := range []struct{ name, body, msg string }{
		{"split", "if (l < 8) { barrier(CLK_GLOBAL_MEM_FENCE); } else { barrier(CLK_GLOBAL_MEM_FENCE); }",
			"work-items diverged to different barriers"},
		{"skipped", "if (l < 8) { barrier(CLK_GLOBAL_MEM_FENCE); }",
			"barrier not reached by all work-items"},
	} {
		k := MustCompile(`
__kernel void div(__global float* a, int n) {
    int g = get_global_id(0);
    int l = get_local_id(0);
    a[g] = (float)l;
    `+c.body+`
    a[g] = a[g] + 1.0f;
}
`, "div")
		before := BackendSnapshot()
		for _, be := range []Backend{BackendInterp, BackendWG} {
			_, err := k.ExecLaunch(NewNDRange1D(16, 16), []Arg{BufArg(make([]byte, 4*16)), IntArg(16)}, ExecOpts{Backend: be})
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("%s on %v: got %v, want %q", c.name, be, err, c.msg)
			}
		}
		if d := BackendSnapshot(); d.WGLoopWGs-before.WGLoopWGs != 1 || d.WGFallbackWGs != before.WGFallbackWGs {
			t.Errorf("%s: WGLoopWGs advanced by %d, WGFallbackWGs by %d; want 1 and 0 (the wg run in lockstep)",
				c.name, d.WGLoopWGs-before.WGLoopWGs, d.WGFallbackWGs-before.WGFallbackWGs)
		}
	}
}

func TestWGUncertifiedFallback(t *testing.T) {
	// The store index is loaded from a buffer, so the launch-time
	// certificate must refuse: the scatter may collide across work-items,
	// where lockstep block order and interp item order would disagree. Two
	// groups, and in each idx maps item l to slot 15-l of the group's words,
	// items 2l and 2l+1 to one slot: the last writer, in item order, wins.
	k := MustCompile(`
__kernel void scatter(__global float* a, __global int* idx, int n) {
    int g = get_global_id(0);
    a[idx[g]] = (float)g;
}
`, "scatter")
	if err := oneLaneParity(t, k, NewNDRange1D(32, 16), func() []Arg {
		ib := make([]byte, 4*32)
		for i := 0; i < 32; i++ {
			binary.LittleEndian.PutUint32(ib[4*i:], uint32(i/16*16+15-i%16/2))
		}
		return []Arg{BufArg(make([]byte, 4*32)), BufArg(ib), IntArg(32)}
	}, WGRejUnknownStore); err != nil {
		t.Fatal(err)
	}
}

// TestWGWalkerHoles: three kernels whose every work-item stores to word 0 or
// past its own slot while a careless strided walker would summarize the
// store as one slot per item, certify the launch disjoint and run it in
// lockstep. The summary must refuse the certificate instead, so wg runs
// one-lane sets and reproduces the interpreter's bytes.
func TestWGWalkerHoles(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		// n is 0: the loop runs no trip and t stays 0 for every item.
		{"zero-trip loop", `
__kernel void f(__global float* out, int n) {
    int g = get_global_id(0);
    int t = 0;
    for (int k = 0; k < n; k++) { t = g; }
    out[t] += 1.0f;
}`},
		// The first trip raises the bound: k runs 0, 1, 2, not only 0.
		{"bound the body reassigns", `
__kernel void f(__global float* out, int n) {
    int g = get_global_id(0);
    int m = 1;
    for (int k = 0; k < m; k++) { out[g + k] = (float)g; m = 3; }
}`},
		// The inner t hides the outer one only inside the block.
		{"shadowed declaration", `
__kernel void f(__global float* out, int n) {
    int g = get_global_id(0);
    int t = 0;
    { int t = g; out[t] = 0.5f; }
    out[t] += 1.0f;
}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := MustCompile(tc.src, "f")
			before := BackendSnapshot()
			if err := runWGParity(t, k, NewNDRange1D(16, 16), func() []Arg {
				return []Arg{BufArg(make([]byte, 4*18)), IntArg(0)}
			}); err != nil {
				t.Fatal(err)
			}
			if after := BackendSnapshot(); after.WGFallbackWGs == before.WGFallbackWGs {
				t.Errorf("the launch ran in whole-group sets; want one-lane sets")
			}
		})
	}
}

func TestWGAliasedBuffersFallback(t *testing.T) {
	// Two buffer params backed by the same storage defeat the certificate's
	// per-object disjointness, so the group must run in one-lane sets even
	// though the index forms certify. Parity against interp with the same
	// aliasing.
	k := MustCompile(`
__kernel void axpy(__global float* x, __global float* y, int n) {
    int g = get_global_id(0);
    y[g] = x[g] * 2.0f;
}
`, "axpy")
	if err := oneLaneParity(t, k, NewNDRange1D(16, 16), func() []Arg {
		buf := floatBuf(16, func(i int) float32 { return float32(i) })
		return []Arg{BufArg(buf), BufArg(buf), IntArg(16)}
	}, WGRejAlias); err != nil {
		t.Fatal(err)
	}
}

// TestWGOffsetOverlapFallback: two buffer arguments that are views of one
// array at different offsets alias as surely as equal ones. y[g] = x[g] + 1
// over x = mem[0:16], y = mem[1:17] (in words) carries each item's result to
// the next item sequentially, which lockstep order cannot reproduce.
func TestWGOffsetOverlapFallback(t *testing.T) {
	k := MustCompile(`
__kernel void carry(__global float* x, __global float* y) {
    int g = get_global_id(0);
    y[g] = x[g] + 1.0f;
}
`, "carry")
	before := BackendSnapshot()
	run := func(be Backend) []byte {
		mem := make([]byte, 4*17)
		if _, err := k.ExecLaunch(NewNDRange1D(16, 16),
			[]Arg{BufArg(mem[0:64]), BufArg(mem[4:68])}, ExecOpts{Backend: be}); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	want := floatBuf(17, func(i int) float32 { return float32(i) })
	for _, be := range []Backend{BackendInterp, BackendWG} {
		if got := run(be); string(got) != string(want) {
			t.Errorf("%v: got %v, want 0, 1, 2, ... 16", be, got)
		}
	}
	if d := BackendSnapshot().WGRejects[WGRejAlias] - before.WGRejects[WGRejAlias]; d != 1 {
		t.Errorf("%d alias rejects, want 1", d)
	}
}

// TestWGPrivateArrayFallback keeps the name it had when barrier-free
// kernels with private arrays ran on the interpreter. It pins the one
// private-memory rule every engine keeps: a work-item's private slabs start
// zeroed. Each item reads two elements before it writes them, one of them an
// element every earlier item of its group wrote, so an engine that carried a
// slab from one item to the next would read the earlier item's values.
func TestWGPrivateArrayFallback(t *testing.T) {
	const src = `
__kernel void privsum(__global float* a, int n) {
    float acc[4];
    int g = get_global_id(0);
    int l = get_local_id(0);
    a[g] = a[g] + acc[l % 4] + acc[3];
    acc[l % 4] = a[g] + 1.0f;
    acc[3] = acc[3] + 2.0f;
    a[g] = a[g] + acc[l % 4] * 0.5f + acc[3];
}
`
	k := MustCompile(src, "privsum")
	if k.HasBarrier || len(k.PrivArrs) == 0 {
		t.Fatal("want a barrier-free kernel with a private array")
	}
	before := BackendSnapshot()
	diffFiveWay(t, "privsum", src, "privsum", NewNDRange1D(32, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(32, func(i int) float32 { return float32(i) * 0.25 })), IntArg(32)}
	})
	if d := BackendSnapshot(); d.WGLoopWGs == before.WGLoopWGs || d.WGFallbackWGs != before.WGFallbackWGs {
		t.Error("the private-array kernel did not run in whole-group sets")
	}

	// A declaration that executes again keeps its array: each trip reads
	// tt[0] before writing it and sees the trip before's value, in the AST
	// referee as in the VM's one slab per work-item.
	diffFiveWay(t, "private array declared in a loop", `
__kernel void t(__global float* a, int n) {
    int g = get_global_id(0);
    for (int j = 0; j < 3; j++) {
        float tt[2];
        a[g] = a[g] + tt[0];
        tt[0] = (float)j + 1.0f;
    }
}`, "t", NewNDRange1D(32, 16), func() []Arg {
		return []Arg{BufArg(floatBuf(32, func(i int) float32 { return float32(i) })), IntArg(32)}
	})
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
	MustCompile(revSrc, "rev")
	after := BackendSnapshot()
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

// TestWGBudgetAcrossPhases: the step budget is per work-item over its whole
// run, not per barrier phase, on every engine. Each phase of the loop below
// fits in 100 steps and the run does not. With a and b one buffer the
// certificate rejects the launch (alias), so wg runs it in one-lane sets.
// The texts agree but for the pc: wg names the leader of the block whose
// charge overran (wgexec.go).
var pcRE = regexp.MustCompile(`at pc=\d+`)

func TestWGBudgetAcrossPhases(t *testing.T) {
	k := MustCompile(`__kernel void f(__global float* a, __global float* b) {
    int g = get_global_id(0);
    for (int r = 0; r < 50; r++) {
        a[g] = b[g] + 1.0f;
        barrier(CLK_GLOBAL_MEM_FENCE);
    }
}`, "f")
	nd := NewNDRange1D(4, 4)
	defer SetWGFuse(true)
	for _, budget := range []int64{100, 1000} {
		var first string
		for _, e := range []struct {
			name  string
			be    Backend
			fuse  bool
			alias bool
		}{{"interp", BackendInterp, true, false}, {"wg", BackendWG, true, false}, {"wg per-step", BackendWG, false, false}, {"wg one-lane", BackendWG, true, true}} {
			SetWGFuse(e.fuse)
			a, b := make([]byte, 16), make([]byte, 16)
			if e.alias {
				b = a
			}
			before := BackendSnapshot()
			_, err := k.ExecLaunch(nd, []Arg{BufArg(a), BufArg(b)}, ExecOpts{Backend: e.be, MaxSteps: budget})
			if e.alias && BackendSnapshot().WGRejects[WGRejAlias] == before.WGRejects[WGRejAlias] {
				t.Fatalf("%s: the aliased launch was not rejected", e.name)
			}
			got := pcRE.ReplaceAllString(fmt.Sprint(err), "at pc=?")
			if budget == 100 && !strings.Contains(got, "instruction budget exceeded") || budget == 1000 && err != nil {
				t.Errorf("MaxSteps %d, %s: %v", budget, e.name, err)
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("MaxSteps %d, %s: %s, interp: %s", budget, e.name, got, first)
			}
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
	if d := BackendSnapshot(); d.WGLoopWGs-before.WGLoopWGs != 8 || d.WGFallbackWGs != before.WGFallbackWGs {
		t.Errorf("%d of 8 groups ran on the lockstep engine, %d of them in one-lane sets",
			d.WGLoopWGs-before.WGLoopWGs, d.WGFallbackWGs-before.WGFallbackWGs)
	}
}
