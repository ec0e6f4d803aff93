package vm

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// f32buf builds a little-endian float32 buffer.
func f32buf(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func f32at(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

func i32buf(vals ...int32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

func i32at(b []byte, i int) int32 {
	return int32(binary.LittleEndian.Uint32(b[4*i:]))
}

func TestVectorAdd(t *testing.T) {
	k := MustCompile(`
__kernel void vadd(__global float* a, __global float* b, __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}
`, "vadd")
	n := 64
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	ab, bb, cb := f32buf(a...), f32buf(b...), make([]byte, 4*n)
	nd := NewNDRange1D(n, 16)
	st, err := k.ExecLaunch(nd, []Arg{BufArg(ab), BufArg(bb), BufArg(cb), IntArg(int64(n))}, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := f32at(cb, i); got != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(3*i))
		}
	}
	if st.WorkGroups != 4 || st.WorkItems != 64 {
		t.Fatalf("stats groups=%d items=%d", st.WorkGroups, st.WorkItems)
	}
	if st.GlobalLoads != int64(2*n) || st.GlobalStores != int64(n) {
		t.Fatalf("loads=%d stores=%d", st.GlobalLoads, st.GlobalStores)
	}
}

func TestMatMul2D(t *testing.T) {
	k := MustCompile(`
__kernel void mm(__global float* A, __global float* B, __global float* C, int n) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < n) {
        float acc = 0.0f;
        for (int kk = 0; kk < n; kk++) {
            acc += A[i * n + kk] * B[kk * n + j];
        }
        C[i * n + j] = acc;
    }
}
`, "mm")
	n := 8
	A := make([]float32, n*n)
	B := make([]float32, n*n)
	for i := range A {
		A[i] = float32(i%5) * 0.5
		B[i] = float32(i%7) * 0.25
	}
	ab, bb, cb := f32buf(A...), f32buf(B...), make([]byte, 4*n*n)
	nd := NewNDRange2D(n, n, 4, 4)
	if _, err := k.ExecLaunch(nd, []Arg{BufArg(ab), BufArg(bb), BufArg(cb), IntArg(int64(n))}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < n; kk++ {
				acc += A[i*n+kk] * B[kk*n+j]
			}
			if got := f32at(cb, i*n+j); got != acc {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, got, acc)
			}
		}
	}
}

func TestIntOpsAndModulo(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global int* out) {
    int i = get_global_id(0);
    out[i] = (i * 7 + 3) % 5 - (i / 2);
}
`, "f")
	n := 32
	out := make([]byte, 4*n)
	if _, err := k.ExecLaunch(NewNDRange1D(n, 8), []Arg{BufArg(out)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int32((i*7+3)%5 - i/2)
		if got := i32at(out, i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestControlFlow(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global int* out, int n) {
    int i = get_global_id(0);
    int acc = 0;
    int j = 0;
    while (true) {
        if (j >= n) { break; }
        if (j % 2 == 0) { j++; continue; }
        acc += j;
        j++;
    }
    out[i] = (acc > 10 && i < 4) ? acc : -acc;
}
`, "f")
	n := 8
	out := make([]byte, 4*n)
	if _, err := k.ExecLaunch(NewNDRange1D(n, 4), []Arg{BufArg(out), IntArg(10)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	// sum of odd j in [0,10) = 1+3+5+7+9 = 25
	for i := 0; i < n; i++ {
		want := int32(25)
		if i >= 4 {
			want = -25
		}
		if got := i32at(out, i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// b[i] only safe to index when i < n; && must short-circuit.
	k := MustCompile(`
__kernel void f(__global int* b, __global int* out, int n) {
    int i = get_global_id(0);
    if (i < n && b[i] > 0) { out[i] = 1; }
    if (i >= n || b[i % n] < 100) {
        if (i < n) { out[i] += 2; }
    }
}
`, "f")
	n := 4
	b := i32buf(1, -1, 2, -2)
	out := make([]byte, 4*n)
	// launch 8 work-items over out of only 4: indices >= n exercise
	// short-circuiting (b[i] would be out of bounds).
	if _, err := k.ExecLaunch(NewNDRange1D(8, 4), []Arg{BufArg(b), BufArg(out), IntArg(int64(n))}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 2, 3, 2}
	for i := 0; i < n; i++ {
		if got := i32at(out, i); got != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got, want[i])
		}
	}
}

func TestMathBuiltins(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global float* out, float x) {
    out[0] = sqrt(x);
    out[1] = fabs(-x);
    out[2] = exp(1.0f);
    out[3] = pow(x, 2.0f);
    out[4] = fmax(x, 10.0f);
    out[5] = fmin(x, 1.0f);
    out[6] = floor(2.7f);
    out[7] = ceil(2.2f);
}
`, "f")
	out := make([]byte, 4*8)
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(out), FloatArg(4.0)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 4, float32(math.E), 16, 10, 1, 2, 3}
	for i, w := range want {
		got := f32at(out, i)
		if math.Abs(float64(got-w)) > 1e-5 {
			t.Fatalf("out[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestIntMinMaxAbs(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global int* out, int a, int b) {
    out[0] = min(a, b);
    out[1] = max(a, b);
    out[2] = abs(a - b);
}
`, "f")
	out := make([]byte, 12)
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(out), IntArg(-3), IntArg(7)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	if i32at(out, 0) != -3 || i32at(out, 1) != 7 || i32at(out, 2) != 10 {
		t.Fatalf("out = [%d %d %d]", i32at(out, 0), i32at(out, 1), i32at(out, 2))
	}
}

func TestBarrierWithLocalMemory(t *testing.T) {
	// Reverse each work-group's elements through local memory.
	k := MustCompile(`
__kernel void rev(__global float* a) {
    __local float tile[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    tile[l] = a[g];
    barrier(CLK_LOCAL_MEM_FENCE);
    int ls = get_local_size(0);
    a[g] = tile[ls - 1 - l];
}
`, "rev")
	if !k.HasBarrier {
		t.Fatal("HasBarrier not set")
	}
	n := 32
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	buf := f32buf(vals...)
	st, err := k.ExecLaunch(NewNDRange1D(n, 16), []Arg{BufArg(buf)}, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		grp, l := i/16, i%16
		want := float32(grp*16 + (15 - l))
		if got := f32at(buf, i); got != want {
			t.Fatalf("a[%d] = %v, want %v", i, got, want)
		}
	}
	if st.Barriers == 0 {
		t.Fatal("no barriers counted")
	}
}

func TestBarrierDivergenceDetected(t *testing.T) {
	k := MustCompile(`
__kernel void bad(__global float* a) {
    if (get_local_id(0) < 2) { barrier(); }
    a[get_global_id(0)] = 1.0f;
}
`, "bad")
	buf := make([]byte, 4*4)
	_, err := k.ExecLaunch(NewNDRange1D(4, 4), []Arg{BufArg(buf)}, ExecOpts{})
	if err == nil {
		t.Fatal("divergent barrier not detected")
	}
}

func TestPrivateArray(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global float* out) {
    float tmp[4];
    int i = get_global_id(0);
    for (int j = 0; j < 4; j++) { tmp[j] = (float)(i + j); }
    float s = 0.0f;
    for (int j = 0; j < 4; j++) { s += tmp[j]; }
    out[i] = s;
}
`, "f")
	n := 8
	out := make([]byte, 4*n)
	if _, err := k.ExecLaunch(NewNDRange1D(n, 4), []Arg{BufArg(out)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float32(4*i + 6)
		if got := f32at(out, i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestOutOfBoundsError(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global float* a) { a[get_global_id(0)] = 1.0f; }
`, "f")
	buf := make([]byte, 4*2) // too small for 4 work-items
	_, err := k.ExecLaunch(NewNDRange1D(4, 4), []Arg{BufArg(buf)}, ExecOpts{})
	if err == nil {
		t.Fatal("out-of-bounds store not detected")
	}
}

func TestDivByZeroError(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global int* a, int d) { a[0] = 10 / d; }
`, "f")
	buf := make([]byte, 4)
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(buf), IntArg(0)}, ExecOpts{}); err == nil {
		t.Fatal("div by zero not detected")
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global int* a) { while (true) { a[0] = 1; } }
`, "f")
	buf := make([]byte, 4)
	_, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(buf)}, ExecOpts{MaxSteps: 10000})
	if err == nil {
		t.Fatal("infinite loop not caught")
	}
}

func TestArgMismatch(t *testing.T) {
	k := MustCompile(`__kernel void f(__global int* a, int n) { a[0] = n; }`, "f")
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(make([]byte, 4))}, ExecOpts{}); err == nil {
		t.Fatal("missing arg not detected")
	}
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{IntArg(1), IntArg(1)}, ExecOpts{}); err == nil {
		t.Fatal("kind mismatch not detected")
	}
}

func TestUndoLogRollback(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global float* a) { a[get_global_id(0)] = 99.0f; }
`, "f")
	buf := f32buf(1, 2, 3, 4)
	orig := append([]byte(nil), buf...)
	var undo UndoLog
	if _, err := k.ExecWorkGroup(NewNDRange1D(4, 4), [3]int{0, 0, 0}, []Arg{BufArg(buf)}, ExecOpts{Undo: &undo}); err != nil {
		t.Fatal(err)
	}
	if f32at(buf, 0) != 99 {
		t.Fatal("store did not happen")
	}
	if len(undo.recs) != 4 {
		t.Fatalf("undo len = %d, want 4", len(undo.recs))
	}
	undo.Rollback()
	for i := range orig {
		if buf[i] != orig[i] {
			t.Fatal("rollback did not restore buffer")
		}
	}
	if len(undo.recs) != 0 {
		t.Fatal("rollback did not clear log")
	}
}

// TestUndoLogReuse: a log is reused across work-groups, kernels and buffers
// (device.runLaunch recycles them). Records index a per-log buffer table, so
// a two-buffer kernel with interleaved stores rolls back both, newest first;
// after Reset or Rollback the table holds no buffer, and a rollback after
// reuse touches only what was stored since.
func TestUndoLogReuse(t *testing.T) {
	if n := unsafe.Sizeof(UndoRecord{}); n > 16 {
		t.Errorf("UndoRecord is %d bytes, want at most 16", n)
	}
	two := MustCompile(`
__kernel void two(__global float* a, __global int* b) {
    int i = get_global_id(0);
    a[i] = 1.0f; b[i] = 7; a[i] = 2.0f;
}`, "two")
	one := MustCompile(`
__kernel void one(__global float* c) { c[get_global_id(0)] = 5.0f; }
`, "one")
	for _, be := range []Backend{BackendInterp, BackendWG} {
		var undo UndoLog
		a, b, c := f32buf(10, 11, 12, 13), make([]byte, 16), f32buf(20, 21, 22, 23)
		a0, b0, c0 := bytes.Clone(a), bytes.Clone(b), bytes.Clone(c)
		exec := func(k *Kernel, args ...Arg) {
			t.Helper()
			if _, err := k.ExecWorkGroup(NewNDRange1D(4, 4), [3]int{}, args, ExecOpts{Undo: &undo, Backend: be}); err != nil {
				t.Fatal(err)
			}
		}
		exec(two, BufArg(a), BufArg(b))
		if len(undo.recs) != 12 || len(undo.bufs) != 2 {
			t.Fatalf("%v: %d records over %d buffers, want 12 over 2", be, len(undo.recs), len(undo.bufs))
		}
		undo.Rollback()
		if !bytes.Equal(a, a0) || !bytes.Equal(b, b0) {
			t.Fatalf("%v: rollback did not restore both buffers", be)
		}
		exec(two, BufArg(a), BufArg(b)) // these stores are committed
		undo.Reset()
		for _, held := range undo.bufs[:cap(undo.bufs)] {
			if held != nil {
				t.Fatalf("%v: a reset log still references a buffer", be)
			}
		}
		aDone, bDone := bytes.Clone(a), bytes.Clone(b)
		exec(one, BufArg(c))
		if len(undo.recs) != 4 || len(undo.bufs) != 1 {
			t.Fatalf("%v: reused log holds %d records over %d buffers, want 4 over 1", be, len(undo.recs), len(undo.bufs))
		}
		undo.Rollback()
		if !bytes.Equal(c, c0) || !bytes.Equal(a, aDone) || !bytes.Equal(b, bDone) {
			t.Fatalf("%v: rollback after reuse restored %v, or touched the committed launch's buffers", be, c)
		}
	}
}

func TestCoalescedVsStridedTransactions(t *testing.T) {
	coal := MustCompile(`
__kernel void c(__global float* a, __global float* b) {
    int i = get_global_id(0);
    b[i] = a[i];
}
`, "c")
	strided := MustCompile(`
__kernel void s(__global float* a, __global float* b, int n) {
    int i = get_global_id(0);
    b[i] = a[i * n];
}
`, "s")
	n := 64
	a := make([]byte, 4*n*n)
	b := make([]byte, 4*n)
	stC, err := coal.ExecWorkGroup(NewNDRange1D(n, n), [3]int{0, 0, 0}, []Arg{BufArg(a), BufArg(b)}, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stS, err := strided.ExecWorkGroup(NewNDRange1D(n, n), [3]int{0, 0, 0}, []Arg{BufArg(a), BufArg(b), IntArg(int64(n))}, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The strided kernel's loads hit a new transaction per work-item; the
	// coalesced kernel's loads coalesce within each 32-wide warp.
	if stS.WarpTransactions <= 2*stC.WarpTransactions {
		t.Fatalf("strided transactions (%d) not clearly above coalesced (%d)",
			stS.WarpTransactions, stC.WarpTransactions)
	}
}

func TestSeqVsRandLocality(t *testing.T) {
	seq := MustCompile(`
__kernel void f(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int k = 0; k < n; k++) { s += a[i * n + k]; }
    out[i] = s;
}
`, "f")
	rnd := MustCompile(`
__kernel void g(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int k = 0; k < n; k++) { s += a[k * n + i]; }
    out[i] = s;
}
`, "g")
	n := 64
	a := make([]byte, 4*n*n)
	out := make([]byte, 4*n)
	args := []Arg{BufArg(a), BufArg(out), IntArg(int64(n))}
	stSeq, err := seq.ExecWorkGroup(NewNDRange1D(n, n), [3]int{0, 0, 0}, args, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stRnd, err := rnd.ExecWorkGroup(NewNDRange1D(n, n), [3]int{0, 0, 0}, args, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if stSeq.SeqBytes <= stSeq.RandBytes {
		t.Fatalf("row-major kernel: seq=%d rand=%d, want mostly sequential", stSeq.SeqBytes, stSeq.RandBytes)
	}
	if stRnd.RandBytes <= stRnd.SeqBytes {
		t.Fatalf("column-major kernel: seq=%d rand=%d, want mostly random", stRnd.SeqBytes, stRnd.RandBytes)
	}
}

func TestFlatGroupIDMatchesPaperFigure5(t *testing.T) {
	// 5x5 grid; work-group (row y=4, col x=0) has flattened ID 20.
	nd := NewNDRange2D(5*4, 5*4, 4, 4)
	if got := nd.FlatGroupID([3]int{0, 4, 0}); got != 20 {
		t.Fatalf("flat(0,4) = %d, want 20", got)
	}
	if got := nd.FlatGroupID([3]int{3, 1, 0}); got != 8 {
		t.Fatalf("flat(3,1) = %d, want 8", got)
	}
	for flat := 0; flat < nd.TotalGroups(); flat++ {
		g := nd.GroupFromFlat(flat)
		if nd.FlatGroupID(g) != flat {
			t.Fatalf("round-trip failed for flat=%d", flat)
		}
	}
}

func TestNDRangeSliceCoversRange(t *testing.T) {
	nd := NewNDRange2D(8*4, 6*4, 4, 4) // 8x6 groups
	check := func(lo, hi int) {
		s := nd.Slice(lo, hi)
		covered := map[int]bool{}
		for i := 0; i < s.LaunchGroups(); i++ {
			covered[nd.FlatGroupID(s.GroupAt(i))] = true
		}
		for f := lo; f <= hi; f++ {
			if !covered[f] {
				t.Fatalf("Slice(%d,%d) does not cover %d", lo, hi, f)
			}
		}
	}
	check(0, 0)
	check(5, 7)   // within one row
	check(3, 20)  // spans rows
	check(0, 47)  // everything
	check(40, 47) // tail
}

func TestNDRangeSliceProperty(t *testing.T) {
	nd := NewNDRange2D(7*4, 5*4, 4, 4)
	total := nd.TotalGroups()
	f := func(a, b uint8) bool {
		lo := int(a) % total
		hi := int(b) % total
		if lo > hi {
			lo, hi = hi, lo
		}
		s := nd.Slice(lo, hi)
		covered := map[int]bool{}
		for i := 0; i < s.LaunchGroups(); i++ {
			g := s.GroupAt(i)
			fg := nd.FlatGroupID(g)
			if fg < 0 || fg >= total {
				return false
			}
			covered[fg] = true
		}
		for x := lo; x <= hi; x++ {
			if !covered[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupAtEnumeratesSliceExactly(t *testing.T) {
	nd := NewNDRange2D(4*2, 4*2, 2, 2)
	nd.GroupBase = [3]int{1, 2, 0}
	nd.GroupCount = [3]int{2, 2, 1}
	want := [][3]int{{1, 2, 0}, {2, 2, 0}, {1, 3, 0}, {2, 3, 0}}
	for i, w := range want {
		if g := nd.GroupAt(i); g != w {
			t.Fatalf("GroupAt(%d) = %v, want %v", i, g, w)
		}
	}
}

func TestFloatArithmeticIsFloat32(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global float* out, float a, float b) { out[0] = a + b; }
`, "f")
	out := make([]byte, 4)
	// 1 + 2^-30 is not representable in float32; result must round to 1.
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(out), FloatArg(1), FloatArg(math.Pow(2, -30))}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := f32at(out, 0); got != 1.0 {
		t.Fatalf("out = %v, want exactly 1.0 (float32 rounding)", got)
	}
}

func TestCastTruncation(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global int* out, float x) {
    out[0] = (int)x;
    out[1] = (int)(-x);
}
`, "f")
	out := make([]byte, 8)
	if _, err := k.ExecLaunch(NewNDRange1D(1, 1), []Arg{BufArg(out), FloatArg(2.9)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	if i32at(out, 0) != 2 || i32at(out, 1) != -2 {
		t.Fatalf("out = [%d %d], want [2 -2]", i32at(out, 0), i32at(out, 1))
	}
}

func TestDeterministicExecution(t *testing.T) {
	k := MustCompile(`
__kernel void f(__global float* a, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < n; j++) { s += sqrt((float)(i + j)); }
    a[i] = s;
}
`, "f")
	run := func() ([]byte, Stats) {
		buf := make([]byte, 4*16)
		st, err := k.ExecLaunch(NewNDRange1D(16, 4), []Arg{BufArg(buf), IntArg(10)}, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return buf, st
	}
	b1, s1 := run()
	b2, s2 := run()
	if string(b1) != string(b2) {
		t.Fatal("nondeterministic results")
	}
	if s1 != s2 {
		t.Fatalf("nondeterministic stats: %+v vs %+v", s1, s2)
	}
}

func Test3DNDRange(t *testing.T) {
	k := MustCompile(`
__kernel void vol(__global float* a, int nx, int ny, int nz) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int z = get_global_id(2);
    if (x < nx && y < ny && z < nz) {
        a[(z * ny + y) * nx + x] = (float)(x + 10 * y + 100 * z);
    }
}
`, "vol")
	nx, ny, nz := 8, 6, 4
	buf := make([]byte, 4*nx*ny*nz)
	nd := NewNDRange(3, [3]int{nx, ny, nz}, [3]int{4, 2, 2})
	if nd.TotalGroups() != (8/4)*(6/2)*(4/2) {
		t.Fatalf("TotalGroups = %d", nd.TotalGroups())
	}
	if _, err := k.ExecLaunch(nd, []Arg{BufArg(buf), IntArg(int64(nx)), IntArg(int64(ny)), IntArg(int64(nz))}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				want := float32(x + 10*y + 100*z)
				if got := f32at(buf, (z*ny+y)*nx+x); got != want {
					t.Fatalf("a[%d,%d,%d] = %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

func Test3DFlattenRoundTrip(t *testing.T) {
	nd := NewNDRange(3, [3]int{8, 6, 4}, [3]int{4, 2, 2})
	total := nd.TotalGroups()
	seen := map[int]bool{}
	for i := 0; i < total; i++ {
		g := nd.GroupAt(i)
		f := nd.FlatGroupID(g)
		if f < 0 || f >= total || seen[f] {
			t.Fatalf("flat id %d invalid or duplicated", f)
		}
		seen[f] = true
		if nd.GroupFromFlat(f) != g {
			t.Fatalf("round trip failed for group %v", g)
		}
	}
}

func Test3DSliceCoversRange(t *testing.T) {
	nd := NewNDRange(3, [3]int{8, 6, 4}, [3]int{4, 2, 2}) // 2x3x2 = 12 groups
	for lo := 0; lo < 12; lo++ {
		for hi := lo; hi < 12; hi++ {
			s := nd.Slice(lo, hi)
			covered := map[int]bool{}
			for i := 0; i < s.LaunchGroups(); i++ {
				covered[nd.FlatGroupID(s.GroupAt(i))] = true
			}
			for f := lo; f <= hi; f++ {
				if !covered[f] {
					t.Fatalf("Slice(%d,%d) misses %d", lo, hi, f)
				}
			}
		}
	}
}

func TestWorkItemBuiltinsAgainstSpec(t *testing.T) {
	k := MustCompile(`
__kernel void ids(__global int* out) {
    int i = get_global_id(0);
    out[i * 6 + 0] = get_local_id(0);
    out[i * 6 + 1] = get_group_id(0);
    out[i * 6 + 2] = get_num_groups(0);
    out[i * 6 + 3] = get_local_size(0);
    out[i * 6 + 4] = get_global_size(0);
    out[i * 6 + 5] = get_work_dim();
}
`, "ids")
	n, local := 32, 8
	out := make([]byte, 4*6*n)
	if _, err := k.ExecLaunch(NewNDRange1D(n, local), []Arg{BufArg(out)}, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := []int32{i32at(out, i*6), i32at(out, i*6+1), i32at(out, i*6+2), i32at(out, i*6+3), i32at(out, i*6+4), i32at(out, i*6+5)}
		want := []int32{int32(i % local), int32(i / local), int32(n / local), int32(local), int32(n), 1}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("work-item %d builtin %d = %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestDisasmRoundTrip(t *testing.T) {
	k := MustCompile(`
__kernel void d(__global float* a, __global int* b, int n, float x) {
    __local float tile[8];
    float priv[2];
    int i = get_global_id(0);
    if (i < n) {
        tile[i % 8] = x;
        priv[0] = sqrt(fabs(x));
        barrier();
        a[i] = tile[i % 8] + priv[0];
        b[i] = max(i, 2);
    }
}
`, "d")
	d := k.Disasm()
	for _, frag := range []string{"kernel d:", "param 0: a", "local tile[8]", "private priv[2]",
		"barrier", "sqrt", "imax", "ret", "jz"} {
		if !strings.Contains(d, frag) {
			t.Fatalf("disassembly missing %q:\n%s", frag, d)
		}
	}
	// Every line after the header must parse as "pc mnemonic ...".
	lines := strings.Split(strings.TrimSpace(d), "\n")
	if len(lines) < 10 {
		t.Fatalf("disassembly too short:\n%s", d)
	}
}
