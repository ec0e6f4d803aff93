package vm

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
)

// Range checks: the one word-unit predicate (oob), the reduction jam's
// once-per-lane range proof (wgFirstOut), and the float32 view's alignment
// gate.

// TestHugeIndexTraps: an index of magnitude 2^61 or more must trap on every
// executor. Multiplying it by 4 wraps, so a byte-unit check saw word 0 (2^62)
// or a negative offset (2^61) and either aliased a valid word or panicked.
func TestHugeIndexTraps(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"store", `__kernel void t(__global float* a, __global float* o, int s, int q) {
    int g = get_global_id(0);
    a[s * q + g] = 7.0f;
}`},
		{"load", `__kernel void t(__global float* a, __global float* o, int s, int q) {
    int g = get_global_id(0);
    o[g] = a[s * q + g] * 2.0f;
}`},
		{"load through a register", `__kernel void t(__global float* a, __global float* o, int s, int q) {
    int g = get_global_id(0);
    int i = s * q;
    o[g] = a[i];
}`},
		{"reduction loop", `__kernel void t(__global float* a, __global float* o, int s, int q) {
    int g = get_global_id(0);
    int h = s * q;
    float acc = 0.5f;
    for (int k = 1; k < 3; k++) { acc += a[k * h + g] * a[k]; }
    o[g] = acc;
}`},
	}
	indices := []struct {
		name string
		s, q int64
	}{
		{"2^61", 1 << 31, 1 << 30},
		{"2^62", 1 << 31, 1 << 31},
		{"-2^63", 1 << 62, -2},
	}
	const words = 8
	nd := NewNDRange1D(4, 4)
	for _, kc := range kernels {
		ki, err := clc.FindKernelInfo(kc.src, "t")
		if err != nil {
			t.Fatal(err)
		}
		k, err := Compile(ki)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRefExec(ki)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range indices {
			fresh := func() []Arg {
				return []Arg{BufArg(floatBuf(words, func(i int) float32 { return float32(i) + 1 })),
					BufArg(make([]byte, 4*words)), IntArg(ix.s), IntArg(ix.q)}
			}
			want := fresh()
			check := func(exec string, args []Arg, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s, index %s, %s: want an out-of-range error, got %v", kc.name, ix.name, exec, err)
				}
				for i := 0; i < 2; i++ {
					if string(args[i].Buf) != string(want[i].Buf) {
						t.Errorf("%s, index %s, %s: buffer %d was touched", kc.name, ix.name, exec, i)
					}
				}
			}
			args := fresh()
			check("ref", args, ref.ExecWorkGroup(nd, [3]int{}, args))
			for _, be := range []Backend{BackendInterp, BackendWG} {
				args := fresh()
				_, err := k.ExecWorkGroup(nd, [3]int{}, args, ExecOpts{Backend: be})
				check(be.String(), args, err)
			}
		}
	}
}

// TestWGFirstOut holds the closed form to exact integer arithmetic, on small
// cases exhaustively and on the cases the overflow argument is about: strides
// and trip counts beyond 2^31, where b + (T-1)*s wraps — back into the buffer
// for s = 2^62, T = 5 — and only the quotient form is exact.
func TestWGFirstOut(t *testing.T) {
	inside := func(b, s, j int64, W uint64) bool {
		idx := new(big.Int).Mul(big.NewInt(j), big.NewInt(s))
		idx.Add(idx, big.NewInt(b))
		return idx.Sign() >= 0 && idx.Cmp(new(big.Int).SetUint64(W)) < 0
	}
	exact := func(b, s, T int64, W uint64) int64 {
		for j := int64(0); j < T; j++ {
			if !inside(b, s, j, W) {
				return j
			}
		}
		return T
	}
	for b := int64(-2); b <= 12; b++ {
		for s := int64(-5); s <= 5; s++ {
			for T := int64(1); T <= 9; T++ {
				for _, W := range []uint64{0, 1, 10} {
					if got, want := wgFirstOut(b, s, T, W), exact(b, s, T, W); got != want {
						t.Errorf("wgFirstOut(%d, %d, %d, %d) = %d, want %d", b, s, T, W, got, want)
					}
				}
			}
		}
	}
	// Too many trips to enumerate: the answer j must be the boundary — trip
	// j-1 inside (the indices are monotone, so every earlier one too), trip j
	// outside unless j is T.
	for _, c := range []struct {
		b, s, T int64
		W       uint64
	}{
		{3, 1 << 62, 5, 100}, {3, 1 << 62, 4, 100}, {3, math.MaxInt64, 3, 100},
		{3, math.MinInt64, 2, 100}, {3, math.MinInt64, 3, 100}, {99, -1 << 62, 9, 100},
		{0, 1<<31 + 1, 1 << 31, 1 << 60}, {1<<60 - 1, -(1<<31 + 1), 1 << 32, 1 << 60},
		{0, 1<<31 + 1, 1 << 20, 1 << 60}, {1<<60 - 1, -(1<<31 + 1), 1 << 20, 1 << 60},
		{7, 0, 1 << 40, 8}, {8, 0, 1 << 40, 8}, {0, 1 << 40, 1 << 40, 1 << 60},
		{0, 1, 1 << 40, 1 << 40}, {0, 1, 1<<40 + 1, 1 << 40}, {1<<40 - 1, -1, 1<<40 + 1, 1 << 40},
		{math.MaxInt64, 1, 2, 1 << 60}, {math.MinInt64, -1, 2, 1 << 60},
	} {
		j := wgFirstOut(c.b, c.s, c.T, c.W)
		if j < 0 || j > c.T || j > 0 && !(inside(c.b, c.s, 0, c.W) && inside(c.b, c.s, j-1, c.W)) || j < c.T && inside(c.b, c.s, j, c.W) {
			t.Errorf("wgFirstOut(%d, %d, %d, %d) = %d is not the first trip outside", c.b, c.s, c.T, c.W, j)
		}
	}
}

// trapShapes are the jam's arity classes: the pair (SYRK), two seeded terms
// of two factors crossing the buffers (SYR2K) and a single load (corr_mean),
// the pair also with both loads on one buffer. Index 0 is k*s0 + z0, index 1
// k*s1 + z1, with z = base + g*row per work-item.
var trapShapes = []struct {
	name  string
	loads []trapLoad // program order
	body  string
}{
	{"pair", []trapLoad{{0, 0}, {1, 1}}, "acc += alpha * a[k * s0 + z0] * b[k * s1 + z1];"},
	{"pair on one buffer", []trapLoad{{0, 0}, {0, 1}}, "acc += alpha * a[k * s0 + z0] * a[k * s1 + z1];"},
	{"2x2 seeded", []trapLoad{{0, 0}, {1, 1}, {1, 0}, {0, 1}},
		"acc += alpha * a[k * s0 + z0] * b[k * s1 + z1];\n        acc += alpha * b[k * s0 + z0] * a[k * s1 + z1];"},
	{"one load", []trapLoad{{0, 0}}, "acc += a[k * s0 + z0];"},
}

// trapLoad is one load of a shape's body: which buffer, which index.
type trapLoad struct{ buf, idx int }

// trapRow is one launch of 16 work-items in groups of 8 over a[wa], b[wb].
type trapRow struct {
	name       string
	m          int64
	b0, r0, s0 int64
	b1, r1, s1 int64
	wa, wb     int
}

// wantTrap is the oracle, independent of every engine: work-items ascending,
// each running its trips in order and its loads in program order, the first
// access outside its buffer names the error.
func (r trapRow) wantTrap(loads []trapLoad) string {
	for g := int64(0); g < 16; g++ {
		for k := int64(0); k < r.m; k++ {
			for _, l := range loads {
				idx := k*r.s0 + r.b0 + g*r.r0
				if l.idx == 1 {
					idx = k*r.s1 + r.b1 + g*r.r1
				}
				if words := [2]int{r.wa, r.wb}[l.buf]; idx < 0 || idx >= int64(words) {
					return fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", "ab"[l.buf:l.buf+1], idx, 4*words)
				}
			}
		}
	}
	return ""
}

// runTrapParity executes the launch group by group with an undo log on the
// interpreter and on wg. The two must agree on every buffer byte and on the
// error, text and pc included; after a trap, rolling the group back must
// restore its buffers. It returns the error.
func runTrapParity(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg) error {
	t.Helper()
	snap := func(args []Arg) string {
		var s string
		for _, a := range args {
			s += string(a.Buf)
		}
		return s
	}
	argsI, argsW := mkArgs(), mkArgs()
	for g := 0; g < nd.LaunchGroups(); g++ {
		before := snap(argsI)
		var logI, logW UndoLog
		_, errI := k.ExecWorkGroup(nd, nd.GroupAt(g), argsI, ExecOpts{Backend: BackendInterp, Undo: &logI})
		_, errW := k.ExecWorkGroup(nd, nd.GroupAt(g), argsW, ExecOpts{Backend: BackendWG, Undo: &logW})
		if fmt.Sprint(errI) != fmt.Sprint(errW) {
			t.Fatalf("group %d: errors differ\ninterp: %v\nwg:     %v", g, errI, errW)
		}
		if errW != nil {
			logI.Rollback()
			logW.Rollback()
			if snap(argsI) != before || snap(argsW) != before {
				t.Fatalf("group %d: rollback after the trap did not restore the buffers", g)
			}
			return errW
		}
		if snap(argsI) != snap(argsW) {
			t.Fatalf("group %d: buffers differ between interp and wg", g)
		}
	}
	return nil
}

// TestWGLoopTrapParity: the range proof in front of the trips must name the
// trap the per-step path would have hit — the least (trip, load) of the
// lowest failing work-item — for every arity class, as written and
// GPU-transformed. The rows put the first failure on either load, at trip 0,
// in the middle and on the last trip, one word either side of each buffer
// end (an off-by-one in the first-failing-trip formula fails one of them),
// below zero under a negative stride, under stride 0, with T = 1, on two
// loads in the same trip, in a later work-item only, and under strides whose
// product with the trip count wraps.
func TestWGLoopTrapParity(t *testing.T) {
	rows := []trapRow{
		{name: "in range to the last word", m: 10, b0: 90, s0: 1, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "index 0 leaves on the last trip", m: 10, b0: 91, s0: 1, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "index 0 leaves mid-loop", m: 10, b0: 95, s0: 1, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "index 1 leaves mid-loop", m: 10, b0: 0, s0: 1, b1: 95, s1: 1, wa: 100, wb: 100},
		{name: "index 1 leaves before index 0", m: 10, b0: 95, s0: 1, b1: 97, s1: 1, wa: 100, wb: 100},
		{name: "both leave on the same trip", m: 10, b0: 95, s0: 1, b1: 95, s1: 1, wa: 100, wb: 100},
		{name: "leaves at trip 0", m: 10, b0: 100, s0: 1, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "stride 3, first word past the end", m: 10, b0: 90, s0: 3, b1: 0, s1: 2, wa: 100, wb: 100},
		{name: "stride 3, last word", m: 4, b0: 90, s0: 3, b1: 0, s1: 2, wa: 100, wb: 100},
		{name: "negative stride down to word 0", m: 10, b0: 9, s0: -1, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "negative stride below word 0", m: 10, b0: 5, s0: -1, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "negative stride 3 below word 0", m: 10, b0: 10, s0: -3, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "negative stride 3 ending on word 0", m: 4, b0: 9, s0: -3, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "stride 0 in range", m: 10, b0: 99, s0: 0, b1: 50, s1: 0, wa: 100, wb: 100},
		{name: "stride 0 out of range", m: 10, b0: 0, s0: 0, b1: 100, s1: 0, wa: 100, wb: 100},
		{name: "one trip in range", m: 1, b0: 99, s0: 7, b1: 99, s1: -7, wa: 100, wb: 100},
		{name: "one trip out of range", m: 1, b0: 0, s0: 7, b1: -1, s1: 7, wa: 100, wb: 100},
		{name: "only the last work-items leave", m: 18, b0: 0, r0: 20, s0: 1, b1: 0, s1: 1, wa: 15*20 + 5, wb: 100},
		{name: "the buffers differ in length", m: 10, b0: 45, s0: 1, b1: 45, s1: 1, wa: 100, wb: 50},
		{name: "stride 2^62 wraps back in after four trips", m: 5, b0: 3, s0: 1 << 62, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "stride -2^63", m: 3, b0: 3, s0: math.MinInt64, b1: 0, s1: 1, wa: 100, wb: 100},
		{name: "stride 2^61 aliases word 3 in byte units", m: 2, b0: 3, s0: 1 << 61, b1: 0, s1: 1, wa: 100, wb: 100},
	}
	nd := NewNDRange1D(16, 8)
	for _, shape := range trapShapes {
		src := `__kernel void t(__global float* out, __global float* a, __global float* b, int m,
                int b0, int r0, int s0, int b1, int r1, int s1, float alpha) {
    int g = get_global_id(0);
    int z0 = b0 + g * r0;
    int z1 = b1 + g * r1;
    float acc = 0.5f;
    for (int k = 0; k < m; k++) {
        ` + shape.body + `
    }
    out[g] = acc;
}`
		gpuSrc, _, err := TransformedSources(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name, src string
			extra     []Arg
		}{{"original", src, nil}, {"gpu variant", gpuSrc, GPUAbortArgs(1, passes.NoCPUWork)}} {
			k := MustCompile(v.src, "t")
			if !strings.Contains(k.Disasm(), "wg.loop-fuse (") {
				t.Fatalf("%s/%s did not loop-fuse\n%s", shape.name, v.name, k.Disasm())
			}
			for _, r := range rows {
				t.Run(shape.name+"/"+v.name+"/"+r.name, func(t *testing.T) {
					before := BackendSnapshot()
					err := runTrapParity(t, k, nd, func() []Arg {
						val := func(i int) float32 { return float32(i%7)*0.5 - 1 }
						return append([]Arg{BufArg(make([]byte, 4*16)), BufArg(floatBuf(r.wa, val)), BufArg(floatBuf(r.wb, val)),
							IntArg(r.m), IntArg(r.b0), IntArg(r.r0), IntArg(r.s0), IntArg(r.b1), IntArg(r.r1), IntArg(r.s1),
							FloatArg(1.25)}, v.extra...)
					})
					want := r.wantTrap(shape.loads)
					if got := fmt.Sprint(err); (want == "") != (err == nil) || !strings.Contains(got, want) {
						t.Errorf("got error %v, want %q", err, want)
					}
					if d := BackendSnapshot(); err == nil && d.WGLoopBatchesDyn == before.WGLoopBatchesDyn ||
						d.WGLoopNonuniformDyn != before.WGLoopNonuniformDyn {
						t.Error("the launch did not go through the loop closure")
					}
				})
			}
		}
	}
}

// TestWGMisalignedBufferRunsPerStep: a float buffer that does not start on a
// 4-byte boundary has no float32 view, so its work-groups take the per-step
// lists, which decode bytes, and still match the interpreter bit for bit.
func TestWGMisalignedBufferRunsPerStep(t *testing.T) {
	const n, m = 32, 24
	k := MustCompile(`__kernel void t(__global float* out, __global float* a, int m) {
    int g = get_global_id(0);
    float acc = 0.5f;
    for (int k = 0; k < m; k++) { acc += a[g * m + k] * a[k]; }
    out[g] = acc;
}`, "t")
	// skew bytes past a 4-byte boundary (a byte slice's own start need not be
	// on one: the compiler may place it on the stack).
	mkArgs := func(skew int) func() []Arg {
		return func() []Arg {
			a := make([]byte, 4*n*m+8)
			for _, ok := f32View(a); !ok; _, ok = f32View(a) {
				a = a[1:]
			}
			a = a[skew:][:4*n*m]
			copy(a, floatBuf(n*m, func(i int) float32 { return float32(i%11)*0.25 - 1 }))
			return []Arg{BufArg(make([]byte, 4*n)), BufArg(a), IntArg(m)}
		}
	}
	if v, ok := f32View(mkArgs(0)()[1].Buf); !ok || len(v) != n*m {
		t.Fatalf("f32View of an aligned buffer: %d words, ok=%v", len(v), ok)
	}
	for _, c := range []struct {
		skew  int
		fused bool
	}{{0, true}, {1, false}, {2, false}, {3, false}} {
		before := BackendSnapshot()
		if err := runWGParity(t, k, NewNDRange1D(n, 8), mkArgs(c.skew)); err != nil {
			t.Fatal(err)
		}
		after := BackendSnapshot()
		if fused := after.WGFusedInstrsDyn != before.WGFusedInstrsDyn; fused != c.fused {
			t.Errorf("skew %d: fused closures ran = %v, want %v", c.skew, fused, c.fused)
		}
		if after.WGStepInstrsDyn == before.WGStepInstrsDyn {
			t.Errorf("skew %d: no per-step instruction ran", c.skew)
		}
	}
}
