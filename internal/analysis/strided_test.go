package analysis

import (
	"math/rand"
	"strings"
	"testing"
)

// enumerate expands a progression into its member set.
func enumerate(p Prog) map[int64]bool {
	m := make(map[int64]bool, p.N)
	for k := int64(0); k < p.N; k++ {
		m[p.Lo+k*p.Stride] = true
	}
	return m
}

func bruteDisjoint(a, b Prog) bool {
	am := enumerate(a)
	for v := range enumerate(b) {
		if am[v] {
			return false
		}
	}
	return true
}

// TestProgsDisjointBrute checks the gcd/CRT disjointness test against brute
// force on random small progressions. For in-range arithmetic the test is
// exact, so the verdicts must agree in both directions.
func TestProgsDisjointBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a := Prog{Lo: rng.Int63n(40) - 20, Stride: 1 + rng.Int63n(12), N: 1 + rng.Int63n(20)}
		b := Prog{Lo: rng.Int63n(40) - 20, Stride: 1 + rng.Int63n(12), N: 1 + rng.Int63n(20)}
		got, want := progsDisjoint(a, b), bruteDisjoint(a, b)
		if got != want {
			t.Fatalf("progsDisjoint(%+v, %+v) = %v, brute force = %v", a, b, got, want)
		}
	}
}

// TestPsetComposeBrute drives compose with random strides and checks the
// resulting set against brute-force enumeration: always a superset, and
// equal whenever the set claims exactness.
func TestPsetComposeBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		base := rng.Int63n(50)
		s := Pset{Progs: []Prog{{Lo: base, Stride: 1, N: 1}}, Exact: true}
		want := map[int64]bool{base: true}
		steps := 1 + rng.Intn(3)
		for j := 0; j < steps; j++ {
			stride := rng.Int63n(15) - 7
			n := 1 + rng.Int63n(8)
			s.compose(stride, n)
			next := make(map[int64]bool)
			for v := range want {
				for k := int64(0); k < n; k++ {
					next[v+k*stride] = true
				}
			}
			want = next
		}
		got := make(map[int64]bool)
		for _, p := range s.Progs {
			for v := range enumerate(p) {
				got[v] = true
			}
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("compose lost member %d (iter %d): progs %+v", v, i, s.Progs)
			}
		}
		if s.Exact {
			for v := range got {
				if !want[v] {
					t.Fatalf("exact set has phantom member %d (iter %d): progs %+v", v, i, s.Progs)
				}
			}
		}
	}
}

// mustAnalyze analyzes source and returns the single kernel's summary.
func mustAnalyze(t *testing.T, src string) *KernelSummary {
	t.Helper()
	ps, err := AnalyzeSource(src, "test.cl")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(ps.Order) != 1 {
		t.Fatalf("want 1 kernel, got %d", len(ps.Order))
	}
	return ps.Kernels[ps.Order[0]]
}

func shape1D(local, groups int64) LaunchShape {
	return LaunchShape{
		Dims:      1,
		Local:     [3]int64{local, 1, 1},
		NumGroups: [3]int64{groups, 1, 1},
		Count:     [3]int64{groups, 1, 1},
	}
}

// TestFootprintStrided checks a strided scatter kernel's footprint against
// brute-force evaluation and verifies its work-group disjointness verdict.
func TestFootprintStrided(t *testing.T) {
	// Work-item g writes words {g, g+n, g+2n, ...}: column g of a row-major
	// n-column matrix. Distinct items touch distinct columns — disjoint.
	ks := mustAnalyze(t, `
__kernel void scatter(__global float* out, int n, int rows) {
    int g = get_global_id(0);
    for (int r = 0; r < rows; r++) {
        out[r * n + g] = 1.0f;
    }
}`)
	a := ks.Arg("out")
	if a == nil || !a.WritesComplete() || len(a.Refs) != 1 {
		t.Fatalf("out: unexpected summary\n%s", ks.String())
	}
	sh := shape1D(4, 2)
	params := []int64{0, 8, 5} // n=8, rows=5
	c := sh.Ctx(params)
	it := sh.itemAt([3]int64{1, 0, 0}, 2) // gid0 = 6
	fp, ok := a.Refs[0].Footprint(c, it)
	if !ok || !fp.Exact {
		t.Fatalf("footprint failed: ok=%v exact=%v", ok, fp.Exact)
	}
	got := make(map[int64]bool)
	for _, p := range fp.Progs {
		for v := range enumerate(p) {
			got[v] = true
		}
	}
	for r := int64(0); r < 5; r++ {
		if !got[r*8+6] {
			t.Fatalf("footprint missing word %d: %+v", r*8+6, fp.Progs)
		}
	}
	if len(got) != 5 {
		t.Fatalf("footprint has %d words, want 5: %+v", len(got), fp.Progs)
	}
	if v := ks.CertifyGroupDisjoint(sh, params, 1<<20); !v.OK {
		t.Fatalf("certify: want OK, got %q at %v", v.Reason, v.Pos)
	}
}

// TestCertifyVerdicts exercises each failure reason of the work-group
// disjointness certificate.
func TestCertifyVerdicts(t *testing.T) {
	sh := shape1D(4, 2)
	cases := []struct {
		name, src, reason string
		params            []int64
	}{
		{
			name: "overlap-group-uniform",
			src: `
__kernel void f(__global float* out) {
    int g = get_group_id(0);
    out[g] = 1.0f;
}`,
			reason: VerdictOverlap,
		},
		{
			name: "overlap-write-read",
			src: `
__kernel void f(__global float* buf, int n) {
    int g = get_global_id(0);
    float v = buf[g + 1];
    buf[g] = v;
}`,
			reason: VerdictOverlap,
			params: []int64{0, 8},
		},
		{
			name: "unknown-store-indirect",
			src: `
__kernel void f(__global float* out, __global int* idx) {
    int g = get_global_id(0);
    out[idx[g]] = 1.0f;
}`,
			reason: VerdictUnknownStore,
		},
		{
			name: "local-store",
			src: `
__kernel void f(__global float* out) {
    __local float tile[8];
    int l = get_local_id(0);
    tile[l] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tile[l];
}`,
			reason: VerdictLocalStore,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ks := mustAnalyze(t, tc.src)
			v := ks.CertifyGroupDisjoint(sh, tc.params, 1<<20)
			if v.OK || v.Reason != tc.reason {
				t.Fatalf("want reason %q, got OK=%v reason=%q\n%s", tc.reason, v.OK, v.Reason, ks.String())
			}
		})
	}

	// Budget: a disjoint kernel outside the one-slot fast path (two stores
	// per item, at different offsets), with a budget too small for the pair
	// work.
	ks := mustAnalyze(t, `
__kernel void f(__global float* out) {
    int g = get_global_id(0);
    out[2*g] = 1.0f;
    out[2*g + 1] = 2.0f;
}`)
	if v := ks.CertifyGroupDisjoint(shape1D(64, 64), nil, 10); v.OK || v.Reason != VerdictBudget {
		t.Fatalf("want budget reject, got OK=%v reason=%q", v.OK, v.Reason)
	}
	if v := ks.CertifyGroupDisjoint(shape1D(64, 64), nil, 1<<30); !v.OK {
		t.Fatalf("disjoint kernel with ample budget: want OK, got %q", v.Reason)
	}
}

// TestCertifySlotExact pins the certificate's fast path: a written argument
// whose every access has no IV term and one Base with a lid-injective lid
// part is admitted without enumerating groups, so at budget 0. Each other row
// breaks one of the three conditions, must reach the pairwise test (a budget
// reject at budget 0) and gets the pairwise verdict with budget to spare.
func TestCertifySlotExact(t *testing.T) {
	shape2D := func(local, groups int64) LaunchShape {
		return LaunchShape{Dims: 2, Local: [3]int64{local, local, 1},
			NumGroups: [3]int64{groups, groups, 1}, Count: [3]int64{groups, groups, 1}}
	}
	const streamN = 2048 * 256
	for _, tc := range []struct {
		name, src string
		sh        LaunchShape
		params    []int64
		fast      bool
		pairwise  string // the verdict with budget to spare: "" admits
	}{
		{name: "stream scale, 2048 groups of 256", fast: true, sh: shape1D(256, 2048), params: []int64{0, 0, 0, streamN}, src: `
__kernel void scale(__global float* in, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a * in[i]; }
}`},
		{name: "stream axpy, in place", fast: true, sh: shape1D(256, 2048), params: []int64{0, 0, 0, streamN}, src: `
__kernel void axpy(__global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { y[i] = a * x[i] + y[i]; }
}`},
		{name: "SYRK at full scale, 52x52 groups of 16x16", fast: true, sh: shape2D(16, 52), params: []int64{0, 0, 832, 832}, src: `
__kernel void syrk_kernel(__global float* A, __global float* C, int n, int m, float alpha, float beta) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < n) {
        float acc = C[i * n + j] * beta;
        for (int k = 0; k < m; k++) { acc += alpha * A[i * m + k] * A[j * m + k]; }
        C[i * n + j] = acc;
    }
}`},
		{name: "lid coefficients collide", sh: shape2D(8, 2), params: []int64{0, 4}, pairwise: VerdictOverlap, src: `
__kernel void f(__global float* out, int w) {
    out[get_global_id(1) * w + get_global_id(0)] = 1.0f;
}`},
		{name: "a[g] and a[g+1]", sh: shape1D(8, 2), pairwise: VerdictOverlap, src: `
__kernel void f(__global float* a) {
    int g = get_global_id(0);
    a[g] = a[g + 1] + 1.0f;
}`},
		{name: "an IV term", sh: shape1D(8, 2), pairwise: VerdictOverlap, src: `
__kernel void f(__global float* out) {
    int g = get_global_id(0);
    for (int i = 0; i < 2; i++) { out[g + i] = 1.0f; }
}`},
		{name: "a grp-only form", sh: shape1D(8, 2), pairwise: VerdictOverlap, src: `
__kernel void f(__global float* out) {
    out[get_group_id(0)] = 1.0f;
}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ks := mustAnalyze(t, tc.src)
			v := ks.CertifyGroupDisjoint(tc.sh, tc.params, 0)
			if tc.fast {
				if !v.OK {
					t.Fatalf("at budget 0: want the fast path to admit, got reason %q\n%s", v.Reason, ks.String())
				}
				return
			}
			if v.OK || v.Reason != VerdictBudget {
				t.Fatalf("at budget 0: want the pairwise test's budget reject, got OK=%v reason %q\n%s", v.OK, v.Reason, ks.String())
			}
			if v := ks.CertifyGroupDisjoint(tc.sh, tc.params, 1<<30); v.Reason != tc.pairwise {
				t.Fatalf("pairwise: want reason %q, got OK=%v reason %q", tc.pairwise, v.OK, v.Reason)
			}
		})
	}
}

// TestCertifyGatherOnly: arguments that are never written are unconstrained,
// even when their reads are indirect.
func TestCertifyGatherOnly(t *testing.T) {
	ks := mustAnalyze(t, `
__kernel void gather(__global float* out, __global float* in, __global int* idx) {
    int g = get_global_id(0);
    out[g] = in[idx[g]];
}`)
	if v := ks.CertifyGroupDisjoint(shape1D(8, 4), nil, 1<<20); !v.OK {
		t.Fatalf("gather-only kernel: want OK, got %q at %v", v.Reason, v.Pos)
	}
	in := ks.Arg("in")
	if in == nil || in.ReadsComplete() {
		t.Fatalf("in: expected an indirect-read reject\n%s", ks.String())
	}
	found := false
	for _, r := range in.Rejects {
		if r.Reason == RejIndirect && !r.Store {
			found = true
		}
	}
	if !found {
		t.Fatalf("in: want a %q read reject, got %+v", RejIndirect, in.Rejects)
	}
}

// TestRangeGuardNegation checks the subkernel range-guard pattern the CPU
// transform emits: the early return's negated condition must become an
// ambient guard on the store (|| decomposes under negation), keeping the
// store a must-access where the guards hold.
func TestRangeGuardNegation(t *testing.T) {
	ks := mustAnalyze(t, `
__kernel void f(__global float* out, int fcl_lo, int fcl_hi) {
    int fgid = get_group_id(0);
    if (fgid < fcl_lo || fgid > fcl_hi) {
        return;
    }
    out[get_global_id(0)] = 1.0f;
}`)
	a := ks.Arg("out")
	if a == nil || len(a.Refs) != 1 || !a.WritesComplete() {
		t.Fatalf("out: unexpected summary\n%s", ks.String())
	}
	ref := &a.Refs[0]
	if ref.MayOnly {
		t.Fatalf("store should be a must-access under its guards\n%s", ks.String())
	}
	if len(ref.Guards) != 2 {
		t.Fatalf("want 2 ambient guards from the negated range check, got %d\n%s",
			len(ref.Guards), ks.String())
	}
	sh := shape1D(4, 8)
	c := sh.Ctx([]int64{0, 2, 5}) // fcl_lo=2, fcl_hi=5
	inRange := sh.itemAt([3]int64{3, 0, 0}, 1)
	outRange := sh.itemAt([3]int64{7, 0, 0}, 1)
	if hold, ok := ref.MustHold(c, inRange); !ok || !hold {
		t.Fatalf("group 3 in [2,5]: want must-hold, got hold=%v ok=%v", hold, ok)
	}
	if hold, ok := ref.MustHold(c, outRange); !ok || hold {
		t.Fatalf("group 7 outside [2,5]: want not-held, got hold=%v ok=%v", hold, ok)
	}
}

// TestEvalArgWrites checks per-group hull spans and must-cover on a guarded
// slot-exact kernel and a 2-D row-major kernel.
func TestEvalArgWrites(t *testing.T) {
	ks := mustAnalyze(t, `
__kernel void f(__global float* out, int n) {
    int g = get_global_id(0);
    if (g < n) {
        out[g] = 1.0f;
    }
}`)
	sh := shape1D(4, 4)
	aw, ok := ks.EvalArgWrites(0, sh, []int64{0, 16}, 16, 1<<20)
	if !ok {
		t.Fatal("EvalArgWrites failed")
	}
	if len(aw.GroupSpans) != 4 {
		t.Fatalf("want 4 group spans, got %d", len(aw.GroupSpans))
	}
	for g, sp := range aw.GroupSpans {
		wantLo, wantHi := int64(g*4), int64(g*4+4)
		if sp.Lo != wantLo || sp.Hi != wantHi {
			t.Fatalf("group %d span [%d,%d), want [%d,%d)", g, sp.Lo, sp.Hi, wantLo, wantHi)
		}
	}
	if aw.Hull.Lo != 0 || aw.Hull.Hi != 16 {
		t.Fatalf("hull [%d,%d), want [0,16)", aw.Hull.Lo, aw.Hull.Hi)
	}
	if !aw.MustCover {
		t.Fatal("n=16 covers the whole buffer: want MustCover")
	}
	// n=12: the guard fails for the last group, so no full cover.
	aw, ok = ks.EvalArgWrites(0, sh, []int64{0, 12}, 16, 1<<20)
	if !ok || aw.MustCover {
		t.Fatalf("n=12 over 16 words: want no MustCover (ok=%v)", ok)
	}

	// Row-major 2-D fill: item (i) writes a whole row; cover via the
	// append-or-extend fast path.
	ks = mustAnalyze(t, `
__kernel void rows(__global float* out, int w) {
    int i = get_global_id(0);
    for (int j = 0; j < w; j++) {
        out[i * w + j] = 0.5f;
    }
}`)
	aw, ok = ks.EvalArgWrites(0, shape1D(4, 2), []int64{0, 8}, 64, 1<<20)
	if !ok || !aw.MustCover {
		t.Fatalf("8 rows x 8 cols: want MustCover, ok=%v must=%v", ok, aw.MustCover)
	}
	if aw.Hull.Lo != 0 || aw.Hull.Hi != 64 {
		t.Fatalf("hull [%d,%d), want [0,64)", aw.Hull.Lo, aw.Hull.Hi)
	}
}

// TestStaticOOBLint: a strided access with a provably negative minimum index
// and no guard produces the out-of-bounds diagnostic.
func TestStaticOOBLint(t *testing.T) {
	ks := mustAnalyze(t, `
__kernel void f(__global float* out) {
    out[get_global_id(0) - 5] = 1.0f;
}`)
	found := false
	for _, d := range ks.Diags {
		if strings.Contains(d.Msg, "provably out of bounds") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want out-of-bounds diag, got %v", ks.Diags)
	}

	// Guarded version must not fire.
	ks = mustAnalyze(t, `
__kernel void f(__global float* out) {
    int g = get_global_id(0);
    if (g >= 5) {
        out[g - 5] = 1.0f;
    }
}`)
	for _, d := range ks.Diags {
		if strings.Contains(d.Msg, "provably out of bounds") {
			t.Fatalf("guarded access should not fire the OOB lint: %v", d)
		}
	}
}

// TestRejectReasons covers the distinct precision-loss reasons the walker
// reports.
func TestRejectReasons(t *testing.T) {
	cases := []struct {
		name, src, reason string
		store             bool
	}{
		{
			name: "indirect",
			src: `
__kernel void f(__global float* out, __global int* idx) {
    out[idx[get_global_id(0)]] = 1.0f;
}`,
			reason: RejIndirect, store: true,
		},
		{
			name: "non-affine",
			src: `
__kernel void f(__global float* out) {
    int g = get_global_id(0);
    out[g * g] = 1.0f;
}`,
			reason: RejNonAffine, store: true,
		},
		{
			name: "loop-carried",
			src: `
__kernel void f(__global float* out, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc * 2 + 1;
        out[acc] = 1.0f;
    }
}`,
			reason: RejLoopCarried, store: true,
		},
		{
			name: "iv-step",
			src: `
__kernel void f(__global float* out, int n, int s) {
    for (int i = 0; i < n; i += s) {
        out[i] = 1.0f;
    }
}`,
			reason: RejIVStep, store: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ks := mustAnalyze(t, tc.src)
			a := ks.Arg("out")
			if a == nil {
				t.Fatal("no out arg")
			}
			for _, r := range a.Rejects {
				if r.Reason == tc.reason && r.Store == tc.store {
					return
				}
			}
			t.Fatalf("want %q store reject, got %+v\n%s", tc.reason, a.Rejects, ks.String())
		})
	}
}
