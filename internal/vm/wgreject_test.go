package vm

import (
	"encoding/binary"
	"testing"
)

// Tests for the strided second-chance certificate and the per-reason
// fallback counters.

// triSrc mirrors CORR's correlation kernel: a triangular scatter (diagonal
// point, row run, strided column) whose store indices are three different
// affine forms — far outside the identical-form certificate — but whose
// per-work-item footprints are pairwise disjoint.
const triSrc = `
__kernel void tri(__global float* data, __global float* symmat, int m, int n) {
    int j1 = get_global_id(0);
    if (j1 < m) {
        symmat[j1*m + j1] = 1.0f;
        for (int j2 = j1 + 1; j2 < m; j2++) {
            float acc = 0.0f;
            for (int i = 0; i < n; i++) {
                acc += data[i*m + j1] * data[i*m + j2];
            }
            symmat[j1*m + j2] = acc;
            symmat[j2*m + j1] = acc;
        }
    }
}
`

func TestWGStridedSecondChance(t *testing.T) {
	k := MustCompile(triSrc, "tri")
	if k.wg == nil {
		t.Fatal("wg compilation rejected the triangular scatter kernel")
	}
	const m, n = 16, 8
	before := BackendSnapshot()
	if err := runWGParity(t, k, NewNDRange1D(m, 8), func() []Arg {
		return []Arg{
			BufArg(floatBuf(n*m, func(i int) float32 { return float32(i%11) * 0.25 })),
			BufArg(make([]byte, 4*m*m)),
			IntArg(m), IntArg(n),
		}
	}); err != nil {
		t.Fatal(err)
	}
	after := BackendSnapshot()
	if got := after.WGLoopWGs - before.WGLoopWGs; got != 2 {
		t.Errorf("WGLoopWGs advanced by %d, want 2 (both groups in lockstep)", got)
	}
	if after.WGStridedWGs == before.WGStridedWGs {
		t.Errorf("WGStridedWGs did not advance: admission did not come from the disjointness certificate")
	}
	if after.WGFallbackWGs != before.WGFallbackWGs {
		t.Errorf("WGFallbackWGs advanced for a certified launch")
	}
}

// TestWGRejectReasons drives one launch per fallback reason and checks that
// exactly that reason's counter advances.
func TestWGRejectReasons(t *testing.T) {
	type tc struct {
		name   string
		src    string
		kernel string
		rej    WGReject
		args   func() []Arg
	}
	cases := []tc{
		{
			name: "shape-divergent-barrier",
			src: `
__kernel void divb(__global float* a, int n) {
    __local float tmp[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    tmp[l] = a[g];
    if (g >= 0) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    a[g] = tmp[15 - l];
}`,
			kernel: "divb",
			rej:    WGRejShape,
			args: func() []Arg {
				return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) })), IntArg(16)}
			},
		},
		{
			name: "unknown-store-indirect",
			src: `
__kernel void scatter(__global float* a, __global int* idx, int n) {
    int l = get_local_id(0);
    a[idx[l]] = (float)l;
}`,
			kernel: "scatter",
			rej:    WGRejUnknownStore,
			args: func() []Arg {
				ib := make([]byte, 4*16)
				for i := 0; i < 16; i++ {
					binary.LittleEndian.PutUint32(ib[4*i:], uint32(15-i))
				}
				return []Arg{BufArg(make([]byte, 4*16)), BufArg(ib), IntArg(16)}
			},
		},
		{
			name: "overlap-group-uniform",
			src: `
__kernel void ov(__global float* a, int n) {
    int g = get_group_id(0);
    a[g] = a[g] + 1.0f;
}`,
			kernel: "ov",
			rej:    WGRejOverlap,
			args: func() []Arg {
				return []Arg{BufArg(make([]byte, 4*16)), IntArg(16)}
			},
		},
		{
			name: "local-store-mixed-forms",
			src: `
__kernel void lmix(__global float* a, int n) {
    __local float tmp[16];
    int l = get_local_id(0);
    tmp[l] = a[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    tmp[15 - l] = tmp[15 - l] * 0.5f;
    a[get_global_id(0)] = tmp[l];
}`,
			kernel: "lmix",
			rej:    WGRejLocalStore,
			args: func() []Arg {
				return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) - 4 })), IntArg(16)}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := MustCompile(c.src, c.kernel)
			before := BackendSnapshot()
			if err := runWGParity(t, k, NewNDRange1D(16, 16), c.args); err != nil {
				t.Fatal(err)
			}
			after := BackendSnapshot()
			if after.WGLoopWGs != before.WGLoopWGs {
				t.Errorf("lockstep engine ran a launch that must fall back")
			}
			if got := after.WGRejects[c.rej] - before.WGRejects[c.rej]; got == 0 {
				t.Errorf("reject counter %q did not advance (deltas: %v)",
					c.rej, rejectDeltas(before, after))
			}
			if after.WGFallbackWGs == before.WGFallbackWGs {
				t.Errorf("WGFallbackWGs did not advance")
			}
		})
	}

	// Alias: needs a shared backing buffer, so it does not fit runWGParity.
	k := MustCompile(`
__kernel void axpy(__global float* x, __global float* y, int n) {
    int g = get_global_id(0);
    y[g] = x[g] * 2.0f;
}`, "axpy")
	shared := floatBuf(16, func(i int) float32 { return float32(i) })
	before := BackendSnapshot()
	buf := append([]byte(nil), shared...)
	if _, err := k.ExecLaunch(NewNDRange1D(16, 16),
		[]Arg{BufArg(buf), BufArg(buf), IntArg(16)}, ExecOpts{Backend: BackendWG}); err != nil {
		t.Fatal(err)
	}
	after := BackendSnapshot()
	if after.WGRejects[WGRejAlias] == before.WGRejects[WGRejAlias] {
		t.Errorf("alias reject counter did not advance")
	}
}

func rejectDeltas(before, after BackendCounters) map[string]int64 {
	d := make(map[string]int64)
	names := WGRejectNames()
	for i := range after.WGRejects {
		if delta := after.WGRejects[i] - before.WGRejects[i]; delta != 0 {
			d[names[i]] = delta
		}
	}
	return d
}

// TestWGSecondChanceBudget checks that an over-budget launch shape is
// rejected with the budget reason rather than an unbounded analysis.
func TestWGSecondChanceBudget(t *testing.T) {
	k := MustCompile(triSrc, "tri")
	nd := NewNDRange1D(256*1024, 256)
	args := []Arg{BufArg(nil), BufArg(nil), IntArg(256 * 1024), IntArg(8)}
	ok, rej := k.wgSecondChance(nd, args)
	if ok || rej != WGRejBudget {
		t.Fatalf("huge shape: want budget reject, got ok=%v rej=%v", ok, rej)
	}
}

// TestWGCertCachePerKernel pins the per-kernel decision cache. A cooperative
// run asks one kernel about alternating keys — the CPU variant's chunks
// differ in [fcl_lo, fcl_hi], fcl_merge in its grid — so the certificate
// must run once per distinct key, not once per change of key; a float
// argument is in no key; a rejected shape is cached as a reject while the
// alias check, which depends on the buffers and not on the key, stays per
// call and caches nothing; and the cache is bounded.
func TestWGCertCachePerKernel(t *testing.T) {
	certRuns := func() int64 { return backendCtr.wgCertRuns.Load() }
	_, cpuSrc, err := TransformedSources(`
__kernel void scale(__global float* x, __global float* y, float f, int n) {
    int g = get_global_id(0);
    if (g < n) { y[g] = x[g] * f; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	k := MustCompile(cpuSrc, "scale")
	x, y := make([]byte, 4*64), make([]byte, 4*64)
	launch := func(groups, lo, hi int, f float64, a, b []byte) {
		t.Helper()
		nd := NewNDRange1D(16*groups, 16).Slice(lo, hi)
		args := []Arg{BufArg(a), BufArg(b), FloatArg(f), IntArg(int64(16 * groups)), IntArg(int64(lo)), IntArg(int64(hi))}
		if _, err := k.ExecLaunch(nd, args, ExecOpts{Backend: BackendWG}); err != nil {
			t.Fatal(err)
		}
	}
	before, snap := certRuns(), BackendSnapshot()
	launch(4, 0, 3, 1, x, x) // aliased: falls back, certifies and caches nothing
	if got := certRuns() - before; got != 0 {
		t.Errorf("an aliased launch ran the certificate %d times, want 0", got)
	}
	for i := 0; i < 3; i++ {
		launch(4, 0, 1, float64(i), x, y) // chunk A, a new float each time
		launch(4, 2, 3, 1, x, y)          // chunk B
		launch(2, 0, 1, 1, x, y)          // another grid
	}
	if got := certRuns() - before; got != 3 {
		t.Errorf("certificate ran %d times for 3 distinct keys over 9 launches", got)
	}
	if d := BackendSnapshot(); d.WGLoopWGs-snap.WGLoopWGs != 3*(2+2+2) || d.WGRejects[WGRejAlias]-snap.WGRejects[WGRejAlias] != 4 {
		t.Errorf("lockstep groups %d, alias rejects %d; want 18 and 4",
			d.WGLoopWGs-snap.WGLoopWGs, d.WGRejects[WGRejAlias]-snap.WGRejects[WGRejAlias])
	}

	// Bounded, newest first: wgCertCacheCap+2 more keys push the three above
	// out, the last one asked about stays.
	for g := 5; g < 5+wgCertCacheCap+2; g++ {
		launch(g, 0, 0, 1, make([]byte, 4*16*g), make([]byte, 4*16*g))
	}
	if n := len(*k.certs.Load()); n != wgCertCacheCap {
		t.Errorf("cache holds %d decisions, want the cap %d", n, wgCertCacheCap)
	}
	before = certRuns()
	g := 5 + wgCertCacheCap + 1
	launch(g, 0, 0, 1, make([]byte, 4*16*g), make([]byte, 4*16*g))
	launch(4, 0, 1, 1, x, y)
	if got := certRuns() - before; got != 1 {
		t.Errorf("certificate ran %d times for one cached and one evicted key, want 1", got)
	}

	// A reject is a decision like any other: one computation, every group of
	// every launch counted under its reason.
	ov := MustCompile(`
__kernel void ov(__global float* a, int n) {
    int g = get_group_id(0);
    a[g] = a[g] + 1.0f;
}`, "ov")
	before, snap = certRuns(), BackendSnapshot()
	for i := 0; i < 2; i++ {
		if _, err := ov.ExecLaunch(NewNDRange1D(64, 16), []Arg{BufArg(make([]byte, 4*16)), IntArg(16)}, ExecOpts{Backend: BackendWG}); err != nil {
			t.Fatal(err)
		}
	}
	if got, rej := certRuns()-before, BackendSnapshot().WGRejects[WGRejOverlap]-snap.WGRejects[WGRejOverlap]; got != 1 || rej != 8 {
		t.Errorf("rejected shape: certificate ran %d times, %d overlap rejects; want 1 and 8", got, rej)
	}
}
