package vm

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"fluidicl/internal/analysis"
)

// Tests for the admission certificate and the per-reason one-lane counters.
// TestWGStridedSecondChance and TestWGSecondChanceBudget keep the names they
// had when the strided certificate was a second chance after a bytecode one.

// triSrc mirrors CORR's correlation kernel: a triangular scatter (diagonal
// point, row run, strided column) whose store indices are three different
// affine forms — outside the certificate's one-slot fast path — but whose
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
	// At budget 0 only the one-slot fast path can admit: the launch above
	// was admitted by the pairwise test.
	sh := analysis.LaunchShape{Dims: 1, Local: [3]int64{8, 1, 1}, NumGroups: [3]int64{2, 1, 1}, Count: [3]int64{2, 1, 1}}
	if v := k.sum.CertifyGroupDisjoint(sh, []int64{0, 0, m, n}, 0); v.Reason != analysis.VerdictBudget {
		t.Errorf("at budget 0: OK=%v reason %q, want the pairwise test's budget reject", v.OK, v.Reason)
	}
	if after.WGFallbackWGs != before.WGFallbackWGs {
		t.Errorf("WGFallbackWGs advanced for a certified launch")
	}
}

// oneLaneParity runs the launch on the interpreter, the referee, then on wg
// fused and per-step, each with and without an undo log. Every wg run must
// take each group the referee ran in one-lane sets under reason rej —
// WGLoopWGs, WGFallbackWGs and rej's counter advance by that count, InterpWGs
// not at all — and match the referee's buffers, error text and Stats, on an
// error too (a trap books the locality of the accesses its phase made
// before it); rolling the undo log back restores the arguments. It returns
// the referee's error.
func oneLaneParity(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg, rej WGReject) error {
	t.Helper()
	defer SetWGFuse(WGFuseEnabled())
	run := func(be Backend, undo *UndoLog) (bufs []string, st Stats, err error) {
		args := mkArgs()
		var start []string
		for _, a := range args {
			start = append(start, string(a.Buf))
		}
		st, err = k.ExecLaunch(nd, args, ExecOpts{Backend: be, Undo: undo})
		for _, a := range args {
			bufs = append(bufs, string(a.Buf))
		}
		if undo != nil {
			undo.Rollback()
			for i, a := range args {
				if string(a.Buf) != start[i] {
					t.Errorf("rollback did not restore argument %d", i)
				}
			}
		}
		return bufs, st, err
	}
	before := BackendSnapshot()
	bufI, stI, errI := run(BackendInterp, nil)
	groups := BackendSnapshot().InterpWGs - before.InterpWGs
	for _, fuse := range []bool{true, false} {
		SetWGFuse(fuse)
		for _, undo := range []*UndoLog{nil, new(UndoLog)} {
			before := BackendSnapshot()
			bufW, stW, errW := run(BackendWG, undo)
			after := BackendSnapshot()
			how := fmt.Sprintf("fuse %v, undo %v", fuse, undo != nil)
			if d := after.InterpWGs - before.InterpWGs; d != 0 {
				t.Errorf("%s: %d groups ran on the interpreter", how, d)
			}
			loop, fb, r := after.WGLoopWGs-before.WGLoopWGs, after.WGFallbackWGs-before.WGFallbackWGs, after.WGRejects[rej]-before.WGRejects[rej]
			if loop != groups || fb != groups || r != groups {
				t.Errorf("%s: %d lockstep groups, %d one-lane, %d %s rejects; want %d each (deltas: %v)",
					how, loop, fb, r, rej, groups, rejectDeltas(before, after))
			}
			if fmt.Sprint(errI) != fmt.Sprint(errW) {
				t.Fatalf("%s: errors differ: interp %v, wg %v", how, errI, errW)
			}
			if stI != stW {
				t.Fatalf("%s: Stats diverge:\ninterp: %+v\nwg:     %+v", how, stI, stW)
			}
			for i := range bufI {
				if bufI[i] != bufW[i] {
					t.Fatalf("%s: argument %d differs between interp and wg", how, i)
				}
			}
		}
	}
	return errI
}

// TestWGRejectReasons drives one launch per certificate reject reason, and a
// barrier some items skip, through oneLaneParity.
func TestWGRejectReasons(t *testing.T) {
	type tc struct {
		name   string
		src    string
		kernel string
		nd     NDRange
		rej    WGReject
		args   func() []Arg
		err    string
	}
	reversed := func() []byte {
		ib := make([]byte, 4*16)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(ib[4*i:], uint32(15-i))
		}
		return ib
	}
	cases := []tc{
		{
			name: "local-store-divergent-barrier",
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
			rej:    WGRejLocalStore,
			args: func() []Arg {
				return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) })), IntArg(16)}
			},
		},
		{
			// Half the items skip the barrier: the phase ends in the
			// interpreter's error, after the same stores.
			name: "local-store-barrier-not-reached",
			src: `
__kernel void skip(__global float* a, int n) {
    __local float tmp[16];
    int l = get_local_id(0);
    tmp[l] = a[l];
    a[l] = 2.0f * tmp[l];
    if (l < 8) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    a[l] = tmp[15 - l];
}`,
			kernel: "skip",
			rej:    WGRejLocalStore,
			args: func() []Arg {
				return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) })), IntArg(16)}
			},
			err: "barrier not reached by all work-items",
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
				return []Arg{BufArg(make([]byte, 4*16)), BufArg(reversed()), IntArg(16)}
			},
		},
		{
			// Item l reads the word item 15-l writes: the later half reads
			// what the earlier half stored.
			name: "unknown-read-gather",
			src: `
__kernel void gather(__global float* a, __global int* idx) {
    int l = get_local_id(0);
    a[l] = a[idx[l]] + 1.0f;
}`,
			kernel: "gather",
			rej:    WGRejUnknownRead,
			args: func() []Arg {
				return []Arg{BufArg(floatBuf(16, func(i int) float32 { return float32(i) })), BufArg(reversed())}
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
			// Two store forms over a grid of 2^20 items: the pairwise test
			// is over budget; the launch runs its first two groups, and the
			// second stores past the end of a, so the error row's Stats
			// hold the locality of every access before the trap.
			name: "budget-two-forms",
			src: `
__kernel void two(__global float* a, int n) {
    int g = get_global_id(0);
    a[g] = 1.0f;
    a[g + n] = a[g] + 2.0f;
}`,
			kernel: "two",
			nd:     NewNDRange1D(1<<20, 16).Slice(0, 1),
			rej:    WGRejBudget,
			args: func() []Arg {
				return []Arg{BufArg(make([]byte, 4*32)), IntArg(16)}
			},
			err: "store a: index 32 out of range",
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
		{
			// y = x shifted by one word: each item reads the word the item
			// before it stored.
			name: "alias-shifted-views",
			src: `
__kernel void axpy(__global float* x, __global float* y, int n) {
    int g = get_global_id(0);
    y[g] = x[g] * 2.0f;
}`,
			kernel: "axpy",
			rej:    WGRejAlias,
			args: func() []Arg {
				mem := floatBuf(17, func(i int) float32 { return float32(i) + 1 })
				return []Arg{BufArg(mem[:64]), BufArg(mem[4:]), IntArg(16)}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := MustCompile(c.src, c.kernel)
			nd := c.nd
			if nd.Dims == 0 {
				nd = NewNDRange1D(16, 16)
			}
			if rej := k.wgCertified(k.getScratch(), nd, c.args()); rej != c.rej {
				t.Fatalf("certificate says %v, want %v", rej, c.rej)
			}
			err := oneLaneParity(t, k, nd, c.args, c.rej)
			if err == nil && c.err != "" || err != nil && !strings.Contains(err.Error(), c.err) {
				t.Fatalf("error %v, want one saying %q", err, c.err)
			}
		})
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
	if rej := k.wgDisjoint(nd, args); rej != WGRejBudget {
		t.Fatalf("huge shape: want budget reject, got %v", rej)
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
	launch(4, 0, 3, 1, x, x) // aliased: one-lane sets, certifies and caches nothing
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
	if d := BackendSnapshot(); d.WGLoopWGs-snap.WGLoopWGs != 4+3*(2+2+2) || d.WGRejects[WGRejAlias]-snap.WGRejects[WGRejAlias] != 4 {
		t.Errorf("lockstep groups %d, alias rejects %d; want 22 (the aliased launch's four in one-lane sets) and 4",
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
