package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// locSig is TestWGLocalityForms' kernel: fa is read-only, each item writes
// only words of fo and io that no other item touches (its own word, or its
// row of 128), and a kernel that stores to sl runs in one-lane sets.
const locSig = `__kernel void t(__global float* fa, __global float* fo, __global int* io, int n, int m) {
    __local float sl[48];
    int i = get_global_id(0);
    int l = get_local_id(0);
    int w = get_local_size(0);
`

// TestWGLocalityForms holds the phase end's locality booking to the
// interpreter and to the per-step path, full Stats and bytes, on each shape
// of a site's log: whole-group entries of every kind (columns, the jam's
// columns of runs with lane-varying strides, broadcast and contiguous runs,
// repeated) and the per-item entries after a partition or a trap, in the
// orders a phase can log them, at a local size with a partial warp (12) and
// one over a warp (48). Each row must reach the per-item booking
// (wgLanesHook), and the rows that log a site whole-group first and per item
// after must book one so.
func TestWGLocalityForms(t *testing.T) {
	rows := []struct {
		name, body string
		prefix     bool   // a site books whole-group entries, then per-item ones
		jam        bool   // the reduction jam runs whole loops
		err        string // a substring of the trap; "" for none
		serial     bool   // the kernel stores to sl: one-lane sets, the interpreter's order
		trapLoc    bool   // every access before the trap is the interpreter's too
	}{
		{name: "CORR's shape: a long uniform prefix, then a partition in the last trips", prefix: true, jam: true, body: `
    for (int j = l + 1; j < m + w; j++) {
        float s = 0.5f;
        for (int k = 0; k < 8; k++) { s += fa[k * n + j] * fa[k * n + l]; }
        fo[i * 128 + j] = s;
    }`},
		{name: "a partition at the first trip", body: `
    if (l % 3 != 1) { fo[i * 128 + 100] = fa[i] * 2.0f; }
    for (int k = 0; k < 4; k++) { fo[i * 128 + k] = fa[k * 96 + i] + fa[k]; io[i] = io[i] + k; }`},
		{name: "broadcast and contiguous runs straddle the partition", prefix: true, body: `
    float acc = 0.0f;
    for (int k = 0; k < 6; k++) {
        if (k >= 4 && l % 3 == 0) { break; }
        acc += fa[k] + fa[0] + fa[k * 96 + i] + fa[i];
        io[i * 128 + k] = k;
    }
    fo[i] = acc;`},
		{name: "the jam's runs, then a partition", prefix: true, jam: true, body: `
    int rs = 4;
    float acc = 0.0f;
    for (int o = 0; o < 2; o++) {
        acc = acc * 0.5f;
        for (int k = 0; k < 20; k = k + 4) { acc += fa[i * rs + k] * fa[k * l + i]; }
        if (l < 5 + o) { fo[i] = acc; }
    }
    io[i] = (int)acc;`},
		{name: "a trap in a whole-group column", err: "load fa: index", trapLoc: true, body: `
    int j = l + (l / 5) * 100000;
    float v = fa[j];
    if (v > 1000.0f) { fo[i] = v; }`},
		{name: "a trap after the partition", err: "out of range", body: `
    for (int j = l + 1; j < m + w; j++) { fo[i * 128 + j] = fa[j * 4]; }
    fo[i * 128] = fa[l * 4096];`},
		{name: "one-lane sets", serial: true, body: `
    sl[l] = fa[i];
    for (int k = 0; k < l % 4 + 1; k++) { fo[i * 128 + k] = sl[l] + fa[k * 96 + i] + fa[k]; }`},
		{name: "one-lane sets, then a trap", serial: true, err: "load fa: index", body: `
    sl[l] = fa[i];
    for (int k = 0; k < l % 4 + 1; k++) { fo[i * 128 + k] = sl[l] + fa[k * 96 + i]; }
    if (l == 5) { fo[i] = fa[100000]; }`},
	}
	t.Run("laneWarp against the expanded accesses", laneWarpExpanded)
	defer SetWGFuse(true)
	for _, r := range rows {
		k := MustCompile(locSig+r.body+"\n}", "t")
		for _, local := range []int{12, 48} {
			label := fmt.Sprintf("%s, local size %d", r.name, local)
			nd := NewNDRange1D(96, local)
			var bufs [3]string
			var sts [3]Stats
			var errs [3]error
			plain, prefixed := LanesBooked()
			before := BackendSnapshot()
			for i, fuse := range []bool{true, true, false} {
				SetWGFuse(fuse)
				be := BackendWG
				if i == 0 {
					be = BackendInterp
				}
				args := []Arg{BufArg(floatBuf(96*96, func(j int) float32 { return float32(j%29)*0.25 - 3 })),
					BufArg(make([]byte, 4*96*128)), BufArg(make([]byte, 4*96*128)), IntArg(96), IntArg(40)}
				sts[i], errs[i] = k.ExecLaunch(nd, args, ExecOpts{Backend: be})
				for _, a := range args[:3] {
					bufs[i] += string(a.Buf)
				}
			}
			after := BackendSnapshot()
			if ran := after.WGFallbackWGs != before.WGFallbackWGs; ran != r.serial {
				t.Errorf("%s: ran in one-lane sets %v, want %v", label, ran, r.serial)
			}
			if jam := after.WGLoopTripsDyn != before.WGLoopTripsDyn; jam != r.jam {
				t.Errorf("%s: the jam ran whole loops %v, want %v", label, jam, r.jam)
			}
			p1, p2 := LanesBooked()
			if p1+p2 == plain+prefixed || r.prefix && p2 == prefixed {
				t.Errorf("%s: %d sites booked item by item, %d of them after whole-group entries; want some%s",
					label, p1+p2-plain-prefixed, p2-prefixed, map[bool]string{true: ", some so", false: ""}[r.prefix])
			}
			for i, how := range []string{"wg", "wg per-step"} {
				if (errs[i+1] == nil) != (errs[0] == nil) || r.serial && fmt.Sprint(errs[i+1]) != fmt.Sprint(errs[0]) {
					t.Errorf("%s: %s error %v, interp %v", label, how, errs[i+1], errs[0])
				}
				if errs[0] != nil && !r.serial {
					// Outside one-lane sets a trap leaves different work done,
					// but for the accesses of a row made before it.
					w, in := sts[i+1], sts[0]
					if r.trapLoc && (w.SeqBytes != in.SeqBytes || w.RandBytes != in.RandBytes || w.WarpTransactions != in.WarpTransactions) {
						t.Errorf("%s: %s locality diverges\ninterp: %+v\n%s: %+v", label, how, in, how, w)
					}
					continue
				}
				if bufs[i+1] != bufs[0] {
					t.Errorf("%s: %s bytes differ from the interpreter's", label, how)
				}
				if sts[i+1] != sts[0] {
					t.Errorf("%s: %s Stats diverge\ninterp: %+v\n%s: %+v", label, how, sts[0], how, sts[i+1])
				}
			}
			if got := fmt.Sprint(errs[0]); r.err == "" && errs[0] != nil || r.err != "" && !strings.Contains(got, r.err) {
				t.Errorf("%s: interp error %s, want %q", label, got, r.err)
			}
		}
	}
}

// laneWarpExpanded holds laneWarp, which walks two items' run entries in
// stretches, to the memTracker's rule on their accesses one by one, over
// random lists whose runs split the accesses differently in the two items.
func laneWarpExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() (es []wgEnt, offs []int32) {
		for range rng.Intn(4) {
			e := wgEnt{at: 4 * int32(rng.Intn(8)), step: 4 * int32(rng.Intn(5)-2), run: 1 + int64(rng.Intn(4))}
			for j := int32(0); j < int32(e.run); j++ {
				offs = append(offs, e.at+j*e.step)
			}
			es = append(es, e)
		}
		return es, offs
	}
	for i := 0; i < 5000; i++ {
		cur, c := gen()
		prev, p := gen()
		var want int64
		for k, off := range c {
			if k >= len(p) || off-p[k] > 4 || p[k]-off > 4 {
				want++
			}
		}
		if got := laneWarp(cur, prev); got != want {
			t.Fatalf("laneWarp(%v, %v) = %d, want %d", cur, prev, got, want)
		}
	}
}
