package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fluidicl/internal/passes"
)

// contigSrc is the kernel TestWGContiguousAccess fills in: a float and an
// int buffer to read, a float and an int buffer to write.
const contigSrc = `
__kernel void t(__global float* fa, __global int* ia, __global float* fo, __global int* io, int n) {
    int i = get_global_id(0);
    int l = get_local_id(0);
    %s
}`

// contigParity runs every group of the launch on the interpreter and on wg,
// each under its own undo log, and requires that wg ran every group in
// lockstep. The engines must agree on the error, text and pc included; on an
// error-free group also on every buffer byte, the full Stats, the write
// bounds and the undo log's words (as a multiset: the interpreter stores item
// by item, wg site by site); with exact, on the last two after a trap too.
// Rolling each log back must restore the group's buffers exactly; the launch
// then goes on from the stored bytes. It returns the error.
func contigParity(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg, exact bool) error {
	t.Helper()
	snap := func(args []Arg) (s [][]byte) {
		for _, a := range args {
			s = append(s, bytes.Clone(a.Buf))
		}
		return s
	}
	put := func(args []Arg, s [][]byte) {
		for i, a := range args {
			copy(a.Buf, s[i])
		}
	}
	sorted := func(u *UndoLog) []undoWord {
		ws := undoWords(u)
		slices.SortFunc(ws, func(a, b undoWord) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
		return ws
	}
	argsI, argsW := mkArgs(), mkArgs()
	for g := 0; g < nd.LaunchGroups(); g++ {
		before := snap(argsI)
		var logI, logW UndoLog
		oneLane := BackendSnapshot().WGFallbackWGs
		stI, errI := k.ExecWorkGroup(nd, nd.GroupAt(g), argsI, ExecOpts{Backend: BackendInterp, Undo: &logI})
		stW, errW := k.ExecWorkGroup(nd, nd.GroupAt(g), argsW, ExecOpts{Backend: BackendWG, Undo: &logW})
		if BackendSnapshot().WGFallbackWGs != oneLane {
			t.Fatalf("group %d ran in one-lane sets", g)
		}
		if fmt.Sprint(errI) != fmt.Sprint(errW) {
			t.Fatalf("group %d: errors differ\ninterp: %v\nwg:     %v", g, errI, errW)
		}
		if errW == nil || exact {
			if stI.ParamWriteMask != stW.ParamWriteMask || stI.WrLo != stW.WrLo || stI.WrHi != stW.WrHi {
				t.Fatalf("group %d: write bounds differ\ninterp: %#x %v %v\nwg:     %#x %v %v", g,
					stI.ParamWriteMask, stI.WrLo, stI.WrHi, stW.ParamWriteMask, stW.WrLo, stW.WrHi)
			}
			if wI, wW := sorted(&logI), sorted(&logW); !slices.Equal(wI, wW) {
				t.Fatalf("group %d: undo logs differ\ninterp: %v\nwg:     %v", g, wI, wW)
			}
		}
		applied := snap(argsW)
		if errW == nil {
			if !slices.EqualFunc(snap(argsI), applied, bytes.Equal) {
				t.Fatalf("group %d: buffers differ between interp and wg", g)
			}
			if stI != stW {
				t.Fatalf("group %d: Stats differ\ninterp: %+v\nwg:     %+v", g, stI, stW)
			}
		}
		logI.Rollback()
		logW.Rollback()
		if !slices.EqualFunc(snap(argsI), before, bytes.Equal) || !slices.EqualFunc(snap(argsW), before, bytes.Equal) {
			t.Fatalf("group %d: rollback did not restore the buffers", g)
		}
		if errW != nil {
			return errW
		}
		put(argsI, applied)
		put(argsW, applied)
	}
	return nil
}

// TestWGContiguousAccess holds the bulk path of the whole-group global load
// and store steps — lane t at word i0 + t, wholly inside the buffer's word
// view: one copy, one lane-affine log entry, one undo span (wgsteps.go,
// contig) — and the per-lane path every other pattern keeps to the
// interpreter (contigParity), in groups of two warps whose later groups
// start at a non-zero word of every view. The rows cover float and int loads
// and stores in range, a view that starts inside a larger array, a column
// that leaves the buffer at lane k of the last group (on a store and on a
// load), lane 0 out of step and a descending index (per lane), sites touched
// three times in one phase (a run of one offset, and entries 4 and 68 bytes
// on from the last, booked seq and rand), a group cut by i < n
// (partitioned, per lane), misaligned buffers (no view, per lane), and the
// twin GPU's variant of the stream body with its abort check, whose groups
// from 1 on return at entry. The site rows change one site's form within a
// phase — a broadcast run and a contiguous entry either way round (a step
// change: the lanes' last offsets must be written out before the lane pass),
// a contiguous entry and a column either way round, contiguous entries 64
// and 68 bytes apart (the closed form's seq/rand edge) — and book a fused
// loop's sites in a phase that later partitions (replay starts each item
// from them). contigChoice pins which of these patterns take the bulk path.
func TestWGContiguousAccess(t *testing.T) {
	t.Run("bulk path choice", contigChoice)
	const n, local = 192, 64
	nd := NewNDRange1D(n, local)
	type row struct {
		name, body string
		words      [4]int // of fa, ia, fo, io
		skew       int    // bytes fo starts past a 4-byte boundary of its array
		err        string // a substring of the trap; "" for none
		exact      bool   // every item stores one word, so the logs agree after a trap
	}
	all := [4]int{n, n, n, n}
	rows := []row{
		{name: "float and int in range", body: "fo[i] = fa[i] * 2.0f; io[i] = ia[i] + 1;", words: all},
		{name: "view inside a larger array", body: "fo[i] = fa[i] + (float)ia[i];", words: all, skew: 16, exact: true},
		{name: "store leaves at lane 7", body: "fo[i] = fa[i];", words: [4]int{n, n, 2*local + 7, n}, err: "store fo: index 135 out of range", exact: true},
		{name: "load leaves at lane 5", body: "io[i] = ia[i];", words: [4]int{n, 2*local + 5, n, n}, err: "load ia: index 133 out of range"},
		{name: "lane 0 out of step", body: "int j = i + 1 - min(l, 1); fo[i] = fa[j]; io[i] = ia[j];", words: all},
		{name: "descending", body: "fo[n - 1 - i] = fa[n - 1 - i]; io[n - 1 - i] = ia[n - 1 - i];", words: all},
		{name: "three touches per site", body: "for (int k = 0; k < 3; k++) { io[i] = io[i] + ia[i + k]; fo[i] = fo[i] + fa[i + 17 * k]; }",
			words: [4]int{n + 34, n + 2, n, n}},
		{name: "cut by i < n", body: "if (i < n - 40) { fo[i] = fa[i]; io[i] = ia[i] * 3; }", words: all},
		// Two NaN payloads meet in an add over part of the group: which one
		// the host keeps is its compiler's choice, the word stored is not.
		{name: "two NaNs meet in a partitioned add", body: "float a = fa[1]; float b = fa[i * 4 + 5]; if (l < 13) { fo[i] = a + b; }",
			words: [4]int{4*n + 8, n, n, n}},
		// One site changing form within a phase. A loop skeleton's load logs a
		// broadcast run while the walk runs it for the group and a contiguous
		// entry once its index differs by lane; the per-step loads below are
		// contiguous or a column from trip to trip.
		{name: "broadcast, then contiguous", body: siteLoop("o * l"), words: [4]int{4*n + 24, n, n, n}},
		{name: "contiguous, then broadcast", body: siteLoop("(1 - o) * l"), words: [4]int{4*n + 24, n, n, n}},
		{name: "contiguous, then a column", body: "for (int k = 0; k < 2; k++) { io[i] = io[i] + ia[i + k * l]; fo[i] = fo[i] + fa[i + k * l]; }",
			words: [4]int{n + local, n + local, n, n}},
		{name: "a column, then contiguous", body: "for (int k = 0; k < 2; k++) { io[i] = io[i] + ia[i + (1 - k) * l]; fo[i] = fo[i] + fa[i + (1 - k) * l]; }",
			words: [4]int{n + local, n + local, n, n}},
		{name: "contiguous, then contiguous 64 and 68 bytes on", body: "for (int k = 0; k < 2; k++) { io[i] = io[i] + ia[i + 16 * k]; fo[i] = fo[i] + fa[i + 17 * k]; }",
			words: [4]int{n + 17, n + 16, n, n}},
		// The loop's sites are booked in closed form while the phase is
		// uniform; l < 13 then partitions it, and the second entry's trips
		// are recorded per item, so replay must start them from the sites
		// (NaN words skipped, as in siteLoop).
		{name: "a fused loop, then a partition", body: `int rs = 4;
    float acc = 0.0f;
    for (int o = 0; o < 2; o++) {
        acc = acc * 0.5f;
        for (int k = 0; k < 20; k = k + 4) { acc += fa[i * rs + k] * fa[k]; }
        if (l < 13 + o) { fo[i] = acc; }
    }
    io[i] = (int)acc;`, words: [4]int{4*n + 24, n, n, n}},
	}
	for skew := 1; skew < 4; skew++ {
		rows = append(rows, row{name: fmt.Sprintf("misaligned by %d", skew), body: "fo[i] = fa[i] - 1.0f;", words: all, skew: skew, exact: true})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			k := MustCompile(fmt.Sprintf(contigSrc, r.body), "t")
			mkArgs := func() []Arg {
				var args []Arg
				for b, w := range r.words {
					var buf []byte
					switch b {
					case 0, 1:
						// Every fourth word a signalling NaN's bits, which every store
						// writes back as the canonical quiet NaN (storeBits).
						buf = make([]byte, 4*w)
						for i := 0; i < w; i++ {
							v := uint32(int32(i*7%19 - 9))
							if b == 0 {
								v = math.Float32bits(float32(i%13)*0.5 - 2)
							}
							if i%4 == 1 {
								v = 0xff800001 + uint32(i)
							}
							binary.LittleEndian.PutUint32(buf[4*i:], v)
						}
					case 2:
						// An array 4-byte aligned at its start (a byte slice's own start
						// need not be), fo at skew bytes into it.
						arr := make([]byte, 4*w+20)
						for _, ok := f32View(arr); !ok; _, ok = f32View(arr) {
							arr = arr[1:]
						}
						buf = arr[r.skew:][:4*w]
						copy(buf, floatBuf(w, func(i int) float32 { return float32(i) * 0.25 }))
					default:
						buf = make([]byte, 4*w)
					}
					args = append(args, BufArg(buf))
				}
				return append(args, IntArg(n))
			}
			err := contigParity(t, k, nd, mkArgs, r.exact)
			if (err == nil) != (r.err == "") || err != nil && !strings.Contains(err.Error(), r.err) {
				t.Errorf("error %v, want %q", err, r.err)
			}
		})
	}

	// The twin GPU's variant under an undo log: every group runs (the abort
	// never fires), then only group 0 does.
	src, _, err := TransformedSources(StreamSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := MustCompile(src, "stream")
	for _, doneFrom := range []int32{passes.NoCPUWork, 1} {
		mkArgs := func() []Arg {
			args := []Arg{BufArg(floatBuf(n, func(i int) float32 { return float32(i%5) + 0.5 })),
				BufArg(floatBuf(n, func(i int) float32 { return float32(i%3) - 1 })), BufArg(floatBuf(n, func(int) float32 { return 7 })),
				FloatArg(0.75), IntArg(n)}
			return append(args, GPUAbortArgs(0, doneFrom)...)
		}
		if err := contigParity(t, k, nd, mkArgs, true); err != nil {
			t.Errorf("GPU variant, done from %d: %v", doneFrom, err)
		}
	}
}

// siteLoop is a reduction loop whose skeleton polls ia[p] after every
// third trip, entered twice with p set to the given expression of the
// entry o and the lane l. The float op before it keeps the outer loop out
// of the skeleton, and its loads skip fa's NaN words (fa[4j+1]).
func siteLoop(p string) string {
	return `int rs = 4;
    float acc = 0.0f;
    for (int o = 0; o < 2; o++) {
        acc = acc * 0.5f;
        int p = ` + p + `;
        for (int k = 0; k < 24; ) {
            for (int u = 0; u < 3; u = u + 1) {
                if (!(k < 24)) { break; }
                acc += fa[i * rs + k] * fa[k];
                k = k + 4;
            }
            if (ia[p] == 99) { return; }
        }
    }
    fo[i] = acc;`
}

// contigChoice pins which index banks contig hands the bulk path: a whole
// group's lane-contiguous run wholly inside the view, and nothing else.
func contigChoice(t *testing.T) {
	v := make([]float32, 8)
	m := &wmach{full: true, views: [][]float32{v, nil}}
	for _, c := range []struct {
		slot  int32
		idx   []int64
		first int // the run's first word; -1: no bulk path
	}{
		{0, []int64{2, 3, 4, 5}, 2},
		{0, []int64{4, 5, 6, 7}, 4},   // ends on the view's last word
		{0, []int64{5, 6, 7, 8}, -1},  // leaves at lane 3
		{0, []int64{-1, 0, 1, 2}, -1}, // starts below the view
		{0, []int64{3, 3, 4, 5}, -1},  // lane 0 one behind
		{0, []int64{1, 3, 4, 5}, -1},  // lane 0 one ahead of its step
		{0, []int64{5, 4, 3, 2}, -1},  // descending
		{0, []int64{2, 2, 2, 2}, -1},  // one word for all
		{1, []int64{0, 1, 2, 3}, -1},  // no view (misaligned)
	} {
		w := m.contig(c.slot, c.idx)
		if ok := w != nil && len(w) == len(c.idx) && &w[0] == &v[max(c.first, 0)]; ok != (c.first >= 0) || w != nil && c.first < 0 {
			t.Errorf("contig(%d, %v) = %d words, want the run from word %d", c.slot, c.idx, len(w), c.first)
		}
	}
	m.full = false
	if m.contig(0, []int64{0, 1, 2, 3}) != nil {
		t.Error("contig took the bulk path for a set that is not the whole group")
	}
}
