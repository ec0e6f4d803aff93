package vm

import (
	"fmt"
	"strings"
	"testing"

	"fluidicl/internal/passes"
)

// Tests for loop-level fusion (wgloop.go): the one-state-machine rule of the
// closed-form locality booking, the loop verdicts, and the walk's error and
// exit paths. The interpreter is the referee throughout: bytes and full
// Stats, so Seq/Rand/WarpTransactions pin the tracker state.

// loopCase is one kernel over (out, in, ib, n), launched as 32 work-items in
// groups of 8 with in[] holding 1024 floats and ib[] 128 ints.
type loopCase struct {
	name string
	src  string
	// batched: the loop closure must run whole loops (wg_loop_batches_dyn);
	// single: it must fall back to one trip per dispatch at least once
	// (wg_loop_nonuniform_dyn).
	batched, single bool
	// verdict, when set, must appear in the disassembly of both variants.
	verdict string
	noGPU   bool // passes.TransformGPU does not take the kernel
}

// The strides live in variables: the jam's affine index group multiplies two
// registers.
const loopSig = "__kernel void t(__global float* out, __global float* in, __global int* ib, int n) {\n" +
	"    int g = get_global_id(0);\n    int l = get_local_id(0);\n    int rs = 9;\n    int rt = 33;\n"

// loopArgs returns the arguments of a loopCase kernel, in[] holding inWords
// floats, followed by extra.
func loopArgs(inWords int, extra []Arg) func() []Arg {
	return func() []Arg {
		ints := make([]byte, 4*128)
		for i := 0; i < len(ints); i += 4 {
			ints[i] = byte(i % 7) // small non-negative ints
		}
		return append([]Arg{
			BufArg(make([]byte, 4*256)),
			BufArg(floatBuf(inWords, func(i int) float32 { return float32(i%13)*0.25 - 1 })),
			BufArg(ints), IntArg(32),
		}, extra...)
	}
}

// loopFiveWay holds a loopCase kernel, as written and GPU-transformed, to
// diffFiveWay's agreement (the AST reference, the interpreter, wg fused and
// per-step), and requires the loop verdict fused.
func loopFiveWay(t *testing.T, name, src string, inWords int) {
	t.Helper()
	gpu, _, err := TransformedSources(src)
	if err != nil {
		t.Fatalf("%s: TransformGPU: %v", name, err)
	}
	for _, v := range []struct {
		name, src string
		extra     []Arg
	}{{name, src, nil}, {name + " (gpu)", gpu, GPUAbortArgs(1, 3)}} {
		if d := MustCompile(v.src, "t").Disasm(); !strings.Contains(d, "wg.loop-fuse (") {
			t.Errorf("%s: the loop did not fuse\n%s", v.name, d)
		}
		diffFiveWay(t, v.name, v.src, "t", NewNDRange1D(32, 8), loopArgs(inWords, v.extra))
	}
}

// launchErrs runs the launch on the interpreter, on wg and on wg per-step.
func launchErrs(k *Kernel, nd NDRange, mkArgs func() []Arg) (errs [3]error) {
	defer SetWGFuse(true)
	for i, be := range []Backend{BackendInterp, BackendWG, BackendWG} {
		SetWGFuse(i < 2)
		_, errs[i] = k.ExecLaunch(nd, mkArgs(), ExecOpts{Backend: be})
	}
	return errs
}

// runLoopCase holds both variants of c to the interpreter and checks the
// dynamic loop counters moved the way the case says.
func runLoopCase(t *testing.T, c loopCase) {
	t.Helper()
	gpuSrc, _, err := TransformedSources(c.src)
	if err != nil && !c.noGPU {
		t.Fatalf("%s: TransformGPU: %v", c.name, err)
	}
	mk := func(extra []Arg) func() []Arg { return loopArgs(1024, extra) }
	type variant struct {
		name, src string
		extra     []Arg
	}
	variants := []variant{{"original", c.src, nil}}
	if !c.noGPU {
		variants = append(variants, variant{"gpu variant", gpuSrc, GPUAbortArgs(1, 3)}) // group 3 aborts at entry, 0..2 poll and run on
	}
	for _, v := range variants {
		t.Run(c.name+"/"+v.name, func(t *testing.T) {
			k := MustCompile(v.src, "t")
			if c.verdict != "" && !strings.Contains(k.Disasm(), c.verdict) {
				t.Errorf("disassembly lacks %q\n%s", c.verdict, k.Disasm())
			}
			before := BackendSnapshot()
			if err := runWGParity(t, k, NewNDRange1D(32, 8), mk(v.extra)); err != nil {
				t.Error(err)
			}
			after := BackendSnapshot()
			if c.batched && after.WGLoopBatchesDyn == before.WGLoopBatchesDyn {
				t.Errorf("no dispatch ran a whole loop\n%s", k.Disasm())
			}
			if c.single && after.WGLoopNonuniformDyn == before.WGLoopNonuniformDyn {
				t.Errorf("the uniformity precheck never failed\n%s", k.Disasm())
			}
			if !c.single && after.WGLoopNonuniformDyn != before.WGLoopNonuniformDyn {
				t.Errorf("the uniformity precheck failed %d times", after.WGLoopNonuniformDyn-before.WGLoopNonuniformDyn)
			}
		})
	}
}

// TestWGLoopTrackerState pins the rule that an access site has exactly one
// locality state machine per phase. The sizing prototype of the loop
// closure drained the column log into lastB/seenB when it booked a loop;
// a later lane-divergent branch then sent the rest of the phase through the
// per-item memTracker, which started every site at "never seen", and the
// generative strided differential (seed 68: a reduction loop followed by
// `if (g < 17)`) classified 16 accesses Rand instead of Seq. The cases: that
// shape; a loop whose site is booked in closed form and then, after the
// group diverged, recorded per item in the same phase (the tracker must be
// seeded from lastB/seenB); a loop entered twice in one uniform phase; the
// same across a barrier, where a divergent phase with bookings must still
// reset the state; a columnar int load between bookings of one uniform
// phase; and the broadcast runs of the skeleton's uniform loads, through
// replayCols and through colFlush at the first partition, its only caller.
func TestWGLoopTrackerState(t *testing.T) {
	for _, c := range []loopCase{
		{name: "loop, then a lane-divergent guard", batched: true, src: loopSig + `
    float acc = in[g];
    for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    acc = acc + in[g + 3];
    if (g < 13) { out[g] = acc + in[g + 1]; }
    out[g + 64] = acc;
}`},
		{name: "booked, diverged, then recorded per item", batched: true, src: loopSig + `
    float acc = in[g];
    for (int o = 0; o < 3; o++) {
        acc = acc * 0.5f;
        for (int k = 0; k < 5; k++) { acc += in[g * rs + k] * in[k]; }
        acc = acc + 1.0f;
        if (g < 13 + o) { out[g * 4 + o] = acc; }
    }
    out[g + 160] = acc;
}`},
		{name: "lanes leave the loop at different trips", single: true, src: loopSig + `
    float acc = in[g];
    for (int k = l % 3; k < l + 2; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc;
}`},
		{name: "loop entered twice in one phase", batched: true, src: loopSig + `
    for (int o = 0; o < 3; o++) {
        float acc = 0.25f;
        for (int k = 0; k < 6; k++) { acc += in[k * rt + g] * in[o]; }
        out[g * 4 + o] = acc;
    }
}`},
		// Every phase diverges, so from the second on the group's step
		// budgets are per item and the closure runs one trip per dispatch —
		// against state the previous phase's replay() must have cleared.
		{name: "loop after a barrier", batched: true, single: true, noGPU: true, src: `
__kernel void t(__global float* out, __global float* in, __global int* ib, int n) {
    __local float tmp[8];
    int g = get_global_id(0);
    int l = get_local_id(0);
    int rs = 9;
    for (int o = 0; o < 3; o++) {
        float acc = 0.25f;
        for (int k = 0; k < 6; k++) { acc += in[g * rs + k] * in[k]; }
        if (l < 3 + o) { acc = acc + in[l]; }
        tmp[l] = acc;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[g] = tmp[l] + 1.0f;
    }
}`},
		// Named for what it drove while the per-step superinstructions existed:
		// their int-load arm recorded per item in a full-group dispatch, the
		// one way a uniform phase left the column log. The load is a plain
		// column now; the case stays for a column of one site between two of
		// another's closed-form bookings.
		{name: "uniform phase that left columnar mode", batched: true, src: loopSig + `
    int s = ib[l * rs + l];
    float acc = in[g];
    for (int k = 0; k < 9; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc + (float)s;
}`},
		// The skeleton's uniform loads are logged as broadcast runs, merged per
		// site while the offset repeats (pollLoop; passes.TransformGPU adds its
		// own polls of fcl_status on top). Here one site alternates between two
		// offsets, so every run has length one.
		{name: "uniform loads alternating between two offsets", batched: true, src: loopSig + `
    float acc = in[g];
    int p = 0;
` + pollLoop("ib[p]", "p = (1 - p);", 13) + `
    out[g] = acc;
}`},
		// Likewise: the int load between the two loops is a column and flushes
		// nothing, so the log reads run, column of another site, run — all
		// three booked by replayCols.
		{name: "a broadcast run flushed when the phase leaves columnar mode", batched: true, src: loopSig + `
    float acc = in[g];
` + pollLoop("ib[0]", "", 13) + `
    int s = ib[l * rs + l];
` + pollLoop("ib[0]", "", 7) + `
    out[g] = acc + (float)s;
}`},
		// colFlush's one entry: the runs the first loop logged are expanded into
		// every item's stream when `if (g < 13)` first partitions the group; the
		// second loop then runs per-step, appending to those streams, and
		// replay() seeds each site from the first loop's closed-form bookings.
		{name: "a broadcast run flushed at the first partition", batched: true, src: loopSig + `
    float acc = in[g];
` + pollLoop("ib[0]", "", 13) + `
    if (g < 13) { out[g + 64] = acc + in[g + 1]; }
` + pollLoop("ib[0]", "", 7) + `
    out[g] = acc;
}`},
		{name: "a broadcast run across two entries of the loop", batched: true, src: loopSig + `
    for (int o = 0; o < 3; o++) {
        float acc = 0.25f;
` + pollLoop("ib[2]", "", 6) + `
        out[g * 4 + o] = acc;
    }
}`},
	} {
		runLoopCase(t, c)
	}
}

// pollLoop is a reduction loop of m trips over acc in the shape
// passes.TransformGPU produces: every fourth trip polls a status word — here
// the uniform load poll, never 99, followed by step — so the load sits in the
// loop's control skeleton.
func pollLoop(poll, step string, m int) string {
	return fmt.Sprintf(`    for (int k = 0; (k < %[3]d); )
    {
        if (((%[1]s == 99) && (k >= ib[1])))
        {
            out[g + 200] = 1.0f;
            return;
        }
        %[2]s
        for (int u = 0; (u < 4); u = (u + 1))
        {
            if ((!(k < %[3]d)))
            {
                break;
            }
            acc += in[g * rs + k] * in[k];
            k = (k + 1);
        }
    }`, poll, step, m)
}

// TestWGLoopVerdicts: every way a fused reduction body is kept off the loop
// closure names its reason and still matches the interpreter one trip at a
// time; trip counts 0 and 1, a second induction variable used only in an
// index and a stride that differs from lane to lane take the closure.
func TestWGLoopVerdicts(t *testing.T) {
	before := BackendSnapshot()
	for _, c := range []loopCase{
		{name: "float compare in the loop control", verdict: "wg.loop-nofuse (no-cycle)", src: loopSig + `
    float acc = in[g];
    float lim = (float)n * 0.25f;
    for (int k = 0; (float)k < lim; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc;
}`},
		{name: "both index factors are counters", verdict: "wg.loop-nofuse (index-not-linear r", src: loopSig + `
    float acc = in[g];
    int q = 1;
    for (int k = 0; k < 6; k++) { acc += in[k * q + g]; q = q + 2; }
    out[g] = acc + (float)q;
}`},
		{name: "the skeleton redefines an index source", verdict: "wg.loop-nofuse (index-not-linear r", src: loopSig + `
    float acc = in[g];
    for (int o = 0; o < 3; o++) {
        for (int k = 0; k < 5; k++) { acc += in[o * rt + k] * in[g]; }
    }
    out[g] = acc;
}`},
		{name: "the skeleton redefines an index counter", verdict: "wg.loop-nofuse (counter-redefined r", src: loopSig + `
    float acc = in[g];
    for (int o = 0; o < 3; o++) {
        for (int k = 0; k < 5; k++) { acc += in[k] * in[g]; }
    }
    out[g] = acc;
}`},
		{name: "zero trips", verdict: "wg.loop-fuse (", src: loopSig + `
    float acc = in[g];
    for (int k = 0; k < n - 32; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc;
}`},
		{name: "one trip", verdict: "wg.loop-fuse (", batched: true, src: loopSig + `
    float acc = in[g];
    for (int k = 0; k < n - 31; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc;
}`},
		{name: "second induction variable, lane-varying, only in an index", verdict: "wg.loop-fuse (", batched: true, src: loopSig + `
    float acc = in[g];
    int p = g;
    for (int k = 0; k < 7; k++) { acc += in[p] * in[k * rt + g]; p = p + 5; }
    out[g] = acc + (float)p;
}`},
		// 16 words are exactly one cache line: Seq; 17 are Rand.
		{name: "strides at the cache-line boundary", verdict: "wg.loop-fuse (", batched: true, src: loopSig + `
    float acc = in[g];
    int ra = 16;
    int rb = 17;
    for (int k = 0; k < 7; k++) { acc += in[k * ra + g] * in[k * rb + g]; }
    out[g] = acc;
}`},
		// Each accumulator runs the trips of its own terms: two terms around
		// a third one's, whose accumulator has a single load; and two
		// two-factor terms on an accumulator each (GESUMMV's shape).
		{name: "terms interleaved over two accumulators", verdict: "wg.loop-fuse (", batched: true, src: loopSig + `
    float acc = in[g];
    float sum = 0.5f;
    int h = g + 1;
    for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; sum += in[k * rt + g]; acc += in[k] * in[h]; }
    out[g] = acc;
    out[g + 64] = sum;
}`},
		{name: "one two-factor term per accumulator", verdict: "wg.loop-fuse (", batched: true, src: loopSig + `
    float acc = in[g];
    float sum = 0.5f;
    for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; sum += in[k * rt + g] * in[k]; }
    out[g] = acc;
    out[g + 64] = sum;
}`},
		// Adjacent lanes' accesses start one word apart and drift by one more
		// per trip, so they coalesce on the first trips only.
		{name: "lane-varying stride", verdict: "wg.loop-fuse (", batched: true, src: loopSig + `
    float acc = in[g];
    for (int k = 0; k < 7; k++) { acc += in[k * l + g] * in[l * rs + k]; }
    out[g] = acc;
}`},
	} {
		runLoopCase(t, c)
	}
	after := BackendSnapshot()
	for r := WGLoopRejNone; int(r) < wgLoopRejCount; r++ {
		if after.WGLoopVerdicts[r] == before.WGLoopVerdicts[r] {
			t.Errorf("no kernel compiled with loop verdict %v", r)
		}
	}
}

// loopAbortSrc is a loop in the shape passes.TransformGPU produces, except
// that its in-loop check depends on the counter, so it fires after some
// trips: the walk must leave the skeleton at the ret block with exactly the
// completed trips booked.
const loopAbortSrc = `
__kernel void t(__global float* out, __global float* in, __global int* st, int m) {
    int g = get_global_id(0);
    int rs = 20;
    float acc = in[g];
    for (int k = 0; (k < m); )
    {
        if (((st[0] == 1) && (k >= st[1])))
        {
            out[g + 64] = 1.0f;
            return;
        }
        for (int u = 0; (u < 4); u = (u + 1))
        {
            if ((!(k < m)))
            {
                break;
            }
            acc += in[g * rs + k] * in[k];
            k = (k + 1);
        }
    }
    out[g] = acc;
}`

// TestWGLoopWalkExits drives the walk's three ways out other than the loop
// bound: the in-loop abort check firing after some trips, an index leaving
// its buffer at a trip j > 0 (same error as the per-step load, from every
// engine), and the step budget running out inside the walk at every
// possible block (same error presence as the interpreter's exact count).
func TestWGLoopWalkExits(t *testing.T) {
	nd := NewNDRange1D(32, 8)
	args := func(inWords int, st ...int32) func() []Arg {
		return func() []Arg {
			return []Arg{BufArg(make([]byte, 4*128)),
				BufArg(floatBuf(inWords, func(i int) float32 { return float32(i%11)*0.5 - 2 })),
				BufArg(i32buf(st...)), IntArg(18)}
		}
	}
	k := MustCompile(loopAbortSrc, "t")
	if !strings.Contains(k.Disasm(), "wg.loop-fuse (") {
		t.Fatalf("the hand-unrolled loop did not loop-fuse\n%s", k.Disasm())
	}
	before := BackendSnapshot()
	for _, abortAt := range []int32{0, 4, 8, 16, 99} {
		diffFiveWay(t, "abort mid-loop", loopAbortSrc, "t", nd, args(1024, 1, abortAt))
	}
	if d := BackendSnapshot().WGLoopBatchesDyn - before.WGLoopBatchesDyn; d == 0 {
		t.Error("no abort run went through the loop closure")
	}

	// in[] ends inside the last work-items' rows: g*20+k leaves it at k > 0.
	for _, words := range []int{31*20 + 5, 31*20 + 17, 30 * 20} {
		err := runWGParity(t, k, nd, args(words, 0, 0))
		if err == nil || !strings.Contains(err.Error(), "load in: index") {
			t.Errorf("in[%d]: want the out-of-range load error, got %v", words, err)
		}
	}

	// One group needs 1100-odd steps per item; sweep the budget across the
	// whole loop so the overrun lands on every block of the skeleton. The
	// lowered walk charges a chain of blocks at once: it must still name the
	// block the per-step dispatcher names, which is the one that holds the
	// instruction the interpreter stops at.
	defer SetWGFuse(true)
	for budget := int64(40); budget < 1300; budget += 3 {
		var errs [3]error
		var sts [3]Stats
		var outs [3]string
		for i, be := range []Backend{BackendInterp, BackendWG, BackendWG} {
			SetWGFuse(i < 2)
			a := args(1024, 0, 0)()
			sts[i], errs[i] = k.ExecWorkGroup(nd, [3]int{0, 0, 0}, a, ExecOpts{Backend: be, MaxSteps: budget})
			outs[i] = string(a[0].Buf)
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] == nil) != (errs[2] == nil) {
			t.Fatalf("MaxSteps %d: interp %v, wg %v, wg per-step %v", budget, errs[0], errs[1], errs[2])
		}
		if errs[0] == nil {
			if sts[0] != sts[1] || outs[0] != outs[1] {
				t.Fatalf("MaxSteps %d: results diverge\ninterp %+v\nwg     %+v", budget, sts[0], sts[1])
			}
			continue
		}
		ei, ew := errs[0].(*execError), errs[1].(*execError)
		if errs[1].Error() != errs[2].Error() {
			t.Fatalf("MaxSteps %d: wg %v, wg per-step %v", budget, errs[1], errs[2])
		}
		if blk := k.wg.blocks[ew.pc]; blk == nil || ei.msg != ew.msg || ei.pc < ew.pc || ei.pc >= ew.pc+int(blk.nInstr) {
			t.Fatalf("MaxSteps %d: wg names a block that does not hold the interpreter's pc: interp %v, wg %v", budget, ei, ew)
		}
	}
}

// TestWGUniformLoadRuns pins the merge rule of the columnar log's broadcast
// entries: an access extends its site's latest entry when that is a
// broadcast of the same offset — entries of other sites in between do not
// matter, a column or another offset of its own site ends the run — and
// colFlush expands every run into each item's stream.
func TestWGUniformLoadRuns(t *testing.T) {
	m := &wmach{n: 2, uniform: true, rec: make([][]wgAcc, 2)}
	for i := 0; i < 5; i++ {
		m.recUniform(3, 8)
	}
	m.recUniform(4, 0)
	m.recUniform(-1, 0) // an untracked site logs nothing
	m.recUniform(3, 8)
	m.recUniform(3, 12)
	m.recUniform(3, 8)
	copy(m.colFor(4), []int32{16, 20})
	m.recUniform(4, 0)
	want := []wgCol{{3, 8, 6}, {4, 0, 1}, {3, 12, 1}, {3, 8, 1}, {4, 0, 0}, {4, 0, 1}}
	if fmt.Sprint(m.cols) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", m.cols, want)
	}
	m.colFlush()
	for lane, offs := range [][]int32{{16}, {20}} {
		var want []wgAcc
		for i := 0; i < 6; i++ {
			want = append(want, wgAcc{3, 8})
		}
		want = append(want, wgAcc{4, 0}, wgAcc{3, 12}, wgAcc{3, 8}, wgAcc{4, offs[0]}, wgAcc{4, 0})
		if fmt.Sprint(m.rec[lane]) != fmt.Sprint(want) {
			t.Errorf("item %d stream %v, want %v", lane, m.rec[lane], want)
		}
	}
	if m.uniform || len(m.cols) != 0 {
		t.Error("colFlush left the phase uniform")
	}
}

// TestWGLoopLowering drives the lowered skeleton's adversaries: a skeleton
// definition that nothing in the loop reads but the code after it does (the
// dead-definition pass must keep it and the exit must broadcast it); a copy
// whose source is redefined in the same block before the copy is read (the
// binding must be emitted before the redefinition, not forwarded past it);
// and, on hand-edited bytecode, a compare temporary — folded into its branch
// — that the exit block reads.
func TestWGLoopLowering(t *testing.T) {
	loopFiveWay(t, "skeleton definition read after the loop", loopSig+`
    float acc = in[g];
    int last = 0;
`+pollLoop("ib[0]", "last = k * 3 + 1;", 13)+`
    out[g] = acc + (float)last;
}`, 1024)
	loopFiveWay(t, "copy read after its source is redefined", loopSig+`
    float acc = in[g];
    int q = 2;
    int s = 0;
`+pollLoop("ib[0]", "int prev = q; q = q + 3; s = s + prev * 5;", 13)+`
    out[g] = acc + (float)(s + q);
}`, 1024)

	// out[g] = (float)c where c is the register of the loop's `k < 7`: 0 once
	// the loop has left, 1 if the exit saw what the per-step check before the
	// first trip left in the bank.
	k := MustCompile(loopSig+`
    float acc = in[g];
    for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc;
}`, "t")
	head := k.ReductionBodies()[0]
	jz := k.wg.blocks[k.wg.blocks[head].term.tgt].body
	exit := int(k.Code[jz].A)
	c := k.Code[jz].B
	if ex := k.Code[exit:]; k.Code[jz].Op != opJZ || ex[0].Op != opIMOV || ex[0].A != c || ex[1].Op != opFMOV || ex[2].Op != opSTGF || ex[2].C != c {
		t.Fatalf("loop exit layout drifted\n%s", k.Disasm())
	}
	k2 := recompiled(k, func(k2 *Kernel) {
		ex := k2.Code[exit:]
		ex[0], ex[1] = Instr{Op: opI2F, A: ex[1].A, B: c}, ex[0]
	})
	if sizes := k2.WGLoopSizes(); len(sizes) != 1 || sizes[0][0] != 3 {
		t.Fatalf("lowered sizes %v: want one loop whose first chain is the counter, the materialised compare and the branch\n%s", sizes, k2.Disasm())
	}
	defer SetWGFuse(true)
	for _, fuse := range []bool{true, false} {
		SetWGFuse(fuse)
		if err := runWGParity(t, k2, NewNDRange1D(32, 8), func() []Arg {
			a := loopArgs(1024, nil)()
			for i := range a[0].Buf {
				a[0].Buf[i] = 0xff // not the 0.0 the kernel must store
			}
			return a
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWGLoopUniformLoadTrap: a skeleton load with a constant index — a slot
// of the scalar file, never a register — that is out of range and first
// reached after eight trips must fail with the interpreter's pc and text,
// fused and per-step, as written and GPU-transformed.
func TestWGLoopUniformLoadTrap(t *testing.T) {
	src := loopSig + `
    float acc = in[g];
    for (int k = 0; (k < 13); )
    {
        if (((k >= 8) && (ib[4000] == 99)))
        {
            return;
        }
        for (int u = 0; (u < 4); u = (u + 1))
        {
            if ((!(k < 13)))
            {
                break;
            }
            acc += in[g * rs + k] * in[k];
            k = (k + 1);
        }
    }
    out[g] = acc;
}`
	gpu, _, err := TransformedSources(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		src   string
		extra []Arg
	}{{src, nil}, {gpu, GPUAbortArgs(1, passes.NoCPUWork)}} {
		nd, mk := NewNDRange1D(32, 8), loopArgs(1024, v.extra)
		diffFiveWay(t, "trapping uniform load", v.src, "t", nd, mk)
		k := MustCompile(v.src, "t")
		before := BackendSnapshot()
		errs := launchErrs(k, nd, mk)
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "load ib: index 4000") {
			t.Fatalf("interp: %v, want the out-of-range load", errs[0])
		}
		for i, e := range errs[1:] {
			if e == nil || e.Error() != errs[0].Error() {
				t.Errorf("wg (per-step: %v): %v, interp: %v", i == 1, e, errs[0])
			}
		}
		// A fused dispatch of the body walks the whole control first, so a
		// group that got one met the load there.
		if d := BackendSnapshot(); d.WGFusedInstrsDyn == before.WGFusedInstrsDyn || d.WGFallbackWGs != before.WGFallbackWGs {
			t.Error("the trap was not reached from the loop walk")
		}
	}
}

// TestWGLeaves: fixed reduction bodies for each leaf — one pair (wgDot1), two
// pairs on one accumulator (wgDot2), any other arity (wgChain) — over unit,
// negative, zero and beyond-a-cache-line strides, seeded and not; and an
// index of the second pair that leaves in[] at trip 4 for the lanes from 5
// up and at trip 5 for lane 0, whose error, the first in the interpreter's
// item order, wg must report verbatim.
func TestWGLeaves(t *testing.T) {
	const decl = `
    float acc = in[g];
    float al = 0.75f;
    int one = 1;
    int neg = 0 - 1;
    int zero = 0;
    int far = 17;
    int h = g + 8;
    for (int k = 0; k < 7; k++) { `
	for _, c := range []struct {
		name, body string
		leaves     [3]int
	}{
		{"one pair, unit and negative stride", "acc += in[k * one + g] * in[k * neg + h];", [3]int{1, 0, 0}},
		{"one pair, seeded, zero and far stride", "acc += al * in[k * zero + g] * in[k * far + g];", [3]int{1, 0, 0}},
		{"two pairs, seeded and not", "acc += al * in[k * one + g] * in[k * far + g]; acc += in[k * neg + h] * in[k * zero + h];", [3]int{0, 1, 0}},
		{"two pairs, direct and far", "acc += in[k] * in[k * rt + g]; acc += al * in[k * rs + g] * in[k];", [3]int{0, 1, 0}},
		{"three pairs", "acc += in[k] * in[g]; acc += al * in[k * neg + h] * in[k]; acc += in[k * far + g] * in[h];", [3]int{0, 0, 1}},
		{"a pair and a single", "acc += al * in[k * one + g] * in[k]; acc += in[k * neg + h];", [3]int{0, 0, 1}},
	} {
		src := loopSig + decl + c.body + " }\n    out[g] = acc;\n}"
		if got := MustCompile(src, "t").WGLeaves(); got != c.leaves {
			t.Errorf("%s: leaves %v, want %v", c.name, got, c.leaves)
		}
		loopFiveWay(t, c.name, src, 1024)
	}

	src := loopSig + decl + "acc += al * in[k * one + g] * in[k]; acc += in[k] * in[k * rt + g];" + " }\n    out[g] = acc;\n}"
	k := MustCompile(src, "t")
	nd, mk := NewNDRange1D(32, 8), loopArgs(33*4+5, nil)
	diffFiveWay(t, "second pair out of range", src, "t", nd, mk)
	errs := launchErrs(k, nd, mk)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "load in: index 165 ") {
		t.Fatalf("interp: %v, want lane 0's load at trip 5", errs[0])
	}
	if errs[1] == nil || errs[1].Error() != errs[0].Error() {
		t.Errorf("wg: %v, interp: %v", errs[1], errs[0])
	}
}
