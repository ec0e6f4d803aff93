package vm

import (
	"strings"
	"testing"
)

// Loop fusion on divergent sets: a body with a loop plan runs whole loops
// for any set the dispatcher pops — part of the group, or all of it
// reconverged after a partition — and in any phase, the group's budgets
// fanned out or not. In a partitioned phase the body's and the skeleton's
// loads go to each lane's stream instead of the closed-form booking, the
// precheck, the walk's Stats and budget and the broadcast of what the
// skeleton defined cover the set's lanes only.

// divCase is one loopSig kernel, launched as 32 work-items in groups of 8.
type divCase struct {
	name, src string
	// partial: some whole loop must run for a set other than the whole group
	// of a never-partitioned phase (PartialLoopBatches); single: the precheck
	// must fail at least once; barrier: the kernel has one, so it is held to
	// the interpreter alone (no GPU variant, no AST reference).
	partial, single, barrier bool
}

var divCases = []divCase{
	// corr_kernel4: lane l runs j from l+1 to 8, each j an inner reduction of
	// six trips; lane 7 never enters, and one more lane leaves per round.
	{name: "triangular loop, lanes leaving one at a time", partial: true, src: loopSig + `
    for (int j = l + 1; j < 8; j++) {
        float acc = 0.0f;
        for (int k = 0; k < 6; k++) { acc += in[k * rs + l] * in[k * rs + j]; }
        out[g * 8 + j] = acc;
    }
}`},
	{name: "reduction loop under a lane guard", partial: true, src: loopSig + `
    float acc = in[g];
    if (l < 5) {
        for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    }
    out[g] = acc;
}`},
	// Odd and even lanes start one trip apart: the precheck fails on the
	// six-lane set, which runs one trip per dispatch.
	{name: "partial set whose skeleton registers differ", single: true, src: loopSig + `
    float acc = in[g];
    if (l < 6) {
        for (int k = l % 2; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    }
    out[g] = acc;
}`},
	// The arms differ in length, so the lanes' step budgets do too.
	{name: "reconverged after if/else, then the loop", partial: true, src: loopSig + `
    float acc = in[g + 2];
    if (l % 2 == 0) { acc = in[g] * 2.0f + in[g + 1] * acc - 1.0f; }
    for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc;
}`},
	// The first phase partitions, so the second runs with per-item budgets.
	{name: "later phase of a group that once partitioned", barrier: true, src: loopSig + `
    float acc = in[g];
    if (l < 3) { acc = acc + 1.0f; }
    out[g + 64] = acc;
    barrier(CLK_GLOBAL_MEM_FENCE);
    for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    out[g] = acc + out[g + 64];
}`},
	// last is defined in the skeleton and live after it: the lanes outside
	// the set keep their own. The poll is a uniform load in the skeleton.
	{name: "skeleton definition kept out of lanes outside the set", partial: true, src: loopSig + `
    float acc = in[g];
    int last = l;
    if (l < 5) {
` + pollLoop("ib[0]", "last = k * 3 + 1;", 13) + `
    }
    out[g] = acc + (float)last;
}`},
}

// TestWGLoopDivergentSets holds divergent-set loop fusion to the AST
// reference and the interpreter (bytes and full Stats, with and without an
// undo log), as written and GPU-transformed; sweeps the step budget over
// every block of a partial-set walk; and traps in one lane of a partial set.
func TestWGLoopDivergentSets(t *testing.T) {
	nd := NewNDRange1D(32, 8)
	// variants returns src as written and GPU-transformed (group 3 aborts at
	// entry), or as written alone for a kernel with a barrier.
	type variant struct {
		name, src string
		extra     []Arg
	}
	variants := func(name, src string, barrier bool) []variant {
		if barrier {
			return []variant{{name, src, nil}}
		}
		gpu, _, err := TransformedSources(src)
		if err != nil {
			t.Fatalf("%s: TransformGPU: %v", name, err)
		}
		return []variant{{name, src, nil}, {name + " (gpu)", gpu, GPUAbortArgs(1, 3)}}
	}
	for _, c := range divCases {
		for _, v := range variants(c.name, c.src, c.barrier) {
			if d := MustCompile(v.src, "t").Disasm(); !strings.Contains(d, "wg.loop-fuse (") {
				t.Fatalf("%s: the loop did not fuse\n%s", v.name, d)
			}
			before, partial := BackendSnapshot(), PartialLoopBatches()
			if c.barrier {
				if err := runWGParity(t, MustCompile(v.src, "t"), nd, loopArgs(1024, v.extra)); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
			} else {
				diffFiveWay(t, v.name, v.src, "t", nd, loopArgs(1024, v.extra))
			}
			after := BackendSnapshot()
			if after.WGLoopBatchesDyn == before.WGLoopBatchesDyn {
				t.Errorf("%s: no dispatch ran a whole loop", v.name)
			}
			if c.partial && PartialLoopBatches() == partial {
				t.Errorf("%s: no whole loop ran for a partial or reconverged set", v.name)
			}
			if failed := after.WGLoopNonuniformDyn != before.WGLoopNonuniformDyn; failed != c.single {
				t.Errorf("%s: the precheck failed %d times", v.name, after.WGLoopNonuniformDyn-before.WGLoopNonuniformDyn)
			}
		}
	}

	// The budget swept over the whole run of group 0, so the overrun lands on
	// every block of the partial-set walks: a set of lanes with equal budgets
	// and, after the arms of unequal length, one with unequal budgets, whose
	// fullest lane overruns first.
	defer SetWGFuse(true)
	engines := []Backend{BackendInterp, BackendWG, BackendWG} // wg per-step last
	for _, c := range []divCase{divCases[1], divCases[3]} {
		for _, v := range variants(c.name, c.src, false) {
			k := MustCompile(v.src, "t")
			for budget := int64(1); ; budget++ {
				var errs [3]error
				var sts [3]Stats
				var outs [3]string
				for i := range errs {
					SetWGFuse(i < 2)
					a := loopArgs(1024, v.extra)()
					sts[i], errs[i] = k.ExecWorkGroup(nd, [3]int{}, a, ExecOpts{Backend: engines[i], MaxSteps: budget})
					outs[i] = string(a[0].Buf)
				}
				if (errs[0] == nil) != (errs[1] == nil) || (errs[0] == nil) != (errs[2] == nil) {
					t.Fatalf("%s, MaxSteps %d: interp %v, wg %v, wg per-step %v", v.name, budget, errs[0], errs[1], errs[2])
				}
				if errs[0] == nil {
					if sts[0] != sts[1] || outs[0] != outs[1] {
						t.Fatalf("%s, MaxSteps %d: results diverge\ninterp %+v\nwg     %+v", v.name, budget, sts[0], sts[1])
					}
					break
				}
				ei, ew := errs[0].(*execError), errs[1].(*execError)
				if errs[1].Error() != errs[2].Error() {
					t.Fatalf("%s, MaxSteps %d: wg %v, wg per-step %v", v.name, budget, errs[1], errs[2])
				}
				if blk := k.wg.blocks[ew.pc]; blk == nil || ei.msg != ew.msg || ei.pc < ew.pc || ei.pc >= ew.pc+int(blk.nInstr) {
					t.Fatalf("%s, MaxSteps %d: wg names a block that does not hold the interpreter's pc: interp %v, wg %v", v.name, budget, ei, ew)
				}
			}
		}
	}

	// Lane 4 of group 0's five-lane set reads in[4*9 + k], which leaves a
	// 40-word buffer at k = 4: every engine reports that load with the same
	// text and pc, and rolling back the store before it restores the bytes.
	trap := loopSig + `
    float acc = in[g];
    out[g + 64] = acc;
    if (l < 5) {
        for (int k = 0; k < 7; k++) { acc += in[g * rs + k] * in[k]; }
    }
    out[g] = acc;
}`
	for _, v := range variants("trap", trap, false) {
		k := MustCompile(v.src, "t")
		var msgs [3]string
		for i := range msgs {
			SetWGFuse(i < 2)
			a := loopArgs(40, v.extra)()
			before := string(a[0].Buf)
			var undo UndoLog
			_, err := k.ExecWorkGroup(nd, [3]int{}, a, ExecOpts{Backend: engines[i], Undo: &undo})
			if err == nil || !strings.Contains(err.Error(), "load in: index 40 out of range") {
				t.Fatalf("%s: want lane 4's load error, got %v", v.name, err)
			}
			msgs[i] = err.Error()
			undo.Rollback()
			if string(a[0].Buf) != before {
				t.Errorf("%s: rollback did not restore out", v.name)
			}
		}
		if msgs[0] != msgs[1] || msgs[0] != msgs[2] {
			t.Errorf("%s: interp %q, wg %q, wg per-step %q", v.name, msgs[0], msgs[1], msgs[2])
		}
	}
}
