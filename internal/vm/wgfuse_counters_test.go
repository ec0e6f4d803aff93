package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/core"
	"fluidicl/internal/passes"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// TestWGFuseCountersOnHotKernels pins the region-fusion pass to the kernels
// the cooperative runtimes actually run: the six paper apps after
// passes.TransformGPU (what the twin GPU executes for the whole NDRange) and
// after passes.TransformCPUWithSummary (the twin CPU and every N-way
// device). In both variants the innermost-loop body of each
// multiply-accumulate kernel — 8 kernels, 16 bodies — must lie inside a
// fused span and carry the loop verdict fused (wg.loop-fuse: the loop
// closure may run all its trips in one dispatch); corr_std's body (fsub +
// squaring) is known to stay per-step and must say why. The compile's
// backend-counter deltas must attribute exactly the spans and loop verdicts
// the kernel reports. A matcher change that stops fusing
// SYR2K's GPU variant, say, shows up here by name rather than as an
// unexplained benchmark slowdown.
func TestWGFuseCountersOnHotKernels(t *testing.T) {
	mustFuse := map[string]bool{
		"mm2_kernel1": true, "mm2_kernel2": true, "syrk_kernel": true, "syr2k_kernel": true,
		"gesummv": true, "bicgKernel1": true, "bicgKernel2": true, "corr_kernel4": true,
	}
	spanAt := func(spans []vm.FusedSpan, pc int) *vm.FusedSpan {
		for i := range spans {
			if spans[i].Start <= pc && pc < spans[i].Start+spans[i].Len {
				return &spans[i]
			}
		}
		return nil
	}
	fusedBodies := 0
	for _, bm := range polybench.All() {
		gpu, cpu, err := vm.TransformedSources(bm.App.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []struct{ name, src string }{{"gpu", gpu}, {"cpu", cpu}} {
			compiled := map[string]bool{}
			for _, l := range bm.App.Launches {
				if compiled[l.Kernel] {
					continue
				}
				compiled[l.Kernel] = true
				ki, err := clc.FindKernelInfo(variant.src, l.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				before := vm.BackendSnapshot()
				k, err := vm.Compile(ki)
				if err != nil {
					t.Fatal(err)
				}
				after := vm.BackendSnapshot()
				fused, nofuse := k.WGFuseSpans()
				var steps, rejects int64
				for _, s := range fused {
					steps += int64(s.Len)
				}
				for i := range after.WGFuseRejects {
					rejects += after.WGFuseRejects[i] - before.WGFuseRejects[i]
				}
				if got := after.WGFusedBlocks - before.WGFusedBlocks; got != int64(len(fused)) {
					t.Errorf("%s/%s: wg_fused_blocks advanced by %d for %d fused spans", variant.name, l.Kernel, got, len(fused))
				}
				if got := after.WGFusedSteps - before.WGFusedSteps; got != steps {
					t.Errorf("%s/%s: wg_fused_steps advanced by %d for %d fused instructions", variant.name, l.Kernel, got, steps)
				}
				if rejects != int64(len(nofuse)) {
					t.Errorf("%s/%s: wg_fuse_reject_* advanced by %d for %d unfused spans", variant.name, l.Kernel, rejects, len(nofuse))
				}
				loops := k.WGLoopVerdicts()
				if got := after.WGLoopVerdicts[vm.WGLoopRejNone] - before.WGLoopVerdicts[vm.WGLoopRejNone]; got != int64(len(loops)) {
					t.Errorf("%s/%s: wg_loop_fused advanced by %d for %d loop verdicts %v", variant.name, l.Kernel, got, len(loops), loops)
				}

				bodies := k.ReductionBodies()
				switch {
				case mustFuse[l.Kernel]:
					if len(bodies) != 1 {
						t.Errorf("%s/%s: %d reduction loop bodies, want 1", variant.name, l.Kernel, len(bodies))
					}
					for _, pc := range bodies {
						if lv := spanAt(loops, pc); lv == nil || !strings.HasPrefix(lv.Name, "wg.loop-fuse (") {
							t.Errorf("%s/%s: loop around the body @%d is not fused: %+v", variant.name, l.Kernel, pc, lv)
						}
						if spanAt(fused, pc) != nil {
							fusedBodies++
						} else if s := spanAt(nofuse, pc); s != nil {
							t.Errorf("%s/%s: loop body @%d is not fused: %s", variant.name, l.Kernel, pc, s.Name)
						} else {
							t.Errorf("%s/%s: loop body @%d carries no fusion verdict", variant.name, l.Kernel, pc)
						}
					}
				case l.Kernel == "corr_std":
					if len(bodies) != 1 {
						t.Fatalf("%s/corr_std: %d reduction loop bodies, want 1", variant.name, len(bodies))
					}
					if s := spanAt(nofuse, bodies[0]); s == nil || s.Name != "shape" {
						t.Errorf("%s/corr_std: loop body verdict %+v, want an unfused span with reason shape", variant.name, s)
					}
					if !strings.Contains(k.Disasm(), "; wg.nofuse (shape)") {
						t.Errorf("%s/corr_std: disassembly does not annotate the unfused body", variant.name)
					}
				}
			}
		}
	}
	if fusedBodies != 16 {
		t.Errorf("%d multiply-accumulate loop bodies fused, want 16 (8 kernels x 2 variants)", fusedBodies)
	}
}

// TestWGOneStepPerInstruction pins the per-step tier's one form: in every
// kernel the runtimes execute — each Polybench and extra app after
// passes.TransformGPU and after passes.TransformCPUWithSummary, and the merge
// kernel — a block's step list is exactly one banked step per non-nop body
// instruction. Anything that executes several instructions in one loop is a
// jam (wgfuse.go) with a verdict in the disassembly, not a step.
func TestWGOneStepPerInstruction(t *testing.T) {
	check := func(name, src string) {
		prog, err := clc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, fn := range prog.Kernels {
			ki, err := clc.FindKernelInfo(src, fn.Name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			k, err := vm.Compile(ki)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			blocks := k.WGBlockSteps()
			if blocks == nil {
				t.Errorf("%s %s: no wg program", name, fn.Name)
			}
			for _, b := range blocks {
				if b[1] != b[2] {
					t.Errorf("%s %s: block @%d has %d steps for %d instructions", name, fn.Name, b[0], b[1], b[2])
				}
			}
		}
	}
	for _, bm := range append(polybench.All(), polybench.Extras()...) {
		gpu, cpu, err := vm.TransformedSources(bm.App.Source)
		if err != nil {
			t.Fatal(err)
		}
		check(bm.Name+"/gpu", gpu)
		check(bm.Name+"/cpu", cpu)
	}
	check("merge", passes.MergeKernelSource)
}

// TestTwinRunCertifiesOncePerKey: a cooperative run launches one CPU kernel
// once per chunk, each under its own [fcl_lo, fcl_hi], between GPU launches
// and merges of other geometry. Kernels are compiled once per process
// (ocl's build cache), so a second identical run asks only about keys the
// first already decided and must compute no certificate at all.
func TestTwinRunCertifiesOncePerKey(t *testing.T) {
	b, err := polybench.ByNameQuick("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (certs int64, subkernels int) {
		before := vm.WGCertRuns()
		res, err := sched.RunFluidiCL(sched.DefaultMachine(), b.App, core.Options{Backend: vm.BackendWG})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Verify(res.Outputs); err != nil {
			t.Fatal(err)
		}
		for _, rep := range res.Reports {
			subkernels += rep.Subkernels
		}
		return vm.WGCertRuns() - before, subkernels
	}
	first, subs := run()
	again, _ := run()
	if subs < 2 {
		t.Fatalf("%d CPU subkernels: the run did not alternate chunk geometries", subs)
	}
	if again != 0 {
		t.Errorf("second identical run computed %d certificates (first: %d over %d subkernels), want 0", again, first, subs)
	}
}

// TestWGLoopLoweredSizes pins what the loop walk runs for SYRK and SYR2K, so
// that a regression in the skeleton's lowering is a failure here and not a
// profile: per lowered chain, its ops with the branch as one. The GPU
// variant's nine blocks (the unroll counter, the bound, the in-loop abort
// check) are 38 instructions, 53 executed per four trips, and lower to eight
// chains of 15 ops, 23 per four trips: four times the body's chain (its two
// counters, which the old walk replayed too, and the folded unroll test),
// four times the bound's (one folded compare), then 109+56, 60 (the poll:
// load, compare, branch), 70 and 72+74. The CPU variant's one block lowers
// to the counter and the folded bound.
func TestWGLoopLoweredSizes(t *testing.T) {
	for _, name := range []string{"SYRK", "SYR2K"} {
		bm, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gpu, cpu, err := vm.TransformedSources(bm.App.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			variant, src, note string
			sizes              []int
		}{
			{"gpu", gpu, "skeleton 9 blocks, 38->15 ops;", []int{3, 1, 3, 1, 2, 1, 1, 3}},
			{"cpu", cpu, "skeleton 1 blocks, 4->2 ops;", []int{2}},
		} {
			ki, err := clc.FindKernelInfo(v.src, bm.App.Launches[0].Kernel)
			if err != nil {
				t.Fatal(err)
			}
			k, err := vm.Compile(ki)
			if err != nil {
				t.Fatal(err)
			}
			loops, sizes := k.WGLoopVerdicts(), k.WGLoopSizes()
			if len(loops) != 1 || len(sizes) != 1 {
				t.Fatalf("%s/%s: %d loop verdicts, %d lowered loops, want one", name, v.variant, len(loops), len(sizes))
			}
			if !strings.Contains(loops[0].Name, v.note) {
				t.Errorf("%s/%s: %q lacks %q", name, v.variant, loops[0].Name, v.note)
			}
			if fmt.Sprint(sizes[0]) != fmt.Sprint(v.sizes) {
				t.Errorf("%s/%s: lowered chains of %v ops, want %v", name, v.variant, sizes[0], v.sizes)
			}
		}
	}
}
