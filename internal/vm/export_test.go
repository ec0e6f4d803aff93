package vm

import (
	"encoding/binary"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
)

// Test-only exports shared by the in-package and the external (vm_test)
// test files.

// TransformedSources runs src through FluidiCL's source passes with the
// runtime's default options (core.transformProgram): the GPU variant gets
// the abort checks, unrolled inside innermost loops, and two extra
// parameters (fcl_status, fcl_kid); the CPU variant the subkernel range
// guard (unless the summary drops it) and fcl_lo, fcl_hi. These are the
// kernels the cooperative runtimes execute — the twin GPU runs the first,
// every other device the second.
func TransformedSources(src string) (gpu, cpu string, err error) {
	orig, err := clc.Parse(src)
	if err != nil {
		return "", "", err
	}
	sum := analysis.AnalyzeProgram(orig, "")
	g, err := clc.Parse(src)
	if err != nil {
		return "", "", err
	}
	for _, k := range g.Kernels {
		if _, err := passes.TransformGPU(k, passes.GPUOptions{AbortInLoops: true, Unroll: true}); err != nil {
			return "", "", err
		}
	}
	c, err := clc.Parse(src)
	if err != nil {
		return "", "", err
	}
	for _, k := range c.Kernels {
		if err := passes.TransformCPUWithSummary(k, sum.Kernels[k.Name]); err != nil {
			return "", "", err
		}
	}
	return clc.Print(g), clc.Print(c), nil
}

// GPUAbortArgs returns the two arguments TransformGPU appends: a status
// buffer naming kernel kid with CPU completion from flattened group
// doneFrom upward (passes.NoCPUWork: the abort never fires), and kid.
func GPUAbortArgs(kid, doneFrom int32) []Arg {
	status := make([]byte, 4*passes.StatusWords)
	binary.LittleEndian.PutUint32(status[4*passes.StatusKernelID:], uint32(kid))
	binary.LittleEndian.PutUint32(status[4*passes.StatusDoneFrom:], uint32(doneFrom))
	return []Arg{BufArg(status), IntArg(int64(kid))}
}

// WGCertRuns returns how many wg certificates this process has computed
// (decision-cache misses).
func WGCertRuns() int64 { return backendCtr.wgCertRuns.Load() }

// WGFuseSpans returns the fusion pass's verdict per non-empty block body:
// the fused spans, and the unfused ones named by their reject reason.
func (k *Kernel) WGFuseSpans() (fused, nofuse []FusedSpan) {
	if k.wg == nil {
		return nil, nil
	}
	return k.wg.fused, k.wg.nofuse
}

// WGLoopVerdicts returns the loop verdict of every fused reduction body:
// Start is the body's pc, Name the disassembly annotation ("wg.loop-fuse
// (...)" or "wg.loop-nofuse (reason)").
func (k *Kernel) WGLoopVerdicts() []FusedSpan {
	if k.wg == nil {
		return nil
	}
	return k.wg.loops
}

// ReductionBodies returns the start pc of every loop-body block that loads
// and accumulates: a block ending in a backward jump whose body holds both
// an ldgf and an fadd.
func (k *Kernel) ReductionBodies() []int {
	var out []int
	for _, blk := range k.wgBlocks() {
		if blk.term.kind != wtJmp || blk.term.tgt > blk.start {
			continue
		}
		var ld, add bool
		for _, in := range k.Code[blk.start:blk.body] {
			ld = ld || in.Op == opLDGF
			add = add || in.Op == opFADD
		}
		if ld && add {
			out = append(out, blk.start)
		}
	}
	return out
}

// WGBlockSteps returns, per compiled block in pc order, its leader pc, the
// length of its per-step list and the number of non-nop instructions in its
// body.
func (k *Kernel) WGBlockSteps() (out [][3]int) {
	for _, blk := range k.wgBlocks() {
		instrs := 0
		for _, in := range k.Code[blk.start:blk.body] {
			if in.Op != opNop {
				instrs++
			}
		}
		out = append(out, [3]int{blk.start, len(blk.steps), instrs})
	}
	return out
}

// WGLoopSizes returns, for every loop-fused reduction body in pc order, how
// many ops the walk runs per execution of each lowered chain, its branch
// counted as one; the chain that starts at the body comes first.
func (k *Kernel) WGLoopSizes() (out [][]int) {
	for _, blk := range k.wgBlocks() {
		if blk.red == nil || blk.red.loop == nil {
			continue
		}
		var sizes []int
		for _, b := range blk.red.loop.prog {
			sizes = append(sizes, len(b.ops)+int(b2i(b.term.take != 0)))
		}
		out = append(out, sizes)
	}
	return out
}

// WGLeaves counts the accumulators of k's fused reduction bodies by the leaf
// that runs their trips: wgDot1, wgDot2, wgChain.
func (k *Kernel) WGLeaves() (n [3]int) {
	for _, blk := range k.wgBlocks() {
		if p := blk.red; p != nil {
			for a := 0; a < p.nAcc; a++ {
				if p.pair[a] {
					n[p.first[a+1]-p.first[a]-1]++
				} else {
					n[2]++
				}
			}
		}
	}
	return n
}

// wgBlocks lists k's compiled blocks in pc order.
func (k *Kernel) wgBlocks() (out []*wblock) {
	if k.wg != nil {
		for _, blk := range k.wg.blocks {
			if blk != nil {
				out = append(out, blk)
			}
		}
	}
	return out
}
