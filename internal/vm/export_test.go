package vm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"fluidicl/internal/passes"
	"fluidicl/internal/vmref"
)

// Test-only exports shared by the in-package and the external (vm_test)
// test files.

// TransformedSources runs src through FluidiCL's source pipeline
// (passes.Transform) with the runtime's default options: the GPU variant
// gets the abort checks, unrolled inside innermost loops, and two extra
// parameters (fcl_status, fcl_kid); the CPU variant the subkernel range
// guard (unless the summary drops it) and fcl_lo, fcl_hi. These are the
// kernels the cooperative runtimes execute — the twin GPU runs the first,
// every other device the second.
func TransformedSources(src string) (gpu, cpu string, err error) {
	p, err := passes.Transform(src, passes.GPUOptions{AbortInLoops: true, Unroll: true})
	if err != nil {
		return "", "", err
	}
	return p.GPUSrc, p.CPUSrc, nil
}

// StreamSrc is the guarded one-word-per-work-item body bench/'s stream-chunks
// workload runs (scale, axpy): no loop and no jam shape, so the wg engine
// executes it on banked steps alone.
const StreamSrc = `
__kernel void stream(__global float* x, __global float* y, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a * x[i] + y[i];
    }
}
`

// GPUAbortArgs returns the two arguments TransformGPU appends: a status
// buffer naming kernel kid with CPU completion from flattened group
// doneFrom upward (passes.NoCPUWork: the abort never fires), and kid.
func GPUAbortArgs(kid, doneFrom int32) []Arg {
	status := make([]byte, 4*passes.StatusWords)
	binary.LittleEndian.PutUint32(status[4*passes.StatusKernelID:], uint32(kid))
	binary.LittleEndian.PutUint32(status[4*passes.StatusDoneFrom:], uint32(doneFrom))
	return []Arg{BufArg(status), IntArg(int64(kid))}
}

// partialBatches tallies the whole-loop dispatches (wgBatchHook) of a set
// other than the whole group of a phase that never partitioned: a part of
// the group, or all of it reconverged after a partition.
var partialBatches atomic.Int64

func init() {
	wgBatchHook = func(m *wmach) {
		if !m.full {
			partialBatches.Add(1)
		}
	}
}

// PartialLoopBatches returns how many whole-loop dispatches this process ran
// for a set other than the whole group of a phase that never partitioned.
func PartialLoopBatches() int64 { return partialBatches.Load() }

// leafRuns tallies wgLeafHook: per leaf, (a) to (d) and then wgPerLane, the
// pair accumulators of whole lane blocks it ran.
var leafRuns [wgPerLane + 1]atomic.Int64

func init() { wgLeafHook = func(leaf int) { leafRuns[leaf].Add(1) } }

// LeafRuns returns how many pair accumulators of whole lane blocks this
// process ran on each leaf, (a) to (d), and per lane (the last entry).
func LeafRuns() (n [wgPerLane + 1]int64) {
	for i := range n {
		n[i] = leafRuns[i].Load()
	}
	return n
}

// lanesBooked tallies wgLanesHook: the sites booked item by item without,
// and after, whole-group entries.
var lanesBooked [2]atomic.Int64

func init() { wgLanesHook = func(prefix bool) { lanesBooked[b2i(prefix)].Add(1) } }

// LanesBooked returns how many sites this process booked item by item
// without (plain) and after (prefixed) whole-group entries.
func LanesBooked() (plain, prefixed int64) { return lanesBooked[0].Load(), lanesBooked[1].Load() }

// RefWorkGroup runs one work-group of the launch on the AST reference, whose
// launch shape and argument types are its own (vmref imports nothing of vm).
func RefWorkGroup(ref *vmref.RefExec, nd NDRange, group [3]int, args []Arg) error {
	ra := make([]vmref.Arg, len(args))
	for i, a := range args {
		ra[i] = vmref.Arg{I: a.I, F: a.F, Buf: a.Buf}
	}
	return ref.ExecWorkGroup(vmref.Range{Dims: nd.Dims, LocalSize: nd.LocalSize, NumGroups: nd.NumGroups}, group, ra)
}

// StoreParams returns the parameter slot every global store in k's bytecode
// writes through, in program order.
func (k *Kernel) StoreParams() []int {
	var out []int
	for _, in := range k.Code {
		if in.Op == opSTGI || in.Op == opSTGF {
			out = append(out, int(in.B))
		}
	}
	return out
}

// WGCertRuns returns how many wg certificates this process has computed
// (decision-cache misses).
func WGCertRuns() int64 { return backendCtr.wgCertRuns.Load() }

// WGFuseSpans returns the fusion pass's verdict per non-empty block body:
// the fused spans, and the unfused ones named by their reject reason.
func (k *Kernel) WGFuseSpans() (fused, nofuse []FusedSpan) {
	return k.wg.fused, k.wg.nofuse
}

// WGLoopVerdicts returns the loop verdict of every fused reduction body:
// Start is the body's pc, Name the disassembly annotation ("wg.loop-fuse
// (...)" or "wg.loop-nofuse (reason)").
func (k *Kernel) WGLoopVerdicts() []FusedSpan {
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
// length of its per-step list, the number of non-nop instructions in its body
// and how many of those run no step (wgUniform's uDrop); and one line for
// each dropped instruction that is neither a move of a register to itself
// nor an ldi, ldf, imov or fmov whose destination is dead at that point by a
// liveness walk of the block's kept, forwarded instructions (wgForward) from
// its live-out registers and its branch's condition.
func (k *Kernel) WGBlockSteps() (out [][4]int, bad []string) {
	var cls []uint8
	if k.wg.iOut != nil {
		cls = k.wgUniform(k.wg)
	}
	for _, blk := range k.wgBlocks() {
		instrs, dropped := 0, 0
		for _, in := range k.Code[blk.start:blk.body] {
			if in.Op != opNop {
				instrs++
			}
		}
		var liveI, liveF uint64
		if cls != nil {
			liveI, liveF = k.wg.iOut[blk.start], k.wg.fOut[blk.start]
			if blk.term.kind == wtCond {
				liveI |= wgBit(blk.term.condReg)
			}
		}
		for i := len(blk.code) - 1; i >= 0; i-- {
			x := blk.code[i]
			iu, fu, id, fd := wgUseDef(x.Instr)
			if cls == nil || cls[x.pc] != uDrop {
				liveI, liveF = liveI&^id|iu, liveF&^fd|fu
				continue
			}
			dropped++
			if self := x.A == x.B && (x.Op == opIMOV || x.Op == opFMOV); !self && (x.Op < opLDI || x.Op > opFMOV || liveI&id != 0 || liveF&fd != 0) {
				bad = append(bad, fmt.Sprintf("block @%d drops @%d %s", blk.start, x.pc, disasmInstr(x.Instr)))
			}
		}
		out = append(out, [4]int{blk.start, len(blk.steps), instrs, dropped})
	}
	return out, bad
}

// WGLoopSizes returns, for every loop-fused reduction body in pc order, how
// many instructions the walk runs per execution of each chain, its branch
// counted as one; the chain that starts at the body comes first.
func (k *Kernel) WGLoopSizes() (out [][]int) {
	for _, blk := range k.wgBlocks() {
		if blk.red == nil || blk.red.loop == nil {
			continue
		}
		var sizes []int
		for _, b := range blk.red.loop.prog {
			sizes = append(sizes, len(b.code)+int(b2i(b.cond < 64)))
		}
		out = append(out, sizes)
	}
	return out
}

// WGLeaves counts the accumulators of k's fused reduction bodies by shape:
// one pair, two pairs (the shapes a lane block may run on a leaf,
// wgReduce.leaf), any other (per lane on wgChain only).
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

// WGUniformPCs returns the pcs of k's group-uniform steps (wguniform.go) and,
// of those, the ones whose result a full-group dispatch copies to every lane.
func (k *Kernel) WGUniformPCs() (uniform, bcast []int) {
	if k.wg.iOut == nil {
		return nil, nil
	}
	for pc, c := range k.wgUniform(k.wg) {
		if c == uOnce || c == uBcast {
			uniform = append(uniform, pc)
		}
		if c == uBcast {
			bcast = append(bcast, pc)
		}
	}
	return uniform, bcast
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

var skippedTrips atomic.Int64

func init() { wgSkipHook = func(n int64) { skippedTrips.Add(n) } }

// SkippedTrips counts the trips the walk's period skip has jumped over.
func SkippedTrips() int64 { return skippedTrips.Load() }

// undoWord is one word an undo log restores: its buffer-table index, byte
// offset and old bytes.
type undoWord struct {
	buf, off int32
	old      [4]byte
}

// undoWords expands u's records into its words, oldest first, so logs of
// one word per store and logs of spans compare word for word.
func undoWords(u *UndoLog) []undoWord {
	var ws []undoWord
	at := 0
	for _, r := range u.recs {
		if r.buf >= 0 {
			ws = append(ws, undoWord{r.buf, r.off, [4]byte(binary.LittleEndian.AppendUint32(nil, r.w))})
			continue
		}
		for w := int32(0); w < int32(r.w); w++ {
			ws = append(ws, undoWord{^r.buf, r.off + 4*w, [4]byte(u.old[at:])})
			at += 4
		}
	}
	return ws
}
