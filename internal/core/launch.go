package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// This file is the protocol-agnostic half of a kernel launch: the prologue
// every EnqueueNDRangeKernel runs before handing the launch to its protocol,
// and the pieces of §5.1 chunk sizing, certified ship windows and
// dynamic-vs-static cross-checking that both protocols drive.

// elision is what the static kernel summary lets the runtime skip for one
// buffer argument of one launch (indexed by original parameter position).
type elision struct {
	// slotExact: the argument is a write-only __global buffer whose every
	// store is provably at the work-item's own flattened global id, in a 1-D
	// launch. Chunk ships narrow to the chunk's slot range, the twin
	// protocol's cpuCopy scratch prime is skipped, and its merge window
	// narrows to [loFinal*localSize, totalItems).
	slotExact bool
	// writes is the launch-level strided write footprint of a written
	// __global buffer whose stores are fully summarized but not slot-exact
	// (nil otherwise). Ships narrow to the hull of the chunk's group spans
	// and the twin merge window narrows to the hull of every group at or
	// above loFinal. Unlike the slot-exact case the cpuCopy prime is kept:
	// the hulls over-approximate, so the merge may read words no ship
	// delivered, and those must compare equal to orig.
	writes *analysis.ArgWrites
}

// narrowed reports whether ships of the argument are narrowed on a static
// promise (and must therefore be window-checked).
func (e elision) narrowed() bool { return e.slotExact || e.writes != nil }

// stridedPlanBudget bounds the footprint evaluations one launch may spend
// on transfer planning.
const stridedPlanBudget = 1 << 20

// launchShape converts a full launch geometry to the analyzer's form.
func launchShape(nd vm.NDRange) analysis.LaunchShape {
	sh := analysis.LaunchShape{Dims: nd.Dims}
	for d := 0; d < 3; d++ {
		sh.Local[d] = int64(nd.LocalSize[d])
		sh.NumGroups[d] = int64(nd.NumGroups[d])
		sh.Count[d] = int64(nd.NumGroups[d])
	}
	return sh
}

// intParams extracts scalar int argument values by parameter position (the
// analyzer's uniform-expression parameters).
func intParams(args []Arg) []int64 {
	params := make([]int64, len(args))
	for i := range args {
		if args[i].Kind == ArgInt {
			params[i] = args[i].I
		}
	}
	return params
}

// planElisions derives the per-argument elision plan for one launch from
// the kernel's static summary. Every elision taken is re-validated against
// the VM's dynamic access stats (checkAccessMasks, checkWindow); a
// violation is a hard runtime error. Pointer parameters must already be
// bound to buffers.
func planElisions(info *clc.KernelInfo, sum *analysis.KernelSummary, nd vm.NDRange, args []Arg) []elision {
	el := make([]elision, len(args))
	if sum == nil {
		return el
	}
	sh := launchShape(nd)
	params := intParams(args)
	for i, param := range info.Kernel.Params {
		if !param.Ty.Ptr {
			continue
		}
		sa := sum.Arg(param.Name)
		if sa == nil || sa.Space != clc.SpaceGlobal || !sa.Written {
			continue
		}
		if nd.Dims == 1 && sa.WriteOnly() && sa.SlotExact {
			el[i].slotExact = true
			continue
		}
		// Strided fallback: evaluate the launch-level write footprint from
		// the interval-set summary. Works for any launch rank and for
		// read-write buffers: narrowing ships and merges never changes what
		// the kernel reads (see elision.writes).
		if !sa.WritesComplete() {
			continue
		}
		footprintEvals.Add(1)
		aw, ok := sum.EvalArgWrites(sum.ArgIndex(param.Name), sh, params,
			int64(args[i].Buf.Size/4), stridedPlanBudget)
		if !ok {
			continue
		}
		el[i].writes = &aw
	}
	return el
}

// footprintEvals counts planElisions' launch-level footprint evaluations, so
// tests can tell a cached plan from a re-derived one.
var footprintEvals atomic.Int64

// planCache holds one kernel's launch plans. planElisions is a pure function
// of the kernel's summary — fixed per transformEntry, where the cache lives,
// so it outlasts any one Runtime — and of the launch's key: full-grid
// geometry, scalar int arguments and buffer argument sizes. Float arguments
// and buffer identity are not in the key because planElisions reads neither.
// A cached plan is shared by every launch (and goroutine) that hits it and is
// never written after it is stored: the protocols copy elisions out of it
// and query ArgWrites only through HullRange and Monotone.
type planCache struct {
	entries atomic.Pointer[[]planEntry]
}

// planEntry is one cached plan.
type planEntry struct {
	key []int64
	el  []elision
}

// planCacheCap bounds a kernel's plan cache. A kernel sees one key per
// distinct launch of it in an app (the widest paper app has three), times the
// problem sizes a sweep runs it at.
const planCacheCap = 32

// plan returns the elision plan for one launch of k, deriving it at most
// once per key (copy on write, newest first, like vm.Kernel's certificate
// cache). Pointer parameters must already be bound to buffers.
func (k *Kernel) plan(nd vm.NDRange, args []Arg) []elision {
	var buf [24]int64
	key := append(buf[:0], int64(nd.Dims),
		int64(nd.LocalSize[0]), int64(nd.LocalSize[1]), int64(nd.LocalSize[2]),
		int64(nd.NumGroups[0]), int64(nd.NumGroups[1]), int64(nd.NumGroups[2]))
	for _, a := range args {
		switch a.Kind {
		case ArgBuf:
			key = append(key, int64(a.Buf.Size))
		case ArgInt:
			key = append(key, a.I)
		default:
			key = append(key, 0)
		}
	}
	var cur []planEntry
	if p := k.plans.entries.Load(); p != nil {
		cur = *p
	}
	for i := range cur {
		if slices.Equal(cur[i].key, key) {
			return cur[i].el
		}
	}
	e := planEntry{key: slices.Clone(key), el: planElisions(k.Info, k.Sum, nd, args)}
	// Two goroutines racing to insert lose one entry, which costs a
	// re-derivation; a full cache drops its oldest entry.
	next := append(make([]planEntry, 0, planCacheCap), e)
	next = append(next, cur[:min(len(cur), planCacheCap-1)]...)
	k.plans.entries.Store(&next)
	return e.el
}

// launch is one validated kernel enqueue, as the prologue hands it to the
// protocol.
type launch struct {
	k    *Kernel
	kid  int
	nd   vm.NDRange
	args []Arg
	el   []elision // per original parameter; shared with the plan cache, read-only
	rep  *KernelReport
}

// paramName names original parameter i in diagnostics.
func (l *launch) paramName(i int) string { return l.k.Info.Kernel.Params[i].Name }

// EnqueueNDRangeKernel executes the kernel cooperatively on the runtime's
// devices and blocks until the kernel is complete (§7: kernel calls are
// blocking). What "cooperatively" means — who computes which work-groups,
// where results merge, what is still in flight when the call returns — is
// the protocol's business.
func (r *Runtime) EnqueueNDRangeKernel(p *sim.Proc, k *Kernel, nd vm.NDRange, args []Arg) error {
	r.mustBeLive()
	if r.deferredErr != nil {
		return r.deferredErr
	}
	if len(args) != len(k.Info.Kernel.Params) {
		return fmt.Errorf("core: kernel %q expects %d args, got %d", k.Name, len(k.Info.Kernel.Params), len(args))
	}
	for i, param := range k.Info.Kernel.Params {
		if param.Ty.Ptr && (args[i].Kind != ArgBuf || args[i].Buf == nil || args[i].Buf.rt != r) {
			return fmt.Errorf("core: kernel %q arg %d (%s) must be a buffer of this runtime", k.Name, i, param.Name)
		}
	}
	r.kernelSeq++
	l := &launch{k: k, kid: r.kernelSeq, nd: nd, args: args}
	l.rep = &KernelReport{KID: l.kid, Name: k.Name, TotalWGs: nd.TotalGroups(), Start: p.Now()}
	r.Reports = append(r.Reports, l.rep)

	// Classify buffer arguments using the compile-time access analysis and
	// derive the analyzer-driven elision plan for this launch.
	l.el = k.plan(nd, args)
	return r.proto.run(p, l)
}

// ---- §5.1 chunk sizing ----

// chunkSizer is one device's adaptive chunk allocation (§5.1): start at
// InitialChunkPct of the work-groups, grow by StepPct while the time per
// work-group keeps improving.
type chunkSizer struct {
	chunk, step, cus int
	prevAvg          float64
}

func (r *Runtime) newChunkSizer(total, cus int) chunkSizer {
	chunk := int(math.Round(float64(total) * r.opts.InitialChunkPct / 100))
	if chunk < 1 {
		chunk = 1
	}
	// Never launch fewer work-groups than the device has compute units
	// (work-group splitting, when allowed, handles the sub-CU tail).
	if chunk < cus && total >= cus {
		chunk = cus
	}
	step := int(math.Round(float64(total) * r.opts.StepPct / 100))
	if step < 1 && r.opts.StepPct > 0 {
		step = 1
	}
	return chunkSizer{chunk: chunk, step: step, cus: cus, prevAvg: math.MaxFloat64}
}

// next returns the next launch size in whole waves: a chunk that is not a
// multiple of the device's compute units leaves threads idle in its final
// wave (§5.1's resource-utilization concern).
func (c *chunkSizer) next() int {
	if c.chunk > c.cus {
		return (c.chunk / c.cus) * c.cus
	}
	return c.chunk
}

// observe feeds back one chunk's measured time per work-group.
func (c *chunkSizer) observe(avg float64) {
	if avg < c.prevAvg {
		c.chunk += c.step
	}
	c.prevAvg = avg
}

// ---- certified windows ----

// shipWindow returns the [off, end) byte window of a size-byte out buffer
// that the work-groups [lo, hi] can have written, narrowed by the launch's
// elision certificate: slot-exact buffers yield exactly the groups' slot
// range (every work-item writes its own word), strided buffers the hull of
// the groups' may-write spans, everything else the whole buffer. Unwritten
// bytes inside a hull carry pre-kernel data, which a diff-merge compares
// equal to its snapshot.
func shipWindow(el elision, size int, nd vm.NDRange, lo, hi int) (off, end int) {
	off, end = 0, size
	switch {
	case el.slotExact:
		ls := nd.WorkItemsPerGroup()
		off = 4 * ls * lo
		end = 4 * ls * (hi + 1)
	case el.writes != nil:
		h := el.writes.HullRange(int64(lo), int64(hi)+1)
		if h.Empty() {
			return 0, 0
		}
		off = 4 * int(h.Lo)
		end = 4 * int(h.Hi)
	default:
		return
	}
	if end > size {
		end = size
	}
	if off > end {
		off = end
	}
	return
}

// mergeWindow returns the [lo, hi) word window of a size-byte out buffer
// that can differ from its pre-kernel contents once the flat work-groups
// [loFinal, total) have shipped: exactly the words those ships covered.
func mergeWindow(el elision, size int, nd vm.NDRange, loFinal int) (lo, hi int) {
	off, end := shipWindow(el, size, nd, loFinal, nd.TotalGroups()-1)
	return off / 4, end / 4
}

// ---- dynamic-vs-static cross-checks ----
//
// Every elision rests on the static kernel summary; each check below
// compares the VM's dynamic access stats for completed work against what
// the summary promised. Any violation is a hard error: it means results may
// be silently wrong, so it must fail tests rather than pass unnoticed.

// checkAccessMasks rejects a dynamic read or write of a parameter the
// analyzer called untouched.
func (l *launch) checkAccessMasks(dyn *vm.Stats) error {
	k := l.k
	if k.Sum == nil {
		return nil
	}
	origMask := ^uint64(0)
	if n := len(k.Info.Kernel.Params); n < 64 {
		origMask = (1 << uint(n)) - 1
	}
	if bad := dyn.ParamReadMask & origMask &^ k.chkRead; bad != 0 {
		return fmt.Errorf("core: kernel %q: dynamic read of parameter %d outside the static access summary",
			k.Name, bits.TrailingZeros64(bad))
	}
	if bad := dyn.ParamWriteMask & origMask &^ k.chkWrite; bad != 0 {
		return fmt.Errorf("core: kernel %q: dynamic write of parameter %d outside the static access summary",
			k.Name, bits.TrailingZeros64(bad))
	}
	return nil
}

// tracked reports whether vm.Stats keeps a write range for parameter i.
func tracked(i int) bool { return i < len(vm.Stats{}.WrLo) }

// checkWindow rejects dynamic writes of out parameter i by the work-groups
// [lo, hi] (whose aggregate stats are given) that land outside [off, end),
// the certified window (shipWindow) their ships were narrowed to.
func (l *launch) checkWindow(i int, stats *vm.Stats, lo, hi, off, end int) error {
	if !tracked(i) || stats.ParamWriteMask&(1<<uint(i)) == 0 {
		return nil
	}
	if int(stats.WrLo[i]) < off || int(stats.WrHi[i]) > end {
		return fmt.Errorf("core: kernel %q: work-groups [%d,%d] wrote buffer %q outside its certified window (bytes [%d,%d) vs [%d,%d))",
			l.k.Name, lo, hi, l.paramName(i), stats.WrLo[i], stats.WrHi[i], off, end)
	}
	return nil
}
