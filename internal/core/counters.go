package core

import (
	"sync"

	"fluidicl/internal/vm"
)

// Counters tallies the transfer and merge work a runtime elided because the
// static kernel analyzer (package analysis) proved it unnecessary, plus —
// in process-wide snapshots — the VM backend activity behind it. Every
// consumer (sched.Result, fluidibench -jsonout / -dist / hash -jsonout)
// reads this one struct; Each names the fields for emitters.
type Counters struct {
	// UploadsSkipped counts refreshes of stale device copies of out buffers
	// that were skipped because the kernel provably overwrites the whole
	// buffer.
	UploadsSkipped int64
	// PrimeCopiesElided counts cpuCopy scratch primes skipped because the
	// narrowed merge window is fully covered by shipped CPU data (twin).
	PrimeCopiesElided int64
	// ShipBytesSkipped counts bytes NOT shipped because chunk ships were
	// narrowed to the certified window the chunk wrote.
	ShipBytesSkipped int64
	// MergeWordsElided counts 4-byte words excluded from merging by the
	// analyzer-narrowed merge window.
	MergeWordsElided int64
	// SplitsUnvetoed counts launches whose work-group splitting was allowed
	// only because the strided disjointness certificate overturned a
	// conservative race veto.
	SplitsUnvetoed int64
	// RefreshBytesSkipped counts bytes the N-way delta-refresh planner did
	// NOT rebroadcast after kernels, relative to a full per-device refresh:
	// per out buffer and device, the buffer size minus that device's dirty
	// delta (owner-skip plus unchanged words), plus pending deltas dropped
	// outright under a full-overwrite certificate.
	RefreshBytesSkipped int64
	// RefreshDeltas counts the delta scatter-writes ("refresh" transfers)
	// the planner enqueued to bring a stale device copy current.
	RefreshDeltas int64

	// VM backend activity (process-global; only CounterSnapshot fills it).
	vm.BackendCounters
}

// counterRef is one counter: its -jsonout key and its storage.
type counterRef struct {
	key string
	v   *int64
}

// refs lists every counter of c in emission order. It is the single field
// list behind Each, Sub and AccumulateGlobal.
func (c *Counters) refs() [40]counterRef {
	return [...]counterRef{
		{"uploads_skipped", &c.UploadsSkipped},
		{"prime_copies_elided", &c.PrimeCopiesElided},
		{"ship_bytes_skipped", &c.ShipBytesSkipped},
		{"merge_words_elided", &c.MergeWordsElided},
		{"splits_unvetoed", &c.SplitsUnvetoed},
		{"refresh_bytes_skipped", &c.RefreshBytesSkipped},
		{"refresh_deltas", &c.RefreshDeltas},
		{"interp_wgs", &c.InterpWGs},
		{"total_instrs", &c.TotalInstrs},
		{"wg_loop_wgs", &c.WGLoopWGs},
		{"wg_fallback_wgs", &c.WGFallbackWGs},
		{"wg_kernels", &c.WGKernels},
		{"wg_regions", &c.WGRegions},
		{"wg_fused_blocks", &c.WGFusedBlocks},
		{"wg_fused_steps", &c.WGFusedSteps},
		{"wg_fuse_fallback_steps", &c.WGFuseFallbackSteps},
		{"wg_fused_instrs_dyn", &c.WGFusedInstrsDyn},
		{"wg_step_instrs_dyn", &c.WGStepInstrsDyn},
		{"wg_strided_wgs", &c.WGStridedWGs},
		{"wg_cert_reject_shape", &c.WGRejects[vm.WGRejShape]},
		{"wg_cert_reject_alias", &c.WGRejects[vm.WGRejAlias]},
		{"wg_cert_reject_no_summary", &c.WGRejects[vm.WGRejNoSummary]},
		{"wg_cert_reject_local_store", &c.WGRejects[vm.WGRejLocalStore]},
		{"wg_cert_reject_unknown_store", &c.WGRejects[vm.WGRejUnknownStore]},
		{"wg_cert_reject_unknown_read", &c.WGRejects[vm.WGRejUnknownRead]},
		{"wg_cert_reject_overlap", &c.WGRejects[vm.WGRejOverlap]},
		{"wg_cert_reject_budget", &c.WGRejects[vm.WGRejBudget]},
		{"wg_fuse_reject_shape", &c.WGFuseRejects[vm.WGFuseRejShape]},
		{"wg_fuse_reject_wiring", &c.WGFuseRejects[vm.WGFuseRejWiring]},
		{"wg_fuse_reject_live_scratch", &c.WGFuseRejects[vm.WGFuseRejLiveScratch]},
		{"wg_fuse_reject_cap", &c.WGFuseRejects[vm.WGFuseRejCap]},
		{"wg_fuse_reject_wide_regs", &c.WGFuseRejects[vm.WGFuseRejWideRegs]},
		{"wg_fuse_reject_cond_terminator", &c.WGFuseRejects[vm.WGFuseRejCondTerm]},
		{"wg_loop_fused", &c.WGLoopVerdicts[vm.WGLoopRejNone]},
		{"wg_loop_reject_no_cycle", &c.WGLoopVerdicts[vm.WGLoopRejNoCycle]},
		{"wg_loop_reject_index_not_linear", &c.WGLoopVerdicts[vm.WGLoopRejIndexNotLinear]},
		{"wg_loop_reject_counter_redefined", &c.WGLoopVerdicts[vm.WGLoopRejCounterRedefined]},
		{"wg_loop_batches_dyn", &c.WGLoopBatchesDyn},
		{"wg_loop_trips_dyn", &c.WGLoopTripsDyn},
		{"wg_loop_nonuniform_dyn", &c.WGLoopNonuniformDyn},
	}
}

// Each calls f with every counter's -jsonout key and value.
func (c Counters) Each(f func(name string, v int64)) {
	for _, r := range c.refs() {
		f(r.key, *r.v)
	}
}

// plus returns c + sign*o.
func (c Counters) plus(o Counters, sign int64) Counters {
	cr, or := c.refs(), o.refs()
	for i := range cr {
		*cr[i].v += sign * *or[i].v
	}
	return c
}

// Sub returns c - o, for before/after snapshots around one experiment.
func (c Counters) Sub(o Counters) Counters { return c.plus(o, -1) }

// global accumulates the counters of completed runs across the process, so
// harness tools can snapshot deltas around an experiment without plumbing
// runtime handles through concurrently running table cells.
var global struct {
	sync.Mutex
	c Counters
}

// AccumulateGlobal folds one finished run's counters into the process-wide
// totals (the host driver in package sched calls it once per run).
func AccumulateGlobal(c Counters) {
	global.Lock()
	global.c = global.c.plus(c, 1)
	global.Unlock()
}

// CounterSnapshot returns the process-wide elision counters plus the VM
// backend activity counters.
func CounterSnapshot() Counters {
	global.Lock()
	c := global.c
	global.Unlock()
	c.BackendCounters = vm.BackendSnapshot()
	return c
}

// Counters returns this runtime's elision counters. They are plain tallies:
// every runtime process runs one at a time inside the cooperative engine.
func (r *Runtime) Counters() Counters { return r.ctr }
