package vm

import "sync/atomic"

// ---------------------------------------------------------------------------
// Backend knob
// ---------------------------------------------------------------------------

// Backend selects the work-group execution engine. The lockstep engine runs
// every launch; the interpreter is the bytecode referee tests select. Both
// execute the same bytecode with identical semantics — byte-identical
// buffers, identical Stats (and therefore identical virtual time) — and
// differ only in host wall-clock cost.
type Backend int32

// Backends.
const (
	// BackendAuto resolves to the process default (see SetBackend).
	BackendAuto Backend = iota
	// BackendInterp is the switch-dispatch bytecode interpreter: one
	// work-item at a time, one instruction per dispatch. It runs only where
	// selected, as the bytecode-level referee (the only one that counts
	// Stats).
	BackendInterp
	// BackendWG is the whole-work-group engine (the built-in default): the
	// kernel's CFG is split at barriers into barrier-free regions and each
	// basic block runs as a loop over a set of work-items against
	// structure-of-arrays register banks (wg.go / wgexec.go). A launch the
	// per-launch noninterference certificate cannot prove safe runs in
	// one-lane sets in work-item order, the interpreter's order.
	BackendWG
)

// BackendClosure named the threaded-code engine, which was removed
// (DESIGN.md §7); it selects the interpreter.
//
// Deprecated: use BackendInterp. Kept only because bench/layers.go spells it.
const BackendClosure = BackendInterp

// String returns the engine's name, as -jsonout records it.
func (b Backend) String() string {
	switch b {
	case BackendInterp:
		return "interp"
	case BackendWG:
		return "wg"
	default:
		return "auto"
	}
}

// builtinBackend is what BackendAuto resolves to unless SetBackend chose
// another engine: the whole-work-group engine, which runs every launch.
const builtinBackend = BackendWG

// defaultBackend holds the process-wide backend (never BackendAuto).
var defaultBackend atomic.Int32

func init() { SetBackend(BackendAuto) }

// DefaultBackend returns the process-wide backend that BackendAuto resolves
// to: builtinBackend unless SetBackend chose another.
func DefaultBackend() Backend {
	return Backend(defaultBackend.Load())
}

// SetBackend sets the process-wide default backend. BackendAuto resets to
// builtinBackend. Safe to call concurrently; executions already in progress
// keep the backend they resolved at entry.
func SetBackend(b Backend) {
	if b == BackendAuto {
		b = builtinBackend
	}
	defaultBackend.Store(int32(b))
}

// resolve maps BackendAuto to the process default.
func (b Backend) resolve() Backend {
	if b == BackendAuto {
		return DefaultBackend()
	}
	return b
}

// ---------------------------------------------------------------------------
// Backend counters
// ---------------------------------------------------------------------------

// backendCtr tallies process-wide backend activity: how many work-groups ran
// on each engine, and the instructions of every compiled kernel. Harness
// tools (fluidibench -jsonout) surface these through core.CounterSnapshot.
var backendCtr struct {
	interpWGs   atomic.Int64
	totalInstrs atomic.Int64

	wgLoopWGs     atomic.Int64
	wgFallbackWGs atomic.Int64
	wgRegions     atomic.Int64
	wgKernels     atomic.Int64

	// wgRej counts one-lane groups per WGReject reason.
	wgRej [wgRejCount]atomic.Int64
	// wgCertRuns counts certificate computations (decision-cache misses).
	wgCertRuns atomic.Int64

	// Region-fusion coverage (wgfuse.go), attributed at wg-compile time:
	// blocks fused into a single jammed closure, the instructions those
	// blocks cover, and the body instructions left on the per-step
	// fallback path.
	wgFusedBlocks       atomic.Int64
	wgFusedSteps        atomic.Int64
	wgFuseFallbackSteps atomic.Int64
	// wgFuseRej counts the unfused block bodies per WGFuseReject reason.
	wgFuseRej [wgFuseRejCount]atomic.Int64

	// Dynamic fusion accounting, folded in once per work-group: body
	// instructions (per work-item) executed through fused closures vs
	// through per-step lists.
	wgFusedInstrsDyn atomic.Int64
	wgStepInstrsDyn  atomic.Int64

	// Loop-level fusion (wgloop.go), see BackendCounters.
	wgLoopVerdicts      [wgLoopRejCount]atomic.Int64
	wgLoopBatchesDyn    atomic.Int64
	wgLoopTripsDyn      atomic.Int64
	wgLoopNonuniformDyn atomic.Int64
}

// BackendCounters is a snapshot of process-wide backend activity.
type BackendCounters struct {
	// InterpWGs counts the work-groups the interpreter executed: only where
	// selected as the referee.
	InterpWGs int64
	// TotalInstrs counts the instructions of every kernel compiled in the
	// process.
	TotalInstrs int64
	// FusedInstrs is always zero.
	//
	// Deprecated: it counted the removed closure engine's superinstructions;
	// kept only because bench/layers.go spells it.
	FusedInstrs int64

	// WGLoopWGs counts work-groups executed by the whole-work-group engine;
	// WGFallbackWGs counts those of them that ran in one-lane sets because
	// the noninterference certificate rejected their launch.
	WGLoopWGs     int64
	WGFallbackWGs int64
	// WGRegions / WGKernels count barrier-free regions and kernels compiled
	// by the work-group compilation pass, across every kernel compilation in
	// the process.
	WGRegions int64
	WGKernels int64

	// WGStridedWGs equals WGLoopWGs: the strided disjointness certificate
	// admits every lockstep work-group.
	//
	// Deprecated: use WGLoopWGs; kept only because bench/layers.go spells it.
	WGStridedWGs int64
	// WGRejects attributes every one-lane group to one WGReject reason,
	// indexed by that enum (index WGRejNone is always zero).
	WGRejects [wgRejCount]int64

	// WGFusedBlocks / WGFusedSteps count basic blocks region-fused by the
	// wg fusion pass (wgfuse.go) and the instructions those blocks cover;
	// WGFuseFallbackSteps counts body instructions compiled on the
	// per-step fallback path instead. All attributed at wg-compile time.
	WGFusedBlocks       int64
	WGFusedSteps        int64
	WGFuseFallbackSteps int64
	// WGFuseRejects attributes every unfused block body to one
	// WGFuseReject reason, indexed by that enum (index WGFuseRejNone is
	// always zero).
	WGFuseRejects [wgFuseRejCount]int64

	// WGFusedInstrsDyn / WGStepInstrsDyn count the block-body instructions
	// the lockstep engine executed, per work-item, through fused closures
	// vs through per-step lists (a fused block dispatched to a partial set
	// counts as per-step). Exact functions of the input, unlike the
	// compile-time counts above.
	WGFusedInstrsDyn int64
	WGStepInstrsDyn  int64

	// WGLoopVerdicts counts the loop verdict of every fused reduction body
	// compiled: index WGLoopRejNone the loops fused, the others the bodies
	// left on one trip per dispatch, by WGLoopReject reason.
	WGLoopVerdicts [wgLoopRejCount]int64
	// WGLoopBatchesDyn counts fused-body dispatches that ran their whole
	// loop, WGLoopTripsDyn the trips those covered, WGLoopNonuniformDyn the
	// dispatches of a loop-fused body that ran one trip because the
	// uniformity precheck failed (registers, or already-diverged budgets).
	WGLoopBatchesDyn    int64
	WGLoopTripsDyn      int64
	WGLoopNonuniformDyn int64
}

// WGRejectNames returns the reason name for each WGRejects index.
func WGRejectNames() [wgRejCount]string { return wgRejectNames }

// WGFuseRejectNames returns the reason name for each WGFuseRejects index.
func WGFuseRejectNames() [wgFuseRejCount]string { return wgFuseRejectNames }

// WGLoopRejectNames returns the reason name for each WGLoopVerdicts index.
func WGLoopRejectNames() [wgLoopRejCount]string { return wgLoopRejectNames }

// BackendSnapshot returns the process-wide backend counters.
func BackendSnapshot() BackendCounters {
	bc := BackendCounters{
		InterpWGs:     backendCtr.interpWGs.Load(),
		TotalInstrs:   backendCtr.totalInstrs.Load(),
		WGLoopWGs:     backendCtr.wgLoopWGs.Load(),
		WGFallbackWGs: backendCtr.wgFallbackWGs.Load(),
		WGRegions:     backendCtr.wgRegions.Load(),
		WGKernels:     backendCtr.wgKernels.Load(),

		WGFusedBlocks:       backendCtr.wgFusedBlocks.Load(),
		WGFusedSteps:        backendCtr.wgFusedSteps.Load(),
		WGFuseFallbackSteps: backendCtr.wgFuseFallbackSteps.Load(),

		WGFusedInstrsDyn: backendCtr.wgFusedInstrsDyn.Load(),
		WGStepInstrsDyn:  backendCtr.wgStepInstrsDyn.Load(),

		WGLoopBatchesDyn:    backendCtr.wgLoopBatchesDyn.Load(),
		WGLoopTripsDyn:      backendCtr.wgLoopTripsDyn.Load(),
		WGLoopNonuniformDyn: backendCtr.wgLoopNonuniformDyn.Load(),
	}
	bc.WGStridedWGs = bc.WGLoopWGs
	for i := range bc.WGRejects {
		bc.WGRejects[i] = backendCtr.wgRej[i].Load()
	}
	for i := range bc.WGFuseRejects {
		bc.WGFuseRejects[i] = backendCtr.wgFuseRej[i].Load()
	}
	for i := range bc.WGLoopVerdicts {
		bc.WGLoopVerdicts[i] = backendCtr.wgLoopVerdicts[i].Load()
	}
	return bc
}
