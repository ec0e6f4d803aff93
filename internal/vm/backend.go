package vm

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Backend knob
// ---------------------------------------------------------------------------

// Backend selects the work-group execution engine. All backends execute the
// same bytecode with identical semantics — byte-identical buffers, identical
// Stats (and therefore identical virtual time) — and differ only in host
// wall-clock cost.
type Backend int32

// Backends.
const (
	// BackendAuto resolves to the process default (see SetBackend and the
	// FLUIDICL_BACKEND environment variable).
	BackendAuto Backend = iota
	// BackendInterp is the switch-dispatch bytecode interpreter: one
	// work-item at a time, one instruction per dispatch. It is wg's fallback
	// and, selected on its own, the bytecode-level referee.
	BackendInterp
	// BackendWG is the whole-work-group engine (the built-in default): the
	// kernel's CFG is split at barriers into barrier-free regions and each
	// basic block runs as a loop over all work-items of the group against
	// structure-of-arrays register banks (wg.go / wgexec.go). Kernels or
	// launches the per-launch noninterference certificate cannot prove safe
	// fall back to the interpreter per work-group.
	BackendWG
)

// BackendClosure named the threaded-code engine, which was removed
// (DESIGN.md §7); it selects the interpreter.
//
// Deprecated: use BackendInterp. Kept only because bench/layers.go spells it.
const BackendClosure = BackendInterp

// String returns the flag spelling of b.
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

// ParseBackend parses a backend name as accepted by the fluidibench
// -backend flag and the FLUIDICL_BACKEND environment variable, in any case.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "interp", "interpreter":
		return BackendInterp, nil
	case "wg", "workgroup":
		return BackendWG, nil
	case "auto", "":
		return BackendAuto, nil
	}
	return BackendAuto, fmt.Errorf("vm: unknown backend %q (want interp or wg)", s)
}

// builtinBackend is what BackendAuto resolves to when neither SetBackend nor
// FLUIDICL_BACKEND chose an engine: the whole-work-group engine, the one the
// benchmark measures. The interpreter is its per-group fallback for launches
// the certificate rejects, and stays selectable as the referee.
const builtinBackend = BackendWG

// defaultBackend holds the process-wide backend (never BackendAuto);
// backendEnvErr what was wrong with FLUIDICL_BACKEND, if anything.
var (
	defaultBackend atomic.Int32
	backendEnvErr  error
)

func init() {
	b, err := ParseBackend(os.Getenv("FLUIDICL_BACKEND"))
	if err != nil {
		backendEnvErr = fmt.Errorf("FLUIDICL_BACKEND: %w", err)
	}
	SetBackend(b)
}

// BackendEnvErr reports a FLUIDICL_BACKEND value that names no backend. The
// process then runs the built-in default, so anything that promises a
// specific engine (fluidibench, the CI parity legs) checks this first.
func BackendEnvErr() error { return backendEnvErr }

// DefaultBackend returns the process-wide backend that BackendAuto resolves
// to: builtinBackend unless FLUIDICL_BACKEND or SetBackend chose another.
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

	// wgStridedWGs counts work-groups admitted to the lockstep engine by
	// the strided disjointness certificate (the identical-form certificate
	// having failed); wgRej counts fallbacks per WGReject reason.
	wgStridedWGs atomic.Int64
	wgRej        [wgRejCount]atomic.Int64
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
	// InterpWGs counts the work-groups the interpreter executed, selected or
	// as wg's fallback.
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
	// WGFallbackWGs counts work-groups that requested the wg backend but fell
	// back to the interpreter (unsupported kernel shape or a launch the
	// noninterference certificate rejected).
	WGLoopWGs     int64
	WGFallbackWGs int64
	// WGRegions / WGKernels count barrier-free regions and kernels compiled
	// by the work-group compilation pass, across every kernel compilation in
	// the process.
	WGRegions int64
	WGKernels int64

	// WGStridedWGs counts work-groups the strided disjointness certificate
	// admitted after the identical-form certificate failed. WGRejects
	// attributes every fallback to one WGReject reason, indexed by that
	// enum (index WGRejNone is always zero).
	WGStridedWGs int64
	WGRejects    [wgRejCount]int64

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
		WGStridedWGs:  backendCtr.wgStridedWGs.Load(),

		WGFusedBlocks:       backendCtr.wgFusedBlocks.Load(),
		WGFusedSteps:        backendCtr.wgFusedSteps.Load(),
		WGFuseFallbackSteps: backendCtr.wgFuseFallbackSteps.Load(),

		WGFusedInstrsDyn: backendCtr.wgFusedInstrsDyn.Load(),
		WGStepInstrsDyn:  backendCtr.wgStepInstrsDyn.Load(),

		WGLoopBatchesDyn:    backendCtr.wgLoopBatchesDyn.Load(),
		WGLoopTripsDyn:      backendCtr.wgLoopTripsDyn.Load(),
		WGLoopNonuniformDyn: backendCtr.wgLoopNonuniformDyn.Load(),
	}
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
