package vm

import (
	"fluidicl/internal/analysis"
)

// WGReject enumerates the machine-readable reasons a work-group that
// requested the wg backend fell back to the interpreter. Every fallback
// carries exactly one reason; the per-reason counters surface through
// BackendSnapshot → core.CounterSnapshot → fluidibench.
type WGReject uint8

const (
	// WGRejNone: not rejected (the group ran in lockstep).
	WGRejNone WGReject = iota
	// WGRejShape: the kernel has no whole-work-group compilation (divergent
	// barrier, private arrays without a barrier, or an unsupported step).
	WGRejShape
	// WGRejAlias: two buffer arguments share storage, defeating every
	// disjointness argument.
	WGRejAlias
	// WGRejNoSummary: the identical-form certificate failed and no strided
	// summary is available to try the disjointness certificate.
	WGRejNoSummary
	// WGRejLocalStore: the kernel stores to a __local array, which the
	// strided footprints do not model.
	WGRejLocalStore
	// WGRejUnknownStore: a store site's index escaped the strided analysis
	// (the summary carries the precise Reject reason).
	WGRejUnknownStore
	// WGRejUnknownRead: a load of a written argument escaped the analysis.
	WGRejUnknownRead
	// WGRejOverlap: footprints of two work-items of one group may intersect.
	WGRejOverlap
	// WGRejBudget: the launch shape made the disjointness check too
	// expensive to run.
	WGRejBudget

	wgRejCount = int(WGRejBudget) + 1
)

var wgRejectNames = [wgRejCount]string{
	"none", "shape", "alias", "no_summary", "local_store",
	"unknown_store", "unknown_read", "overlap", "budget",
}

func (r WGReject) String() string {
	if int(r) < wgRejCount {
		return wgRejectNames[r]
	}
	return "unknown"
}

// wgStridedBudget bounds the footprint evaluations + pairwise disjointness
// tests of one second-chance certification. The result is cached per launch
// shape, so this is a one-time cost per (kernel, shape, scalar args).
const wgStridedBudget = 1 << 22

// wgSecondChance runs the strided disjointness certificate after the
// identical-form certificate failed: the launch is admitted when the
// kernel's strided summary proves that within every work-group, no two
// work-items' store footprints intersect each other or any read footprint
// of the same (written) argument. The verdict covers the full grid, so it
// is independent of the launch's group slice and safe to cache under the
// shape key.
func (k *Kernel) wgSecondChance(nd NDRange, args []Arg) (bool, WGReject) {
	sum := k.sum
	if sum == nil {
		return false, WGRejNoSummary
	}
	sh := analysis.LaunchShape{Dims: nd.Dims}
	for d := 0; d < 3; d++ {
		sh.Local[d] = int64(nd.LocalSize[d])
		sh.NumGroups[d] = int64(nd.NumGroups[d])
		sh.Count[d] = int64(nd.NumGroups[d])
	}
	params := make([]int64, len(k.Params))
	for i, p := range k.Params {
		if p.Kind == ArgInt {
			params[i] = args[i].I
		}
	}
	v := sum.CertifyGroupDisjoint(sh, params, wgStridedBudget)
	if v.OK {
		return true, WGRejNone
	}
	switch v.Reason {
	case analysis.VerdictLocalStore:
		return false, WGRejLocalStore
	case analysis.VerdictUnknownStore:
		return false, WGRejUnknownStore
	case analysis.VerdictUnknownRead:
		return false, WGRejUnknownRead
	case analysis.VerdictOverlap:
		return false, WGRejOverlap
	case analysis.VerdictBudget:
		return false, WGRejBudget
	}
	return false, WGRejNoSummary
}
