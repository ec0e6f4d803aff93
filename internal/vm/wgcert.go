package vm

import (
	"slices"

	"fluidicl/internal/analysis"
)

// Launch-time admission to whole-group sets.
//
// The lockstep engine executes a barrier-free region for all work-items of
// a group in an order that interleaves items block by block, instead of
// running each item to completion. That reordering is unobservable — same
// buffers, same per-item register trajectories, same Stats — when no
// work-item reads or writes a global location that another item of the
// same group writes. Private arrays are per-item by
// construction; __local arrays are shared, and a kernel that stores to one
// is rejected (WGRejLocalStore). A rejected launch runs in one-lane sets in
// work-item order, the interpreter's (runGroup).
//
// One certificate argues it: the kernel's strided summary (package
// analysis, computed once at compile time) evaluated against the launch
// shape by CertifyGroupDisjoint. A written argument whose every access uses
// one lid-injective slot passes in O(refs + items per group); any other is
// proved disjoint pairwise, item by item and group by group, within
// wgStridedBudget. The verdict covers the full grid, so it is independent
// of the launch's group slice.
//
// It depends only on (dims, local size, num groups, scalar int argument
// values) — the certificate reads no float argument — so the decision is
// cached per kernel under that key (Kernel.certs). Buffer aliasing — two
// arguments sharing storage — would defeat that per-argument reasoning and
// is re-checked per work-group against the actual argument list.

// WGReject enumerates the machine-readable reasons the certificate rejects a
// launch, whose work-groups then run in one-lane sets. Every such group
// carries exactly one reason; the per-reason counters surface through
// BackendSnapshot → core.CounterSnapshot → fluidibench.
type WGReject uint8

const (
	// WGRejNone: not rejected (the group ran in whole-group sets).
	WGRejNone WGReject = iota
	// WGRejAlias: two buffer arguments share storage, defeating every
	// disjointness argument.
	WGRejAlias
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
	// WGRejBudget: the launch shape made the pairwise disjointness check too
	// expensive to run.
	WGRejBudget

	wgRejCount = int(WGRejBudget) + 1
)

var wgRejectNames = [wgRejCount]string{
	"none", "alias", "local_store",
	"unknown_store", "unknown_read", "overlap", "budget",
}

func (r WGReject) String() string {
	if int(r) < wgRejCount {
		return wgRejectNames[r]
	}
	return "unknown"
}

// wgStridedBudget bounds the footprint evaluations + pairwise disjointness
// tests of one certification. The result is cached per launch shape, so
// this is a one-time cost per (kernel, shape, scalar args).
const wgStridedBudget = 1 << 22

// wgCertEntry is one cached decision; key[0] is a hash of the rest, so a
// lookup rejects a different key on its first word.
type wgCertEntry struct {
	key []uint64
	rej WGReject
}

// wgCertCacheCap bounds a kernel's decision cache. One cooperative run asks
// about a kernel under many keys — the CPU variant's [fcl_lo, fcl_hi] differ
// per chunk, fcl_merge sees every buffer size — and a repeated run asks
// again in the same order; the widest paper kernel sees 25 keys per quick
// fig13+fig16+table3 pass.
const wgCertCacheCap = 32

// wgCertified reports why this work-group may not run in whole-group sets,
// or WGRejNone when it may: no two buffer arguments overlap, and the cached
// (or freshly computed) certificate for the launch shape holds.
func (k *Kernel) wgCertified(sc *wgScratch, nd NDRange, args []Arg) WGReject {
	for i := range args {
		if args[i].Kind != ArgBuffer {
			continue
		}
		for j := i + 1; j < len(args); j++ {
			if args[j].Kind == ArgBuffer && overlaps(args[i].Buf, args[j].Buf) {
				return WGRejAlias
			}
		}
	}
	key := append(sc.certKey[:0], 0, uint64(nd.Dims),
		uint64(nd.LocalSize[0]), uint64(nd.LocalSize[1]), uint64(nd.LocalSize[2]),
		uint64(nd.NumGroups[0]), uint64(nd.NumGroups[1]), uint64(nd.NumGroups[2]))
	for i, p := range k.Params {
		if p.Kind == ArgInt {
			key = append(key, uint64(args[i].I))
		}
	}
	for _, w := range key[1:] {
		key[0] = (key[0] ^ w) * 1099511628211
	}
	sc.certKey = key
	var cur []wgCertEntry
	if p := k.certs.Load(); p != nil {
		cur = *p
	}
	for i := range cur {
		if slices.Equal(cur[i].key, key) {
			return cur[i].rej
		}
	}
	backendCtr.wgCertRuns.Add(1)
	e := wgCertEntry{key: slices.Clone(key), rej: k.wgDisjoint(nd, args)}
	// Copy on write, newest first; a full cache drops its oldest entry. Two
	// goroutines racing to insert lose one entry, which costs a recomputation.
	next := append(make([]wgCertEntry, 0, wgCertCacheCap), e)
	next = append(next, cur[:min(len(cur), wgCertCacheCap-1)]...)
	k.certs.Store(&next)
	return e.rej
}

// wgDisjoint asks the kernel's strided summary whether, within every
// work-group of the full grid, no two work-items' store footprints intersect
// each other or any read footprint of the same (written) argument.
func (k *Kernel) wgDisjoint(nd NDRange, args []Arg) WGReject {
	sh, params := k.shape(nd, args)
	v := k.sum.CertifyGroupDisjoint(sh, params, wgStridedBudget)
	switch {
	case v.OK:
		return WGRejNone
	case v.Reason == analysis.VerdictLocalStore:
		return WGRejLocalStore
	case v.Reason == analysis.VerdictUnknownStore:
		return WGRejUnknownStore
	case v.Reason == analysis.VerdictUnknownRead:
		return WGRejUnknownRead
	case v.Reason == analysis.VerdictOverlap:
		return WGRejOverlap
	}
	return WGRejBudget
}

// GroupsIndependent reports that no work-group of the launch's full grid
// stores to a global word that another group loads
// (analysis.CertifyGroupsIndependent).
func (k *Kernel) GroupsIndependent(nd NDRange, args []Arg) bool {
	return k.sum.CertifyGroupsIndependent(k.shape(nd, args))
}

// shape is the launch's full grid and scalar int arguments as the kernel's
// summary evaluates them.
func (k *Kernel) shape(nd NDRange, args []Arg) (analysis.LaunchShape, []int64) {
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
	return sh, params
}
