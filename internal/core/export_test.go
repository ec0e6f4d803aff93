package core

import "fluidicl/internal/vm"

// Test-only exports for the external (core_test) tests, which may import
// the packages that import core.

// PlanCacheCap is the per-kernel bound of the launch-plan cache.
const PlanCacheCap = planCacheCap

// FootprintEvals returns how many launch-level footprints this process has
// evaluated while planning launches (plan-cache misses that reach the
// strided fallback).
func FootprintEvals() int64 { return footprintEvals.Load() }

// CachedAndFreshPlan returns the plan k's cache serves for the launch and
// one derived from scratch, for reflect.DeepEqual.
func CachedAndFreshPlan(k *Kernel, nd vm.NDRange, args []Arg) (cached, fresh any) {
	return k.plan(nd, args), planElisions(k.Info, k.Sum, nd, args)
}

// CachedPlans returns how many plans k's cache holds.
func CachedPlans(k *Kernel) int {
	if p := k.plans.entries.Load(); p != nil {
		return len(*p)
	}
	return 0
}
