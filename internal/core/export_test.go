package core

import (
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

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

// CoherenceProgram is one of TestTwinCoherence's host programs: Run drives
// rt over env and returns the first wrong word it finds ("" when every word
// is right); CPU and GPU are the devices it was written for.
type CoherenceProgram struct {
	Name     string
	CPU, GPU func() device.Config
	Run      func(t *testing.T, env *sim.Env, rt *Runtime) string
}

// CoherencePrograms returns TestTwinCoherence's host programs.
func CoherencePrograms() (out []CoherenceProgram) {
	for _, c := range coherenceCases() {
		out = append(out, CoherenceProgram{c.name, c.cpu, c.gpu, c.run})
	}
	return out
}

// PendingInvariant checks that every device copy of every buffer of rt equals
// the host shadow outside its pending set; call it with the queues drained.
// It returns the first byte that breaks the invariant, or "".
func PendingInvariant(rt *Runtime) string { return pendingInvariant(rt) }
