package sched

import (
	"fmt"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
)

// RunTopology executes the app under FluidiCL on an N-device topology.
//
// The degenerate two-device machine — exactly one CPU and one GPU on
// dedicated, config-default links — runs the original twin protocol, so its
// results, virtual timings and traces are bit-identical to RunFluidiCL on
// the equivalent Machine. Every other topology runs the N-way work-stealing
// protocol (core.NewTopo), which runs the original kernel on every device:
// CPU kernel variants (§6.6) are functionally identical by contract, so
// ignoring them never changes results, only (potentially) CPU-side timing.
func RunTopology(topo device.Topology, app *App, opts core.Options) (*Result, error) {
	return RunTopologyTraced(topo, app, opts, nil)
}

// RunTopologyTraced is RunTopology with an event recorder attached: every
// chunk launch, link transfer (including contention waits on a shared bus)
// and refresh lands in rec for export. Recording does not perturb the
// simulation, so Result is identical to an untraced run.
func RunTopologyTraced(topo device.Topology, app *App, opts core.Options, rec *trace.Recorder) (*Result, error) {
	if cpu, gpu, ok := topo.Pair(); ok {
		return runCooperative(app, 1, rec, twinRuntime(Machine{CPU: cpu, GPU: gpu}, opts))
	}
	if len(topo.Devices) == 0 {
		return nil, fmt.Errorf("sched: topology %q has no devices", topo.String())
	}
	return runCooperative(app, 1, rec, func(env *sim.Env) (*core.Runtime, error) {
		return core.NewTopo(env, topo.Build(env), opts)
	})
}
