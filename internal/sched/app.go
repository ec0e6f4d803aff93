// Package sched defines a device-agnostic application description and the
// baseline execution strategies the paper compares FluidiCL against:
//
//   - single-device execution through a vendor runtime (CPU-only, GPU-only);
//   - static work partitioning with x% of work-groups on the GPU, and the
//     OracleSP sweep that picks the best static split (§9.1);
//   - a StarPU/SOCL-like task scheduler with the `eager` policy and the
//     history-model-based `dmda` policy that requires calibration (§9.4).
package sched

import (
	"fmt"
	"sort"
	"sync"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// ArgKind classifies launch arguments.
type ArgKind int

// Argument kinds.
const (
	ArgBuf ArgKind = iota
	ArgInt
	ArgFloat
)

// ArgSpec is one kernel argument in an application description.
type ArgSpec struct {
	Kind ArgKind
	Name string // buffer name for ArgBuf
	I    int64
	F    float64
}

// Buf references a named application buffer.
func Buf(name string) ArgSpec { return ArgSpec{Kind: ArgBuf, Name: name} }

// Int is an int argument.
func Int(v int64) ArgSpec { return ArgSpec{Kind: ArgInt, I: v} }

// Float is a float argument.
func Float(v float64) ArgSpec { return ArgSpec{Kind: ArgFloat, F: v} }

// Launch is one kernel enqueue in program order.
type Launch struct {
	Kernel string
	ND     vm.NDRange
	Args   []ArgSpec
}

// Variant is an alternate CPU implementation of a kernel (§6.6).
type Variant struct {
	Kernel string // kernel it replaces
	Source string
	Name   string
}

// App is a single-device OpenCL program: sources, buffers, input data and a
// sequence of kernel launches. Every execution strategy runs the same App.
type App struct {
	Name     string
	Source   string
	Buffers  map[string]int    // name -> size in bytes
	Inputs   map[string][]byte // initial contents (missing buffers start zeroed)
	Launches []Launch
	Outputs  []string // buffers read back at the end
	Variants []Variant
}

// zeroSlab backs the initial contents of every buffer an app gives no input
// for. It is shared by all runs and goroutines and strictly read-only: every
// strategy copies or snapshots what it is handed before anything can write.
var zeroSlab struct {
	sync.Mutex
	b []byte
}

// input returns buffer name's initial contents: the app's input, or zeros.
func (a *App) input(name string) []byte {
	if data := a.Inputs[name]; data != nil {
		return data
	}
	n := a.Buffers[name]
	zeroSlab.Lock()
	defer zeroSlab.Unlock()
	if len(zeroSlab.b) < n {
		zeroSlab.b = make([]byte, n)
	}
	return zeroSlab.b[:n:n]
}

// Result is one application execution: total virtual running time (data
// transfers included, platform initialization excluded — the paper's
// methodology, §8) and the final output buffers.
type Result struct {
	Time    sim.Time
	Outputs map[string][]byte
	// LaunchTimes records per-launch kernel durations (single-device runs
	// only; used for Table 1 and dmda calibration).
	LaunchTimes []sim.Time
	Reports     []*core.KernelReport // FluidiCL runs only
	// Counters reports the transfer/merge work the FluidiCL runtime elided
	// based on static kernel summaries (FluidiCL runs only).
	Counters core.Counters
	// Summary aggregates the run's trace meter: per-device busy time and
	// work-group counts, bytes moved per link direction, and the fraction of
	// compute that overlapped across devices.
	Summary trace.Summary
}

// sortedBufferNames returns the app's buffer names in lexical order. Buffer
// setup iterates in this order (not map order) so that the sequence of
// enqueued transfers — and therefore recorded traces — is deterministic.
func sortedBufferNames(buffers map[string]int) []string {
	names := make([]string, 0, len(buffers))
	for name := range buffers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Machine bundles the device models for a run.
type Machine struct {
	CPU device.Config
	GPU device.Config
}

// DefaultMachine is the paper's experimental system (§8): a Tesla C2070
// and a quad-core Xeon W3550 with hyper-threading.
func DefaultMachine() Machine {
	return Machine{CPU: device.XeonW3550(), GPU: device.TeslaC2070()}
}

// RunFluidiCL executes the app under the FluidiCL runtime.
func RunFluidiCL(m Machine, app *App, opts core.Options) (*Result, error) {
	return RunFluidiCLRepeat(m, app, opts, 1)
}

// RunFluidiCLRepeat executes the app `times` times in one FluidiCL runtime
// and reports the last iteration (the paper's methodology excludes the
// first run, §8 — which is also when online profiling learns which kernel
// version is fastest, §6.6).
func RunFluidiCLRepeat(m Machine, app *App, opts core.Options, times int) (*Result, error) {
	return runCooperative(app, times, nil, twinRuntime(m, opts))
}

// RunFluidiCLTraced is RunFluidiCL with an event recorder attached to the
// simulation: every launch, transfer, link-contention span and FluidiCL
// scheduling decision lands in rec for export (e.g. rec.WriteChrome).
// Recording does not perturb the simulation, so Result is identical to an
// untraced run.
func RunFluidiCLTraced(m Machine, app *App, opts core.Options, rec *trace.Recorder) (*Result, error) {
	return runCooperative(app, 1, rec, twinRuntime(m, opts))
}

// RunFluidiCLTimeline is RunFluidiCL with the runtime's plain-text
// cooperative-execution timeline enabled; the timeline is returned even when
// the run fails.
func RunFluidiCLTimeline(m Machine, app *App, opts core.Options) (*Result, *core.Trace, error) {
	var tl *core.Trace
	twin := twinRuntime(m, opts)
	res, err := runCooperative(app, 1, nil, func(env *sim.Env) (*core.Runtime, error) {
		rt, err := twin(env)
		if err == nil {
			tl = rt.EnableTrace()
		}
		return rt, err
	})
	return res, tl, err
}

// newRuntime builds the cooperative runtime for one run on a fresh
// simulation; it is the only thing the strategies above and RunTopology
// choose.
type newRuntime func(env *sim.Env) (*core.Runtime, error)

// twinRuntime selects the paper's twin protocol on machine m.
func twinRuntime(m Machine, opts core.Options) newRuntime {
	return func(env *sim.Env) (*core.Runtime, error) {
		return core.New(env, device.New(env, m.CPU), device.New(env, m.GPU), opts)
	}
}

// runCooperative is the host program every cooperative run executes: build
// the program and kernels, create the buffers, then — `times` times, timing
// the last — write the inputs, enqueue the launches in program order and
// read the outputs back. It never drains the queues itself: the paper's host
// program reads its outputs while later transfers are still in flight, and
// a protocol that needs a drain before readback performs it inside the read.
// The runtime is released on return.
func runCooperative(app *App, times int, rec *trace.Recorder, newRT newRuntime) (*Result, error) {
	env := sim.NewEnv()
	env.Trace = rec // before device creation, so devices register their tracks
	rt, err := newRT(env)
	if err != nil {
		return nil, err
	}
	// Outputs are read back as copies, so once this function returns — on
	// any path — the run's storage can serve the next run.
	defer rt.Release()
	prog, err := rt.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	kernels := map[string]*core.Kernel{}
	for _, l := range app.Launches {
		if _, ok := kernels[l.Kernel]; ok {
			continue
		}
		k, err := prog.CreateKernel(l.Kernel)
		if err != nil {
			return nil, err
		}
		kernels[l.Kernel] = k
	}
	for _, v := range app.Variants {
		k, ok := kernels[v.Kernel]
		if !ok {
			return nil, fmt.Errorf("sched: variant for unknown kernel %q", v.Kernel)
		}
		if err := k.AddCPUVariant(v.Source, v.Name); err != nil {
			return nil, err
		}
	}
	bufNames := sortedBufferNames(app.Buffers)
	bufs := map[string]*core.Buffer{}
	for _, name := range bufNames {
		bufs[name] = rt.CreateBuffer(app.Buffers[name])
	}
	if times < 1 {
		times = 1
	}
	res := &Result{Outputs: map[string][]byte{}}
	var runErr error
	env.Go("app", func(p *sim.Proc) {
		for iter := 0; iter < times; iter++ {
			start := p.Now()
			for _, name := range bufNames {
				rt.EnqueueWriteBuffer(p, bufs[name], app.input(name))
			}
			for _, l := range app.Launches {
				args := make([]core.Arg, len(l.Args))
				for i, a := range l.Args {
					switch a.Kind {
					case ArgBuf:
						args[i] = core.BufArg(bufs[a.Name])
					case ArgInt:
						args[i] = core.IntArg(a.I)
					default:
						args[i] = core.FloatArg(a.F)
					}
				}
				if err := rt.EnqueueNDRangeKernel(p, kernels[l.Kernel], l.ND, args); err != nil {
					runErr = err
					return
				}
			}
			for _, name := range app.Outputs {
				res.Outputs[name] = rt.EnqueueReadBuffer(p, bufs[name])
			}
			res.Time = p.Now() - start
		}
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if err := rt.Err(); err != nil {
		// Deferred failures include dynamic accesses that violated the
		// static summary an elision relied on — results are suspect.
		return nil, err
	}
	if res.Time == 0 && len(app.Launches) > 0 {
		return nil, fmt.Errorf("sched: FluidiCL run of %s did not complete", app.Name)
	}
	res.Reports = rt.Reports
	res.Counters = rt.Counters()
	res.Summary = env.Meter.Summary()
	core.AccumulateGlobal(res.Counters)
	trace.AccumulateGlobal(res.Summary)
	return res, nil
}
