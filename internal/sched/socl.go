package sched

import (
	"fmt"

	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
)

// Policy selects the SOCL-like scheduling policy (§9.4).
type Policy int

// Policies.
const (
	// Eager is StarPU's default greedy policy: a ready task goes to the
	// worker that has been idle longest (CPU workers first on ties, as
	// StarPU registers them first). It is speed-oblivious.
	Eager Policy = iota
	// Dmda (deque model data aware) uses a calibrated per-device execution
	// model plus predicted transfer costs to place each task.
	Dmda
)

func (p Policy) String() string {
	if p == Eager {
		return "eager"
	}
	return "dmda"
}

// DmdaModel is the calibrated performance model: per (kernel, launch size),
// the measured execution time on each device kind.
type DmdaModel map[string]map[device.Kind]sim.Time

func dmdaKey(l Launch) string {
	return fmt.Sprintf("%s@%d", l.Kernel, l.ND.TotalGroups())
}

// CalibrateDmda builds the dmda performance model by running the
// application on each device and recording per-kernel execution times —
// the calibration step the paper notes dmda requires ("running the
// application with at least ten different input sizes", §9.4; we calibrate
// with the exact launches, which favours dmda). Calibration time is not
// counted toward the measured run, matching the paper's methodology.
func CalibrateDmda(m Machine, app *App) (DmdaModel, error) {
	cpu, err := RunSingle(m.CPU, app)
	if err != nil {
		return nil, err
	}
	gpu, err := RunSingle(m.GPU, app)
	if err != nil {
		return nil, err
	}
	return FitDmda(app, cpu, gpu)
}

// FitDmda builds the dmda model from the app's CPU-only and GPU-only runs
// (RunSingle results): each (kernel, launch size) gets the mean of its
// launch times on each device.
func FitDmda(app *App, cpu, gpu *Result) (DmdaModel, error) {
	model := DmdaModel{}
	for kind, r := range [...]*Result{device.CPU: cpu, device.GPU: gpu} {
		if len(r.LaunchTimes) != len(app.Launches) {
			return nil, fmt.Errorf("sched: calibration recorded %d launches, want %d", len(r.LaunchTimes), len(app.Launches))
		}
		// Average over repeated identical launches.
		n := map[string]int{}
		for i, l := range app.Launches {
			key := dmdaKey(l)
			if model[key] == nil {
				model[key] = map[device.Kind]sim.Time{}
			}
			model[key][device.Kind(kind)] += r.LaunchTimes[i]
			n[key]++
		}
		for key, c := range n {
			model[key][device.Kind(kind)] /= sim.Time(c)
		}
	}
	return model, nil
}

// RunSocl executes the app under the SOCL-like task scheduler: each kernel
// launch is one task placed wholly on one device, with automatic data
// management (lazy transfers through the host). model is required for Dmda
// and ignored for Eager. Under a Sweep (runSocl with sw set) its launches
// are served from the sweep's plain records.
func RunSocl(m Machine, app *App, policy Policy, model DmdaModel) (*Result, error) {
	return runSocl(m, app, policy, model, nil)
}

func runSocl(m Machine, app *App, policy Policy, model DmdaModel, sw *Sweep) (*Result, error) {
	if policy == Dmda && model == nil {
		return nil, fmt.Errorf("sched: dmda requires a calibrated model")
	}
	env := sim.NewEnv()
	d := newPair(env, m, app)
	defer recycle(d.all...)
	cpuProg, err := d.cpuCtx.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	gpuProg, err := d.gpuCtx.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	info := cpuProg.Info
	lastDone := map[bool]sim.Time{} // when the GPU (true) and the CPU last finished a task
	return drive(env, app, 1, "SOCL", steps{
		// SOCL-style: inputs start host-side, handed over (they never
		// change); transfers happen on demand.
		write: func(_ *sim.Proc, name string, data []byte) { d.bufs[name].host.Store(data) },
		launch: func(p *sim.Proc, li int, l Launch) error {
			ki := info.Kernels[l.Kernel]
			useGPU := false
			switch policy {
			case Eager:
				// Longest-idle worker gets the task; ties go to the CPU.
				useGPU = lastDone[true] < lastDone[false]
			case Dmda:
				useGPU = dmdaChoosesGPU(m, l, ki, d.bufs, model)
			}
			d.ensureArgs(p, ki, l, useGPU)
			prog, q := cpuProg, d.cpuQ
			if useGPU {
				prog, q = gpuProg, d.gpuQ
			}
			ev, lr := q.EnqueueNDRangeKernel(prog.MustKernel(l.Kernel), l.ND, d.args(l, useGPU), ocl.LaunchOpts{Split: !useGPU, Record: sw.record(li, true)})
			p.Wait(ev)
			if lr.Err != nil {
				return lr.Err
			}
			for _, name := range writtenBufNames(ki, l) {
				d.bufs[name].only(useGPU)
			}
			lastDone[useGPU] = p.Now()
			return nil
		},
		read: d.readOut,
	})
}

// dmdaChoosesGPU predicts completion on each device (transfer of missing
// inputs + modelled execution) and picks the faster.
func dmdaChoosesGPU(m Machine, l Launch, ki *clc.KernelInfo, bufs map[string]*sbuf, model DmdaModel) bool {
	exec := model[dmdaKey(l)]
	predict := func(gpu bool) sim.Time {
		link, kind := m.CPU.Link, device.CPU
		if gpu {
			link, kind = m.GPU.Link, device.GPU
		}
		var t sim.Time
		for i, param := range ki.Kernel.Params {
			if !param.Ty.Ptr {
				continue
			}
			if b := bufs[l.Args[i].Name]; (gpu && !b.onGPU) || (!gpu && !b.onCPU) {
				// Missing data: fetch from the owner to host, then up.
				if b.onGPU {
					t += m.GPU.Link.TransferTime(b.size)
				} else if b.onCPU {
					t += m.CPU.Link.TransferTime(b.size)
				}
				t += link.TransferTime(b.size)
			}
		}
		return t + exec[kind] // a launch the model lacks adds nothing
	}
	return predict(true) < predict(false)
}
