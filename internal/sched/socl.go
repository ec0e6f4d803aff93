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
	for _, run := range []struct {
		kind device.Kind
		r    *Result
	}{{device.CPU, cpu}, {device.GPU, gpu}} {
		if len(run.r.LaunchTimes) != len(app.Launches) {
			return nil, fmt.Errorf("sched: calibration recorded %d launches, want %d", len(run.r.LaunchTimes), len(app.Launches))
		}
		// Average over repeated identical launches.
		n := map[string]int{}
		for i, l := range app.Launches {
			key := dmdaKey(l)
			if model[key] == nil {
				model[key] = map[device.Kind]sim.Time{}
			}
			model[key][run.kind] += run.r.LaunchTimes[i]
			n[key]++
		}
		for key, c := range n {
			model[key][run.kind] /= sim.Time(c)
		}
	}
	return model, nil
}

// RunSocl executes the app under the SOCL-like task scheduler: each kernel
// launch is one task placed wholly on one device, with automatic data
// management (lazy transfers through the host). model is required for Dmda
// and ignored for Eager.
func RunSocl(m Machine, app *App, policy Policy, model DmdaModel) (*Result, error) {
	if policy == Dmda && model == nil {
		return nil, fmt.Errorf("sched: dmda requires a calibrated model")
	}
	env := sim.NewEnv()
	cpuCtx := ocl.NewContext(env, device.New(env, m.CPU))
	gpuCtx := ocl.NewContext(env, device.New(env, m.GPU))
	cpuProg, err := cpuCtx.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	gpuProg, err := gpuCtx.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	info := cpuProg.Info
	cpuQ := cpuCtx.CreateQueue("app")
	gpuQ := gpuCtx.CreateQueue("app")

	bufNames := sortedBufferNames(app.Buffers)
	bufs := map[string]*sbuf{}
	for _, name := range bufNames {
		size := app.Buffers[name]
		bufs[name] = &sbuf{size: size, cpu: cpuCtx.CreateBuffer(size), gpu: gpuCtx.CreateBuffer(size), host: make([]byte, size)}
	}

	res := &Result{Outputs: map[string][]byte{}}
	var runErr error

	env.Go("app", func(p *sim.Proc) {
		// SOCL-style: inputs start host-side; transfers happen on demand.
		for _, name := range bufNames {
			copy(bufs[name].host, app.input(name))
		}
		toHost := func(b *sbuf) {
			switch {
			case b.onGPU:
				p.Wait(gpuQ.EnqueueReadBuffer(b.gpu, b.host))
			case b.onCPU:
				p.Wait(cpuQ.EnqueueReadBuffer(b.cpu, b.host))
			}
		}
		// The host copy changes, so uploads copy it.
		ensure := func(b *sbuf, gpu bool) {
			if gpu && !b.onGPU {
				toHost(b)
				p.Wait(gpuQ.EnqueueWriteBufferAt(b.gpu, 0, b.host))
				b.onGPU = true
			}
			if !gpu && !b.onCPU {
				toHost(b)
				p.Wait(cpuQ.EnqueueWriteBufferAt(b.cpu, 0, b.host))
				b.onCPU = true
			}
		}

		var cpuLastDone, gpuLastDone sim.Time
		for _, l := range app.Launches {
			ki := info.Kernels[l.Kernel]
			useGPU := false
			switch policy {
			case Eager:
				// Longest-idle worker gets the task; ties go to the CPU.
				useGPU = gpuLastDone < cpuLastDone
			case Dmda:
				useGPU = dmdaChoosesGPU(m, l, ki, bufs, model)
			}
			ensureAll(p, ki, l, bufs, ensure, useGPU)
			var prog *ocl.Program
			var q *ocl.CommandQueue
			if useGPU {
				prog, q = gpuProg, gpuQ
			} else {
				prog, q = cpuProg, cpuQ
			}
			args := soclArgs(l, bufs, useGPU)
			ev, lr := q.EnqueueNDRangeKernel(prog.MustKernel(l.Kernel), l.ND, args, ocl.LaunchOpts{Split: !useGPU})
			p.Wait(ev)
			if lr.Err != nil {
				runErr = lr.Err
				return
			}
			for _, name := range writtenBufNames(ki, l) {
				b := bufs[name]
				b.onGPU = useGPU
				b.onCPU = !useGPU
			}
			if useGPU {
				gpuLastDone = p.Now()
			} else {
				cpuLastDone = p.Now()
			}
		}
		for _, name := range app.Outputs {
			b := bufs[name]
			toHost(b)
			out := make([]byte, b.size)
			copy(out, b.host)
			res.Outputs[name] = out
		}
		res.Time = p.Now()
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if res.Time == 0 && len(app.Launches) > 0 {
		return nil, fmt.Errorf("sched: SOCL run of %s did not complete", app.Name)
	}
	res.Summary = env.Meter.Summary()
	return res, nil
}

func ensureAll(p *sim.Proc, ki *clc.KernelInfo, l Launch, bufs map[string]*sbuf, ensure func(*sbuf, bool), gpu bool) {
	for i, param := range ki.Kernel.Params {
		if !param.Ty.Ptr {
			continue
		}
		acc := ki.ParamAccess[param.Name]
		if acc.Read || acc.Written {
			ensure(bufs[l.Args[i].Name], gpu)
		}
	}
}

func soclArgs(l Launch, bufs map[string]*sbuf, gpu bool) []ocl.Arg {
	args := make([]ocl.Arg, len(l.Args))
	for i, a := range l.Args {
		switch a.Kind {
		case ArgBuf:
			if gpu {
				args[i] = ocl.BufArg(bufs[a.Name].gpu)
			} else {
				args[i] = ocl.BufArg(bufs[a.Name].cpu)
			}
		case ArgInt:
			args[i] = ocl.IntArg(a.I)
		default:
			args[i] = ocl.FloatArg(a.F)
		}
	}
	return args
}

// dmdaChoosesGPU predicts completion on each device (transfer of missing
// inputs + modelled execution) and picks the faster.
func dmdaChoosesGPU(m Machine, l Launch, ki *clc.KernelInfo, bufs map[string]*sbuf, model DmdaModel) bool {
	exec := model[dmdaKey(l)]
	predict := func(gpu bool) sim.Time {
		var t sim.Time
		link := m.CPU.Link
		kind := device.CPU
		if gpu {
			link = m.GPU.Link
			kind = device.GPU
		}
		for i, param := range ki.Kernel.Params {
			if !param.Ty.Ptr {
				continue
			}
			b := bufs[l.Args[i].Name]
			present := b.onGPU
			if !gpu {
				present = b.onCPU
			}
			if !present {
				// Missing data: fetch from the owner to host, then up.
				if b.onGPU {
					t += m.GPU.Link.TransferTime(b.size)
				} else if b.onCPU {
					t += m.CPU.Link.TransferTime(b.size)
				}
				t += link.TransferTime(b.size)
			}
		}
		if exec != nil {
			t += exec[kind]
		}
		return t
	}
	return predict(true) < predict(false)
}
