package sched

import (
	"fmt"

	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
)

// RunSingle executes the app on one device through the plain vendor-runtime
// API — the paper's CPU-only and GPU-only baselines (§8: "we run each
// benchmark using the vendor runtimes directly").
func RunSingle(cfg device.Config, app *App) (*Result, error) {
	env := sim.NewEnv()
	ctx := ocl.NewContext(env, device.New(env, cfg))
	prog, err := ctx.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	q := ctx.CreateQueue("app")
	bufNames := sortedBufferNames(app.Buffers)
	bufs := map[string]*ocl.Buffer{}
	for _, name := range bufNames {
		bufs[name] = ctx.CreateBuffer(app.Buffers[name])
	}
	kernels := map[string]*ocl.Kernel{}
	for _, l := range app.Launches {
		if kernels[l.Kernel] == nil {
			k, err := prog.CreateKernel(l.Kernel)
			if err != nil {
				return nil, err
			}
			kernels[l.Kernel] = k
		}
	}
	res := &Result{Outputs: map[string][]byte{}}
	var runErr error
	env.Go("app", func(p *sim.Proc) {
		for _, name := range bufNames {
			q.EnqueueWriteBuffer(bufs[name], app.input(name)) // never changes: handed over
		}
		for _, l := range app.Launches {
			args := make([]ocl.Arg, len(l.Args))
			for i, a := range l.Args {
				switch a.Kind {
				case ArgBuf:
					args[i] = ocl.BufArg(bufs[a.Name])
				case ArgInt:
					args[i] = ocl.IntArg(a.I)
				default:
					args[i] = ocl.FloatArg(a.F)
				}
			}
			t0 := p.Now()
			ev, lr := q.EnqueueNDRangeKernel(kernels[l.Kernel], l.ND, args, ocl.LaunchOpts{Split: cfg.Kind == device.CPU})
			p.Wait(ev)
			if lr.Err != nil {
				runErr = lr.Err
				return
			}
			res.LaunchTimes = append(res.LaunchTimes, p.Now()-t0)
		}
		for _, name := range app.Outputs {
			out := make([]byte, app.Buffers[name])
			p.Wait(q.EnqueueReadBuffer(bufs[name], out))
			res.Outputs[name] = out
		}
		res.Time = p.Now()
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if res.Time == 0 && len(app.Launches) > 0 {
		return nil, fmt.Errorf("sched: single-device run of %s did not complete", app.Name)
	}
	res.Summary = env.Meter.Summary()
	return res, nil
}
