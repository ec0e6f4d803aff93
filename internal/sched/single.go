package sched

import (
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
)

// RunSingle executes the app on one device through the plain vendor-runtime
// API — the paper's CPU-only and GPU-only baselines (§8: "we run each
// benchmark using the vendor runtimes directly"). Under a Sweep (runSingle
// with sw set) its launches are served from the sweep's plain records.
func RunSingle(cfg device.Config, app *App) (*Result, error) {
	return runSingle(cfg, app, nil)
}

func runSingle(cfg device.Config, app *App, sw *Sweep) (*Result, error) {
	env := sim.NewEnv()
	ctx := ocl.NewContext(env, device.New(env, cfg))
	prog, err := ctx.BuildProgram(app.Source)
	if err != nil {
		return nil, err
	}
	q := ctx.CreateQueue("app")
	bufs := map[string]*ocl.Buffer{}
	var run []*ocl.Buffer
	for _, name := range sortedBufferNames(app.Buffers) {
		bufs[name] = ctx.CreateBuffer(app.Buffers[name])
		run = append(run, bufs[name])
	}
	defer recycle(run...)
	kernels, err := createKernels(app, prog.CreateKernel)
	if err != nil {
		return nil, err
	}
	var launchTimes []sim.Time
	res, err := drive(env, app, 1, "single-device", steps{
		write: func(_ *sim.Proc, name string, data []byte) {
			q.EnqueueWriteBuffer(bufs[name], data) // never changes: handed over
		},
		launch: func(p *sim.Proc, li int, l Launch) error {
			t0 := p.Now()
			args := lowerArgs(l, func(name string) ocl.Arg { return ocl.BufArg(bufs[name]) }, ocl.IntArg, ocl.FloatArg)
			ev, lr := q.EnqueueNDRangeKernel(kernels[l.Kernel], l.ND, args, ocl.LaunchOpts{Split: cfg.Kind == device.CPU, Record: sw.record(li, true)})
			p.Wait(ev)
			launchTimes = append(launchTimes, p.Now()-t0)
			return lr.Err
		},
		read: func(p *sim.Proc, name string) []byte {
			out := make([]byte, app.Buffers[name])
			p.Wait(q.EnqueueReadBuffer(bufs[name], out))
			return out
		},
	})
	if err != nil {
		return nil, err
	}
	res.LaunchTimes = launchTimes
	return res, nil
}

// recycle hands the storage bufs own, never a handed-over input, to the free
// list the next run draws from (ocl.Recycle), as core.Runtime.Release does.
func recycle(bufs ...*ocl.Buffer) {
	run := make([][]byte, len(bufs))
	for i, b := range bufs {
		run[i] = b.Detach()
	}
	ocl.Recycle(run)
}

// lowerArgs lowers a launch's arguments for a runtime's enqueue: buf makes
// a named buffer's argument, i and f a scalar's; extra is appended.
func lowerArgs[A any](l Launch, buf func(name string) A, i func(int64) A, f func(float64) A, extra ...A) []A {
	args := make([]A, 0, len(l.Args)+len(extra))
	for _, a := range l.Args {
		switch a.Kind {
		case ArgBuf:
			args = append(args, buf(a.Name))
		case ArgInt:
			args = append(args, i(a.I))
		default:
			args = append(args, f(a.F))
		}
	}
	return append(args, extra...)
}
