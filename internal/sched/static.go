package sched

import (
	"fmt"

	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/passes"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// RunStatic executes the app with a fixed work partitioning: gpuPct percent
// of every kernel's work-groups on the GPU (from flattened ID 0 upward) and
// the rest on the CPU. This is the manual static partitioning of the
// paper's Figures 2-3 and the building block of OracleSP (§9.1).
//
// Coherence is handled the way a careful manual implementation would: both
// kernel halves run concurrently, the CPU half's data is shipped to the GPU
// and merged there with the same diff-merge kernel FluidiCL uses, and
// buffers move lazily between devices based on location tracking.
func RunStatic(m Machine, app *App, gpuPct int) (*Result, error) {
	if gpuPct <= 0 {
		return RunSingle(m.CPU, app)
	}
	if gpuPct >= 100 {
		return RunSingle(m.GPU, app)
	}

	env := sim.NewEnv()
	cpuCtx := ocl.NewContext(env, device.New(env, m.CPU))
	gpuCtx := ocl.NewContext(env, device.New(env, m.GPU))

	// Guarded program: a range-guard transform on both devices lets each
	// execute an arbitrary flattened work-group interval.
	guarded, info, err := buildGuarded(app.Source)
	if err != nil {
		return nil, err
	}
	cpuProg, err := cpuCtx.BuildProgram(guarded)
	if err != nil {
		return nil, err
	}
	gpuProg, err := gpuCtx.BuildProgram(guarded)
	if err != nil {
		return nil, err
	}
	mergeProg, err := gpuCtx.BuildProgram(passes.MergeKernelSource)
	if err != nil {
		return nil, err
	}
	mergeK := mergeProg.MustKernel(passes.MergeKernelName)

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
	fail := func(err error) { runErr = err }

	env.Go("app", func(p *sim.Proc) {
		for _, name := range bufNames {
			b := bufs[name]
			data := app.input(name)
			copy(b.host, data)
			evC := cpuQ.EnqueueWriteBuffer(b.cpu, data)
			evG := gpuQ.EnqueueWriteBuffer(b.gpu, data)
			p.WaitAll(evC, evG)
			b.onCPU, b.onGPU = true, true
		}

		// toHost / toDev move the canonical copy as needed.
		toHost := func(b *sbuf) {
			switch {
			case b.onGPU:
				p.Wait(gpuQ.EnqueueReadBuffer(b.gpu, b.host))
			case b.onCPU:
				p.Wait(cpuQ.EnqueueReadBuffer(b.cpu, b.host))
			}
		}
		ensure := func(b *sbuf, gpu bool) {
			if gpu && !b.onGPU {
				toHost(b)
				p.Wait(gpuQ.EnqueueWriteBuffer(b.gpu, b.host))
				b.onGPU = true
			}
			if !gpu && !b.onCPU {
				toHost(b)
				p.Wait(cpuQ.EnqueueWriteBuffer(b.cpu, b.host))
				b.onCPU = true
			}
		}

		for _, l := range app.Launches {
			ki := info.Kernels[l.Kernel]
			total := l.ND.TotalGroups()
			g := total * gpuPct / 100
			if g < 1 {
				g = 1
			}
			if g > total-1 {
				g = total - 1
			}

			// Move inputs where they are needed.
			for i, param := range ki.Kernel.Params {
				if !param.Ty.Ptr {
					continue
				}
				b := bufs[l.Args[i].Name]
				acc := ki.ParamAccess[param.Name]
				if acc.Read || acc.Written {
					ensure(b, true)
					ensure(b, false)
				}
			}

			// Scratch for merging the CPU half into the GPU buffers.
			type scr struct {
				b             *sbuf
				orig, cpuCopy *ocl.Buffer
			}
			var scrs []scr
			for _, name := range writtenBufNames(ki, l) {
				b := bufs[name]
				s := scr{b: b, orig: gpuCtx.CreateBuffer(b.size), cpuCopy: gpuCtx.CreateBuffer(b.size)}
				gpuQ.EnqueueCopyBuffer(b.gpu, s.orig)
				scrs = append(scrs, s)
			}

			gk := gpuProg.MustKernel(l.Kernel)
			ck := cpuProg.MustKernel(l.Kernel)
			gArgs := guardedArgs(l, bufs, true, 0, g-1)
			cArgs := guardedArgs(l, bufs, false, g, total-1)
			gEv, gRes := gpuQ.EnqueueNDRangeKernel(gk, l.ND.Slice(0, g-1), gArgs, ocl.LaunchOpts{})
			cEv, cRes := cpuQ.EnqueueNDRangeKernel(ck, l.ND.Slice(g, total-1), cArgs, ocl.LaunchOpts{Split: true})
			p.WaitAll(gEv, cEv)
			if gRes.Err != nil {
				fail(gRes.Err)
				return
			}
			if cRes.Err != nil {
				fail(cRes.Err)
				return
			}

			// Ship the CPU half over and merge on the GPU.
			for _, s := range scrs {
				staging := make([]byte, s.b.size)
				p.Wait(cpuQ.EnqueueReadBuffer(s.b.cpu, staging))
				p.Wait(gpuQ.EnqueueWriteBuffer(s.cpuCopy, staging))
				words := s.b.size / 4
				local := 64
				global := ((words + local - 1) / local) * local
				ev, mr := gpuQ.EnqueueNDRangeKernel(mergeK, vm.NewNDRange1D(global, local),
					[]ocl.Arg{ocl.BufArg(s.cpuCopy), ocl.BufArg(s.b.gpu), ocl.BufArg(s.orig), ocl.IntArg(int64(words)), ocl.IntArg(0)},
					ocl.LaunchOpts{})
				p.Wait(ev)
				if mr.Err != nil {
					fail(mr.Err)
					return
				}
				s.b.onGPU = true
				s.b.onCPU = false
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
		return nil, fmt.Errorf("sched: static run of %s did not complete", app.Name)
	}
	res.Summary = env.Meter.Summary()
	return res, nil
}

// buildGuarded applies the range-guard transform to every kernel and
// returns the transformed source plus the original-source analysis.
func buildGuarded(src string) (string, *clc.ProgramInfo, error) {
	orig, err := clc.Parse(src)
	if err != nil {
		return "", nil, err
	}
	info, err := clc.Check(orig)
	if err != nil {
		return "", nil, err
	}
	ast, err := clc.Parse(src)
	if err != nil {
		return "", nil, err
	}
	for _, k := range ast.Kernels {
		if err := passes.TransformCPU(k); err != nil {
			return "", nil, err
		}
	}
	return clc.Print(ast), info, nil
}

func writtenBufNames(ki *clc.KernelInfo, l Launch) []string {
	var out []string
	for i, param := range ki.Kernel.Params {
		if param.Ty.Ptr && ki.ParamAccess[param.Name].Written {
			out = append(out, l.Args[i].Name)
		}
	}
	return out
}

// sbuf is a statically-partitioned buffer: one copy per device plus a host
// shadow with location flags.
type sbuf struct {
	size     int
	cpu, gpu *ocl.Buffer
	host     []byte
	onCPU    bool
	onGPU    bool
}

// guardedArgs binds a launch's args for one device and appends the
// flattened-range guard parameters.
func guardedArgs(l Launch, bufs map[string]*sbuf, gpu bool, lo, hi int) []ocl.Arg {
	args := make([]ocl.Arg, 0, len(l.Args)+2)
	for _, a := range l.Args {
		switch a.Kind {
		case ArgBuf:
			b := bufs[a.Name]
			if gpu {
				args = append(args, ocl.BufArg(b.gpu))
			} else {
				args = append(args, ocl.BufArg(b.cpu))
			}
		case ArgInt:
			args = append(args, ocl.IntArg(a.I))
		default:
			args = append(args, ocl.FloatArg(a.F))
		}
	}
	return append(args, ocl.IntArg(int64(lo)), ocl.IntArg(int64(hi)))
}

// OracleResult is one static-sweep outcome.
type OracleResult struct {
	BestPct int
	Best    *Result
	Curve   map[int]sim.Time // gpuPct -> total time
}

// RunOracle sweeps static partitions from 0% to 100% GPU in steps of 10 and
// returns the best (the paper's OracleSP, §9.1).
func RunOracle(m Machine, app *App) (*OracleResult, error) {
	or := &OracleResult{Curve: map[int]sim.Time{}, BestPct: -1}
	for pct := 0; pct <= 100; pct += 10 {
		r, err := RunStatic(m, app, pct)
		if err != nil {
			return nil, err
		}
		or.Curve[pct] = r.Time
		if or.Best == nil || r.Time < or.Best.Time {
			or.Best = r
			or.BestPct = pct
		}
	}
	return or, nil
}
