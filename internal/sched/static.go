package sched

import (
	"fmt"
	"sync"

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
	return runStatic(m, app, gpuPct, nil)
}

// Sweep is the record that the static splits of one app share: one
// device.LaunchRecord per launch. Every split starts each launch from the
// same bytes, so an in-range work-group executes on the first split that
// runs it, and a later split replays its Stats and stored words instead
// (DESIGN.md §3, "One execution per group across a static sweep"). Splits
// may run concurrently. The record holds what its splits executed, so
// whoever times a sweep makes a fresh one.
type Sweep struct {
	app      *App
	launches []device.LaunchRecord
}

// NewSweep returns an empty record for static splits of app.
func NewSweep(app *App) *Sweep {
	return &Sweep{app: app, launches: make([]device.LaunchRecord, len(app.Launches))}
}

// RunStatic is RunStatic(m, app, gpuPct) for the sweep's app, sharing the
// sweep's record; its result is the same.
func (s *Sweep) RunStatic(m Machine, gpuPct int) (*Result, error) {
	return runStatic(m, s.app, gpuPct, s)
}

func runStatic(m Machine, app *App, gpuPct int, sw *Sweep) (*Result, error) {
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
		bufs[name] = &sbuf{size: size, cpu: cpuCtx.CreateBuffer(size), gpu: gpuCtx.CreateBuffer(size)}
	}

	res := &Result{Outputs: map[string][]byte{}}
	var runErr error
	fail := func(err error) { runErr = err }

	env.Go("app", func(p *sim.Proc) {
		for _, name := range bufNames {
			b := bufs[name]
			data := app.input(name) // never changes: both devices share it
			evC := cpuQ.EnqueueWriteBuffer(b.cpu, data)
			evG := gpuQ.EnqueueWriteBuffer(b.gpu, data)
			p.WaitAll(evC, evG)
			b.onCPU, b.onGPU = true, true
		}

		// read copies the canonical device copy into dst. toHost / ensure
		// move it between devices through the host shadow, taken on first
		// use: most buffers are inputs that never pass through the host. The
		// shadow changes, so uploads copy it.
		read := func(b *sbuf, dst []byte) {
			if b.onGPU {
				p.Wait(gpuQ.EnqueueReadBuffer(b.gpu, dst))
			} else {
				p.Wait(cpuQ.EnqueueReadBuffer(b.cpu, dst))
			}
		}
		toHost := func(b *sbuf) {
			if b.host == nil {
				b.host = make([]byte, b.size)
			}
			read(b, b.host)
		}
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

		for li, l := range app.Launches {
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
			var rec *device.LaunchRecord
			if sw != nil {
				rec = &sw.launches[li]
			}
			gEv, gRes := gpuQ.EnqueueNDRangeKernel(gk, l.ND.Slice(0, g-1), gArgs, ocl.LaunchOpts{Record: rec})
			cEv, cRes := cpuQ.EnqueueNDRangeKernel(ck, l.ND.Slice(g, total-1), cArgs, ocl.LaunchOpts{Split: true, Record: rec})
			p.WaitAll(gEv, cEv)
			if gRes.Err != nil {
				fail(gRes.Err)
				return
			}
			if cRes.Err != nil {
				fail(cRes.Err)
				return
			}

			// Ship the CPU half over and merge on the GPU. The buffer's staging
			// slice is handed to this launch's cpuCopy, which is dead once its
			// merge has run, so the next launch reuses it.
			for _, s := range scrs {
				if s.b.staging == nil {
					s.b.staging = make([]byte, s.b.size)
				}
				p.Wait(cpuQ.EnqueueReadBuffer(s.b.cpu, s.b.staging))
				p.Wait(gpuQ.EnqueueWriteBuffer(s.cpuCopy, s.b.staging))
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
			out := make([]byte, b.size)
			read(b, out)
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

// guardCache memoizes buildGuarded by source text, failures included: the
// transform is a pure function of the text, and an oracle sweep asks for the
// same program at every split. Entries are immutable once stored, so one can
// back any number of concurrent runs — the pattern of core's transform cache
// and ocl's compile cache.
var guardCache struct {
	sync.Mutex
	m map[string]*guardEntry
}

type guardEntry struct {
	src  string
	info *clc.ProgramInfo
	err  error
}

// buildGuarded applies the range-guard transform to every kernel and
// returns the transformed source plus the original-source analysis.
func buildGuarded(src string) (string, *clc.ProgramInfo, error) {
	guardCache.Lock()
	defer guardCache.Unlock()
	e, ok := guardCache.m[src]
	if !ok {
		e = &guardEntry{}
		e.src, e.info, e.err = transformGuarded(src)
		if guardCache.m == nil {
			guardCache.m = map[string]*guardEntry{}
		}
		guardCache.m[src] = e
	}
	return e.src, e.info, e.err
}

func transformGuarded(src string) (string, *clc.ProgramInfo, error) {
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
// shadow with location flags, and the slice the CPU half of a written
// buffer is shipped through.
type sbuf struct {
	size          int
	cpu, gpu      *ocl.Buffer
	host, staging []byte
	onCPU         bool
	onGPU         bool
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
	sw := NewSweep(app)
	return SweepOracle(func(gpuPct int) (*Result, error) { return sw.RunStatic(m, gpuPct) })
}

// SweepOracle is RunOracle's sweep over any source of static splits: run
// returns the app's run with gpuPct percent of the work-groups on the GPU,
// as RunStatic does. The first fastest split wins.
func SweepOracle(run func(gpuPct int) (*Result, error)) (*OracleResult, error) {
	or := &OracleResult{Curve: map[int]sim.Time{}, BestPct: -1}
	for pct := 0; pct <= 100; pct += 10 {
		r, err := run(pct)
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
