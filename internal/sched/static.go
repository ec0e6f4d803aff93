package sched

import (
	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/passes"
	"fluidicl/internal/sim"
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

// Sweep is the record that the runs of one app share: per launch, one
// device.LaunchRecord for the range-guarded kernel its static splits launch,
// and one plain record for the app's own kernel, which CPU-only and GPU-only
// (the 0 % and 100 % splits) and SOCL launch over the whole grid. Every run
// that computes the reference result starts each launch from the same bytes,
// so a work-group executes on the first run that reaches it, and a later run
// replays its Stats and stored words instead (DESIGN.md §3, "One execution
// per group across a static sweep"). Runs may be concurrent. The record
// holds what its runs executed, so whoever times a sweep makes a fresh one.
type Sweep struct {
	app  *App
	recs [][2]device.LaunchRecord // per launch: guarded, plain
}

// NewSweep returns an empty record for runs of app.
func NewSweep(app *App) *Sweep {
	s := &Sweep{app: app, recs: make([][2]device.LaunchRecord, len(app.Launches))}
	for i := range s.recs {
		s.recs[i][1].Plain = true
	}
	return s
}

// record returns launch li's plain or guarded record; none without a sweep.
func (s *Sweep) record(li int, plain bool) *device.LaunchRecord {
	if s == nil {
		return nil
	}
	if plain {
		return &s.recs[li][1]
	}
	return &s.recs[li][0]
}

// RunStatic is RunStatic(m, app, gpuPct) for the sweep's app, sharing the
// sweep's record; its result is the same.
func (s *Sweep) RunStatic(m Machine, gpuPct int) (*Result, error) {
	return runStatic(m, s.app, gpuPct, s)
}

// RunSocl is RunSocl(m, app, policy, model) for the sweep's app, sharing
// the sweep's record; its result is the same.
func (s *Sweep) RunSocl(m Machine, policy Policy, model DmdaModel) (*Result, error) {
	return runSocl(m, s.app, policy, model, s)
}

func runStatic(m Machine, app *App, gpuPct int, sw *Sweep) (*Result, error) {
	if gpuPct <= 0 {
		return runSingle(m.CPU, app, sw)
	}
	if gpuPct >= 100 {
		return runSingle(m.GPU, app, sw)
	}

	env := sim.NewEnv()
	d := newPair(env, m, app)
	defer recycle(d.all...)
	// Guarded program: a range-guard transform on both devices lets each
	// execute an arbitrary flattened work-group interval. Asked for with a
	// default FluidiCL run's options, it is the same pipeline entry as that
	// run's, so a table that runs both transforms the app once.
	tp, err := passes.Transform(app.Source, core.Options{}.GPUOptions())
	if err != nil {
		return nil, err
	}
	cpuProg, err := d.cpuCtx.BuildProgram(tp.GuardedSrc)
	if err != nil {
		return nil, err
	}
	gpuProg, err := d.gpuCtx.BuildProgram(tp.GuardedSrc)
	if err != nil {
		return nil, err
	}

	return drive(env, app, 1, "static", steps{
		write: func(p *sim.Proc, name string, data []byte) {
			b := d.bufs[name] // data never changes: both devices share it
			p.WaitAll(d.cpuQ.EnqueueWriteBuffer(b.cpu, data), d.gpuQ.EnqueueWriteBuffer(b.gpu, data))
			b.onCPU, b.onGPU = true, true
		},
		launch: func(p *sim.Proc, li int, l Launch) error {
			ki := tp.Info.Kernels[l.Kernel]
			total := l.ND.TotalGroups()
			g := min(max(total*gpuPct/100, 1), total-1)
			d.ensureArgs(p, ki, l, true, false)
			written := writtenBufNames(ki, l)
			for _, name := range written { // the merge's pre-kernel original
				d.gpuQ.EnqueueCopyBuffer(d.bufs[name].gpu, d.bufs[name].orig)
			}

			rec := sw.record(li, false)
			gArgs := d.args(l, true, ocl.IntArg(0), ocl.IntArg(int64(g-1)))
			cArgs := d.args(l, false, ocl.IntArg(int64(g)), ocl.IntArg(int64(total-1)))
			gEv, gRes := d.gpuQ.EnqueueNDRangeKernel(gpuProg.MustKernel(l.Kernel), l.ND.Slice(0, g-1), gArgs, ocl.LaunchOpts{Record: rec})
			cEv, cRes := d.cpuQ.EnqueueNDRangeKernel(cpuProg.MustKernel(l.Kernel), l.ND.Slice(g, total-1), cArgs, ocl.LaunchOpts{Split: true, Record: rec})
			p.WaitAll(gEv, cEv)
			if gRes.Err != nil {
				return gRes.Err
			}
			if cRes.Err != nil {
				return cRes.Err
			}

			// Ship the CPU half over through the host shadow, which holds
			// nothing current while a device copy does, and merge on the GPU.
			// cpuCopy shares the shadow's storage until the next ship.
			for _, name := range written {
				b := d.bufs[name]
				p.Wait(d.cpuQ.EnqueueReadBuffer(b.cpu, b.host.Own(false)))
				p.Wait(d.gpuQ.EnqueueWriteBuffer(b.cpuCopy, b.host.Bytes()))
				ev, mr := d.gpuQ.EnqueueMerge(b.cpuCopy, b.gpu, b.orig, 0, b.size/4)
				p.Wait(ev)
				if mr.Err != nil {
					return mr.Err
				}
				b.only(true)
			}
			return nil
		},
		read: d.readOut,
	})
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
