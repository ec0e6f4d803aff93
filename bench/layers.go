package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/passes"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// TraceRecord is what the tracing child reports: the per-layer metrics and
// the spans they were computed from.
type TraceRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []Span             `json:"spans"`
	Checks
}

// traceIters is how many untraced and how many traced body iterations the
// traced run compares.
const traceIters = 2

// paperQuickExperiments is the paper-quick body, replayed by every traced
// run for the harness.* figures.
var paperQuickExperiments = []string{"fig13", "fig16", "table3"}

// Trace is the body of the tracing child: it runs the workload untraced and
// traced (Part A), then replays its sources and launches through one layer
// at a time (Part B). Everything is observed from outside the program.
func Trace(w *Workload, seed uint64) TraceRecord {
	rec := TraceRecord{Workload: w.Name, Seed: seed, Metrics: map[string]float64{}}
	m, chk, t := rec.Metrics, &rec.Checks, NewTracer()
	lr := &layerRun{t: t, m: m, chk: chk, cor: newCorrector()}
	configureVM(w)

	m["polybench.construct_s"] = lr.time("polybench.construct", func() { lr.in = w.Instance(seed) })
	in := lr.in

	// Part A. The untraced body is the reference; the traced body is the
	// same work with spans: for cooperative runs the replica of sched's host
	// program, for experiments the harness calls. The two alternate, so that
	// pools and heap warming up over the iterations favour neither.
	warm := in.Iterate(chk, nil)
	coop := warm.Results
	if coop == nil {
		coop = in.runCoop(chk, nil).Results
	}
	simulatedMetrics(m, coop)
	var untraced, traced []float64
	var rt goRuntime
	from, scale := 0, 1.0
	for i := 0; i < traceIters; i++ {
		rt.start()
		it := in.Iterate(chk, lr.cor.add)
		rt.stop()
		_, corrected := lr.cor.take()
		untraced = append(untraced, corrected)
		if it.Sig != warm.Sig {
			chk.fail("untraced iteration %d: outputs differ from the warm-up iteration", i)
		}

		from = len(t.Spans()) + 1
		if len(in.Experiments) > 0 {
			it := runExperiments(in.Experiments, t, chk, lr.cor.add)
			if it.Sig != warm.Sig {
				chk.fail("traced iteration %d: tables differ from the untraced ones", i)
			}
		} else {
			replicaPass(t, in, coop, chk, lr.cor.add)
		}
		var raw float64
		raw, corrected = lr.cor.take()
		traced = append(traced, corrected)
		scale = corrected / raw
	}
	rt.report(m, traceIters)
	m["bench.trace_overhead_frac"] = Median(traced)/Median(untraced) - 1
	// Span sums of the last traced iteration, scaled to corrected seconds;
	// then one pass of the other kind of body for its spans.
	if len(in.Experiments) > 0 {
		harnessMetrics(m, t, from, scale)
		from = len(t.Spans()) + 1
		replicaPass(t, in, coop, chk, lr.cor.add)
		raw, corrected := lr.cor.take()
		replicaMetrics(m, t, from, corrected/raw)
	} else {
		replicaMetrics(m, t, from, scale)
		from = len(t.Spans()) + 1
		vm.SetBackend(vm.BackendAuto) // the experiments run on the process default
		runExperiments(paperQuickExperiments, t, chk, lr.cor.add)
		raw, corrected := lr.cor.take()
		harnessMetrics(m, t, from, corrected/raw)
	}

	// Part B: one layer at a time. The scheduler replay, like the
	// experiments, runs on the process default; the rest on the wg engine.
	vm.SetBackend(vm.BackendAuto)
	lr.schedulers()
	vm.SetBackend(vm.BackendWG)
	lr.frontEnd()
	lr.footprints()
	lr.builds()
	lr.vmExec()
	lr.devices()
	lr.runtimes()
	lr.simLoop()

	mean, std := meanStd(lr.cor.calib)
	m["bench.calib_ms"] = mean * 1e3
	m["bench.calib_cv"] = std / mean
	rec.Spans = t.Spans()
	return rec
}

// goRuntime accumulates the Go runtime's cost over the untraced iterations.
type goRuntime struct {
	ms0                       runtime.MemStats
	cpu0                      float64
	cpu                       float64
	gcs, pauseNs, mallocCount uint64
}

func (g *goRuntime) start() {
	runtime.ReadMemStats(&g.ms0)
	g.cpu0 = cpuSeconds()
}

func (g *goRuntime) stop() {
	g.cpu += cpuSeconds() - g.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.gcs += uint64(ms.NumGC - g.ms0.NumGC)
	g.pauseNs += ms.PauseTotalNs - g.ms0.PauseTotalNs
	g.mallocCount += ms.Mallocs - g.ms0.Mallocs
}

func (g *goRuntime) report(m map[string]float64, iters float64) {
	m["go.cpu_s"] = g.cpu / iters // calibration loops inside iterations included
	m["go.gc_count"] = float64(g.gcs) / iters
	m["go.gc_pause_ms"] = float64(g.pauseNs) / 1e6 / iters
	m["go.mallocs"] = float64(g.mallocCount) / iters
}

// replicaPass runs every cooperative run through the replica, asserts each gives exactly what the sched entry point gave (want,
// in Runs order), and tells afterOp each run's host time.
func replicaPass(t *Tracer, in *Instance, want []*sched.Result, chk *Checks, afterOp func(time.Duration)) {
	for i, r := range in.Runs {
		t0 := time.Now()
		res, err := Replica(t, r)
		if afterOp != nil {
			afterOp(time.Since(t0))
		}
		chk.Attempted++
		switch {
		case err != nil:
			chk.fail("replica of %s: %v", r.Name(), err)
		case want[i] == nil:
			chk.fail("replica of %s: nothing to compare with, the sched run failed", r.Name())
		case res.Time != want[i].Time || hashResult(res) != hashResult(want[i]):
			chk.fail("replica of %s: simulated time %v or outputs differ from sched's %v", r.Name(), res.Time, want[i].Time)
		}
	}
}

// replicaMetrics sums the replica's spans from span id `from` on; scale turns
// raw into drift-corrected seconds.
func replicaMetrics(m map[string]float64, t *Tracer, from int, scale float64) {
	m["core.enqueue_kernel_s"] = scale * t.Total(spanEnqueue, from)
	m["core.write_s"] = scale * t.Total(spanWrite, from)
	m["core.read_s"] = scale * t.Total(spanRead, from)
	m["polybench.verify_s"] = scale * t.Total(spanVerify, from)
}

func harnessMetrics(m map[string]float64, t *Tracer, from int, scale float64) {
	for _, id := range paperQuickExperiments {
		m["harness."+id+"_s"] = scale * t.Total("harness."+id, from)
	}
}

// simulatedMetrics reports the simulated outcome of the cooperative runs:
// exact, and identical unless the simulated behaviour changes.
func simulatedMetrics(m map[string]float64, results []*sched.Result) {
	var virt float64
	var sub, aborted, total int
	var ctr core.Counters
	var sum trace.Summary
	for _, res := range results {
		if res == nil {
			return // counted as failed where it ran
		}
		virt += res.Time
		for _, rep := range res.Reports {
			sub += rep.Subkernels
			aborted += rep.GPUAborted
			total += rep.TotalWGs
		}
		c := res.Counters
		ctr.ShipBytesSkipped += c.ShipBytesSkipped
		ctr.MergeWordsElided += c.MergeWordsElided
		ctr.UploadsSkipped += c.UploadsSkipped
		ctr.PrimeCopiesElided += c.PrimeCopiesElided
		ctr.RefreshDeltas += c.RefreshDeltas
		ctr.RefreshBytesSkipped += c.RefreshBytesSkipped
		sum.Add(res.Summary)
	}
	m["core.virt_ms"] = virt * 1e3
	m["core.subkernels"] = float64(sub)
	m["core.gpu_aborted_wgs"] = float64(aborted)
	m["core.wasted_wg_frac"] = float64(aborted) / float64(total)
	m["core.ship_bytes_skipped"] = float64(ctr.ShipBytesSkipped)
	m["core.merge_words_elided"] = float64(ctr.MergeWordsElided)
	m["core.uploads_skipped"] = float64(ctr.UploadsSkipped)
	m["core.prime_copies_elided"] = float64(ctr.PrimeCopiesElided)
	m["core.refresh_deltas"] = float64(ctr.RefreshDeltas)
	m["core.refresh_bytes_skipped"] = float64(ctr.RefreshBytesSkipped)
	cpu, gpu := sum.ByKind("CPU"), sum.ByKind("GPU")
	m["trace.cpu_busy_ms"] = cpu.Busy * 1e3
	m["trace.gpu_busy_ms"] = gpu.Busy * 1e3
	m["trace.overlap_frac"] = sum.OverlapFrac()
	m["trace.link_busy_ms"] = (cpu.LinkBusy + gpu.LinkBusy) * 1e3
	m["trace.bytes_h2d"] = float64(cpu.BytesH2D + gpu.BytesH2D)
	m["trace.bytes_d2h"] = float64(cpu.BytesD2H + gpu.BytesD2H)
	m["trace.bytes_refresh"] = float64(cpu.BytesRefresh + gpu.BytesRefresh)
}

// layerRun is the state of the traced run's measurements.
type layerRun struct {
	t     *Tracer
	m     map[string]float64
	in    *Instance
	chk   *Checks
	cor   *corrector
	nonce int
	// execS is vm.exec_s per app, for the ratios of the runtimes over it.
	execS map[string]float64
}

// time runs fn inside a span and returns its duration in drift-corrected
// seconds, the unit of the end-to-end timings: a calibration loop follows
// every measurement.
func (lr *layerRun) time(span string, fn func()) float64 {
	lr.cor.addSeconds(lr.t.Time(span, fn))
	_, corrected := lr.cor.take()
	return corrected
}

// check records a replay that could not run; its metric stays unset, which
// the result reports as a failure.
func (lr *layerRun) check(what string, err error) bool {
	if err != nil {
		lr.chk.fail("layer replay %s: %v", what, err)
	}
	return err == nil
}

// unique makes a source no build cache has seen.
func (lr *layerRun) unique(src string) string {
	lr.nonce++
	return "// flbench " + strconv.Itoa(lr.nonce) + "\n" + src
}

// sources are the distinct sources of the workload's apps, in app order.
func (lr *layerRun) sources() []string {
	var srcs []string
	seen := map[string]bool{}
	for _, app := range lr.in.Apps {
		if !seen[app.App.Source] {
			seen[app.App.Source] = true
			srcs = append(srcs, app.App.Source)
		}
	}
	return srcs
}

// medianOf runs fn reps times and returns the median of what it returns.
func medianOf(reps int, fn func() float64) float64 {
	vals := make([]float64, reps)
	for i := range vals {
		vals[i] = fn()
	}
	return Median(vals)
}

// frontEnd replays the compile pipeline of core.BuildProgram one stage at a
// time: lex, parse, check, analyze, transform, compile to bytecode.
func (lr *layerRun) frontEnd() {
	const reps = 5
	m := lr.m
	srcs := lr.sources()
	ok := true
	note := func(what string, err error) { ok = lr.check(what, err) && ok }
	parseAll := func(list []string) []*clc.Program {
		progs := make([]*clc.Program, 0, len(list))
		for _, src := range list {
			p, err := clc.Parse(src)
			note("clc.Parse", err)
			if err == nil {
				progs = append(progs, p)
			}
		}
		return progs
	}
	nbytes := 0
	for _, src := range srcs {
		nbytes += len(src)
	}
	m["clc.src_bytes"] = float64(nbytes)
	lex := medianOf(reps, func() float64 {
		return lr.time("clc.LexAll", func() {
			for _, src := range srcs {
				_, err := clc.LexAll(src)
				note("clc.LexAll", err)
			}
		})
	})
	parse := medianOf(reps, func() float64 {
		return lr.time("clc.Parse", func() { parseAll(srcs) })
	})
	sema := medianOf(reps, func() float64 {
		progs := parseAll(srcs)
		return lr.time("clc.Check", func() {
			for _, p := range progs {
				_, err := clc.Check(p)
				note("clc.Check", err)
			}
		})
	})
	summary := medianOf(reps, func() float64 {
		return lr.time("analysis.AnalyzeSource", func() {
			for _, src := range srcs {
				_, err := analysis.AnalyzeSource(src, "")
				note("analysis.AnalyzeSource", err)
			}
		})
	})
	// The transforms core.BuildProgram applies with default options.
	gopt := passes.GPUOptions{AbortInLoops: true, Unroll: true, UnrollFactor: 4}
	var transformed []string
	loopChecks := 0
	transform := medianOf(reps, func() float64 {
		gpu, cpu := parseAll(srcs), parseAll(srcs)
		sums := make([]*analysis.ProgramSummary, len(gpu))
		for i, p := range gpu {
			sums[i] = analysis.AnalyzeProgram(p, "")
		}
		loopChecks = 0
		d := lr.time("passes.Transform", func() {
			for i := range gpu {
				for _, k := range gpu[i].Kernels {
					n, err := passes.TransformGPU(k, gopt)
					note("passes.TransformGPU", err)
					loopChecks += n
				}
				for _, k := range cpu[i].Kernels {
					note("passes.TransformCPU", passes.TransformCPUWithSummary(k, sums[i].Kernels[k.Name]))
				}
			}
		})
		transformed = transformed[:0]
		for i := range gpu {
			transformed = append(transformed, clc.Print(gpu[i]), clc.Print(cpu[i]))
		}
		return d
	})
	before := vm.BackendSnapshot()
	var after vm.BackendCounters
	counted := false // the instruction counts are those of the first pass
	compile := medianOf(reps, func() float64 {
		var infos []*clc.KernelInfo
		for _, p := range parseAll(transformed) {
			pi, err := clc.Check(p)
			note("clc.Check (transformed)", err)
			if err != nil {
				continue
			}
			for _, k := range p.Kernels {
				infos = append(infos, pi.Kernels[k.Name])
			}
		}
		d := lr.time("vm.Compile", func() {
			for _, ki := range infos {
				_, err := vm.Compile(ki)
				note("vm.Compile", err)
			}
		})
		if !counted {
			after, counted = vm.BackendSnapshot(), true
		}
		return d
	})
	if !ok {
		return
	}
	m["clc.lex_s"], m["clc.parse_s"], m["clc.sema_s"] = lex, parse, sema
	m["analysis.summary_s"] = summary
	m["passes.transform_s"], m["passes.loop_checks"] = transform, float64(loopChecks)
	m["vm.compile_s"] = compile
	m["vm.compile_instrs"] = float64(after.TotalInstrs - before.TotalInstrs)
	m["vm.fused_frac"] = float64(after.FusedInstrs-before.FusedInstrs) / float64(after.TotalInstrs-before.TotalInstrs)
	fused := after.WGFusedSteps - before.WGFusedSteps
	m["vm.wg_fuse_cov"] = float64(fused) / float64(fused+after.WGFuseFallbackSteps-before.WGFuseFallbackSteps)
}

func launchShape(nd vm.NDRange) analysis.LaunchShape {
	sh := analysis.LaunchShape{Dims: nd.Dims}
	for d := 0; d < 3; d++ {
		sh.Local[d] = int64(nd.LocalSize[d])
		sh.NumGroups[d] = int64(nd.NumGroups[d])
		sh.Count[d] = int64(nd.NumGroups[d])
	}
	return sh
}

// footprints replays the launch-time queries on the static summaries, once
// per launch with its shape and scalar arguments: EvalArgWrites for every
// written buffer the transfer planner asks about (core.planElisions skips
// 1-D slot-exact write-only arguments and incompletely summarized ones) and
// the work-group disjointness certificate of the wg engine's admission.
func (lr *layerRun) footprints() {
	const planBudget, certBudget = 1 << 20, 1 << 22 // core's and vm's budgets
	var queries []func()
	for _, app := range lr.in.Apps {
		sum, err := analysis.AnalyzeSource(app.App.Source, "")
		if !lr.check("analysis.AnalyzeSource", err) {
			return
		}
		for _, l := range app.App.Launches {
			ks := sum.Kernels[l.Kernel]
			if ks == nil {
				lr.check("footprints", fmt.Errorf("%s: no summary for kernel %q", app.Name, l.Kernel))
				return
			}
			sh := launchShape(l.ND)
			params := make([]int64, len(l.Args))
			for i, a := range l.Args {
				if a.Kind == sched.ArgInt {
					params[i] = a.I
				}
			}
			for i := range ks.Args {
				sa := &ks.Args[i]
				if sa.Space != clc.SpaceGlobal || !sa.Written || sa.Index >= len(l.Args) ||
					l.Args[sa.Index].Kind != sched.ArgBuf {
					continue
				}
				if (l.ND.Dims == 1 && sa.WriteOnly() && sa.SlotExact) || !sa.WritesComplete() {
					continue
				}
				idx, words := ks.ArgIndex(sa.Name), int64(app.App.Buffers[l.Args[sa.Index].Name]/4)
				queries = append(queries, func() { ks.EvalArgWrites(idx, sh, params, words, planBudget) })
			}
			queries = append(queries, func() { ks.CertifyGroupDisjoint(sh, params, certBudget) })
		}
	}
	lr.m["analysis.footprint_calls"] = float64(len(queries))
	lr.m["analysis.footprint_s"] = medianOf(3, func() float64 {
		return lr.time("analysis.footprints", func() {
			for _, q := range queries {
				q()
			}
		})
	})
}

// builds replays program builds through ocl and core, cold (a source no
// cache has seen) and, for ocl, repeated; and the workload's buffer traffic
// through one ocl command queue.
func (lr *layerRun) builds() {
	const reps = 3
	m := lr.m
	srcs := lr.sources()
	ok := true
	env := sim.NewEnv()
	mach := sched.DefaultMachine()
	ctx := ocl.NewContext(env, device.New(env, mach.GPU))
	var fresh []string
	cold := medianOf(reps, func() float64 {
		fresh = fresh[:0]
		for _, src := range srcs {
			fresh = append(fresh, lr.unique(src))
		}
		return lr.time("ocl.BuildProgram cold", func() {
			for _, src := range fresh {
				_, err := ctx.BuildProgram(src)
				ok = lr.check("ocl.BuildProgram", err) && ok
			}
		})
	})
	hit := medianOf(reps, func() float64 {
		return lr.time("ocl.BuildProgram hit", func() {
			for _, src := range fresh {
				_, err := ctx.BuildProgram(src)
				ok = lr.check("ocl.BuildProgram", err) && ok
			}
		})
	})
	rt, err := core.New(env, device.New(env, mach.CPU), device.New(env, mach.GPU), core.Options{})
	if !lr.check("core.New", err) {
		return
	}
	coreCold := medianOf(reps, func() float64 {
		fresh = fresh[:0]
		for _, src := range srcs {
			fresh = append(fresh, lr.unique(src))
		}
		return lr.time("core.BuildProgram cold", func() {
			for _, src := range fresh {
				_, err := rt.BuildProgram(src)
				ok = lr.check("core.BuildProgram", err) && ok
			}
		})
	})
	if !ok {
		return
	}
	m["ocl.build_cold_s"], m["ocl.build_hit_s"], m["core.build_s"] = cold, hit, coreCold

	m["ocl.xfer_s"] = medianOf(reps, func() float64 {
		env := sim.NewEnv()
		ctx := ocl.NewContext(env, device.New(env, mach.GPU))
		q := ctx.CreateQueue("xfer")
		env.Go("xfer", func(p *sim.Proc) {
			for _, app := range lr.in.Apps {
				for _, name := range sortedKeys(app.App.Buffers) {
					b := ctx.CreateBuffer(app.App.Buffers[name])
					q.EnqueueWriteBuffer(b, inputOrZero(app.App, name))
					p.Wait(q.EnqueueReadBuffer(b, make([]byte, app.App.Buffers[name])))
				}
			}
		})
		return lr.time("ocl write+read", env.Run)
	})
}

// hostLaunch is one launch bound to plain host memory.
type hostLaunch struct {
	k    *vm.Kernel
	nd   vm.NDRange
	args []vm.Arg
}

// bindHost compiles the app's original kernels and binds its launches to
// fresh host buffers holding the inputs.
func bindHost(app *polybench.Benchmark) ([]hostLaunch, map[string][]byte, error) {
	prog, err := clc.Parse(app.App.Source)
	if err != nil {
		return nil, nil, err
	}
	info, err := clc.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	bufs := map[string][]byte{}
	for name, size := range app.App.Buffers {
		bufs[name] = make([]byte, size)
		copy(bufs[name], app.App.Inputs[name])
	}
	kernels := map[string]*vm.Kernel{}
	var launches []hostLaunch
	for _, l := range app.App.Launches {
		if kernels[l.Kernel] == nil {
			ki := info.Kernels[l.Kernel]
			if ki == nil {
				return nil, nil, fmt.Errorf("%s: kernel %q not in its source", app.Name, l.Kernel)
			}
			if kernels[l.Kernel], err = vm.Compile(ki); err != nil {
				return nil, nil, err
			}
		}
		args := make([]vm.Arg, len(l.Args))
		for i, a := range l.Args {
			switch a.Kind {
			case sched.ArgBuf:
				args[i] = vm.BufArg(bufs[a.Name])
			case sched.ArgInt:
				args[i] = vm.IntArg(a.I)
			default:
				args[i] = vm.FloatArg(a.F)
			}
		}
		launches = append(launches, hostLaunch{kernels[l.Kernel], l.ND, args})
	}
	return launches, bufs, nil
}

// execApps runs every launch of every app, in program order, straight
// through Kernel.ExecLaunch on host buffers, and verifies the outputs. It
// returns the seconds per app and the summed dynamic stats.
func (lr *layerRun) execApps(span string, backend vm.Backend, workers int) (map[string]float64, vm.Stats, bool) {
	vm.SetWorkers(workers)
	defer vm.SetWorkers(1)
	perApp := map[string]float64{}
	var stats vm.Stats
	id := lr.t.Begin(span)
	defer lr.t.End(id)
	for _, app := range lr.in.Apps {
		launches, bufs, err := bindHost(app)
		if !lr.check(span, err) {
			return nil, stats, false
		}
		perApp[app.Name] = lr.time(span+" "+app.Name, func() {
			for _, l := range launches {
				var st vm.Stats
				if st, err = l.k.ExecLaunch(l.nd, l.args, vm.ExecOpts{Backend: backend}); err != nil {
					return
				}
				stats.Add(st)
			}
		})
		if err == nil {
			err = app.Verify(bufs)
		}
		lr.chk.Attempted++
		if !lr.check(span+" "+app.Name, err) {
			return nil, stats, false
		}
	}
	return perApp, stats, true
}

func sumValues(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum
}

// vmExec measures the VM alone: the wg engine at one worker (three passes,
// per-app medians), the other engines, and the worker pool.
func (lr *layerRun) vmExec() {
	m := lr.m
	before := vm.BackendSnapshot()
	var passes []map[string]float64
	var stats vm.Stats
	for i := 0; i < 3; i++ {
		perApp, st, ok := lr.execApps("vm.ExecLaunch wg", vm.BackendWG, 1)
		if !ok {
			return
		}
		passes, stats = append(passes, perApp), st
	}
	after := vm.BackendSnapshot()
	lr.execS = map[string]float64{}
	for _, app := range lr.in.Apps {
		lr.execS[app.Name] = Median([]float64{passes[0][app.Name], passes[1][app.Name], passes[2][app.Name]})
	}
	execS := sumValues(lr.execS)
	ops := stats.IntOps + stats.FloatOps + stats.SpecialOps + stats.Branches + stats.GlobalLoads + stats.GlobalStores
	m["vm.exec_s"] = execS
	m["vm.exec_ops"] = float64(ops)
	m["vm.ns_per_op"] = execS * 1e9 / float64(ops)
	m["vm.exec_wgs"] = float64(stats.WorkGroups)
	m["vm.wg_fallback_wgs"] = float64(after.WGFallbackWGs-before.WGFallbackWGs) / 3
	m["vm.wg_strided_wgs"] = float64(after.WGStridedWGs-before.WGStridedWGs) / 3
	if perApp, _, ok := lr.execApps("vm.ExecLaunch closure", vm.BackendClosure, 1); ok {
		m["vm.exec_closure_s"] = sumValues(perApp)
	}
	if perApp, _, ok := lr.execApps("vm.ExecLaunch interp", vm.BackendInterp, 1); ok {
		m["vm.exec_interp_s"] = sumValues(perApp)
	}
	if perApp, _, ok := lr.execApps("vm.ExecLaunch wg pool", vm.BackendWG, runtime.NumCPU()); ok {
		m["vm.pool_speedup"] = execS / sumValues(perApp)
	}
}

// timeRuns runs fn for every app (skipping those in skip), verifies the
// outputs, and returns the seconds spent and the vm.exec_s of the same apps.
func (lr *layerRun) timeRuns(span string, skip map[string]bool, fn func(app *polybench.Benchmark) (*sched.Result, error)) (secs, vmSecs float64, ok bool) {
	id := lr.t.Begin(span)
	defer lr.t.End(id)
	for _, app := range lr.in.Apps {
		if skip[app.Name] {
			continue
		}
		var res *sched.Result
		var err error
		secs += lr.time(span+" "+app.Name, func() { res, err = fn(app) })
		vmSecs += lr.execS[app.Name]
		if err == nil {
			err = app.Verify(res.Outputs)
		}
		lr.chk.Attempted++
		if !lr.check(span+" "+app.Name, err) {
			return 0, 0, false
		}
	}
	return secs, vmSecs, true
}

// devices runs each app on one simulated device: the VM plus the device
// cost model, its queue and the event loop.
func (lr *layerRun) devices() {
	mach := sched.DefaultMachine()
	cpu, _, ok := lr.timeRuns("sched.RunSingle cpu", nil, func(app *polybench.Benchmark) (*sched.Result, error) {
		return sched.RunSingle(mach.CPU, app.App)
	})
	if !ok {
		return
	}
	gpu, vmSecs, ok := lr.timeRuns("sched.RunSingle gpu", nil, func(app *polybench.Benchmark) (*sched.Result, error) {
		return sched.RunSingle(mach.GPU, app.App)
	})
	if !ok || lr.execS == nil {
		return
	}
	lr.m["device.single_cpu_s"], lr.m["device.single_gpu_s"] = cpu, gpu
	// The GPU path executes exactly the launches vm.exec_s does (the CPU
	// path may split work-groups), so the difference is the device layer.
	lr.m["device.overhead_s"] = gpu - vmSecs
}

// runtimes runs each app whole through each cooperative runtime, and relates
// the time to the VM time of the same apps.
func (lr *layerRun) runtimes() {
	if lr.execS == nil {
		return
	}
	twin, vmTwin, ok := lr.timeRuns("sched.RunFluidiCL", lr.in.NoTwin, func(app *polybench.Benchmark) (*sched.Result, error) {
		return CoopRun{app, Twin}.Run()
	})
	if ok {
		lr.m["core.twin_s"], lr.m["core.twin_over_vm"] = twin, twin/vmTwin
	}
	nway, vmNway, ok := lr.timeRuns("sched.RunTopology "+NwayTopo, nil, func(app *polybench.Benchmark) (*sched.Result, error) {
		return CoopRun{app, NwayTopo}.Run()
	})
	if ok {
		lr.m["core.nway_s"], lr.m["core.nway_over_vm"] = nway, nway/vmNway
	}
}

// schedulers is a fixed replay: every baseline strategy of package sched,
// once per quick-scale paper app, on the process-default engine.
func (lr *layerRun) schedulers() {
	mach := sched.DefaultMachine()
	apps := quickSix()
	strategies := []struct {
		metric string
		run    func(app *sched.App) error
	}{
		{"sched.single_s", func(app *sched.App) error {
			_, err := sched.RunSingle(mach.CPU, app)
			if err == nil {
				_, err = sched.RunSingle(mach.GPU, app)
			}
			return err
		}},
		{"sched.static_s", func(app *sched.App) error { _, err := sched.RunStatic(mach, app, 50); return err }},
		{"sched.oracle_s", func(app *sched.App) error { _, err := sched.RunOracle(mach, app); return err }},
		{"sched.socl_s", func(app *sched.App) error { _, err := sched.RunSocl(mach, app, sched.Eager, nil); return err }},
		{"sched.dmda_calibrate_s", func(app *sched.App) error { _, err := sched.CalibrateDmda(mach, app); return err }},
	}
	for _, s := range strategies {
		ok := true
		secs := lr.time(s.metric, func() {
			for _, app := range apps {
				lr.chk.Attempted++
				ok = lr.check(s.metric+" "+app.Name, s.run(app.App)) && ok
			}
		})
		if ok {
			lr.m[s.metric] = secs
		}
	}
}

// simLoop is a fixed replay of the event loop alone: timer events (16
// processes sleeping 10 000 times each) and process switches (two processes
// handing 20 000 events back and forth).
func (lr *layerRun) simLoop() {
	const procs, sleeps, rounds = 16, 10000, 20000
	lr.m["sim.events_per_s"] = procs * sleeps / medianOf(3, func() float64 {
		env := sim.NewEnv()
		for i := 0; i < procs; i++ {
			d := 1e-6 * float64(i+1)
			env.Go("sleeper", func(p *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					p.Sleep(d)
				}
			})
		}
		return lr.time("sim.Run sleeps", env.Run)
	})
	lr.m["sim.switch_ns"] = 1e9 / (2 * rounds) * medianOf(3, func() float64 {
		env := sim.NewEnv()
		ping, pong := make([]*sim.Event, rounds), make([]*sim.Event, rounds)
		for i := range ping {
			ping[i], pong[i] = env.NewEvent(), env.NewEvent()
		}
		env.Go("ping", func(p *sim.Proc) {
			for i := range ping {
				ping[i].Fire()
				p.Wait(pong[i])
			}
		})
		env.Go("pong", func(p *sim.Proc) {
			for i := range ping {
				p.Wait(ping[i])
				pong[i].Fire()
			}
		})
		return lr.time("sim.Run ping-pong", env.Run)
	})
}

// RunTraced performs the traced run in one child process, writes its spans
// and metrics to outDir/trace-<workload>.json, and returns the per-layer
// metrics.
func RunTraced(w *Workload, seed uint64, outDir string) (Result, error) {
	var rec TraceRecord
	err := runChild(&rec, "child", "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10), "--trace", "1")
	if err != nil {
		return Result{}, err
	}
	if err := WriteJSON(outDir, "trace-"+w.Name+".json", rec); err != nil {
		return Result{}, err
	}
	return newResult(PerLayer, rec.Metrics, rec.Checks), nil
}
