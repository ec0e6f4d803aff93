package harness

import (
	"fmt"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
)

// Runner executes experiments on one simulated machine.
type Runner struct {
	M sched.Machine
	// Quick shrinks workloads (used by the Go benchmark harness so each
	// testing.B iteration stays fast). Full-size runs are the default.
	Quick bool
	// Parallel caps how many table cells run concurrently. Each cell is a
	// complete, independent simulation (its own sim.Env), so running them
	// side by side changes nothing about any cell's virtual times or
	// outputs. 0 means GOMAXPROCS; 1 recovers the fully sequential runner.
	Parallel int

	// memo holds every simulation this Runner's cells have run (memo.go).
	memo cellMemo
}

// NewRunner creates a Runner on the paper's machine (§8).
func NewRunner() *Runner { return &Runner{M: sched.DefaultMachine()} }

// benchmarks returns the six Table 2 benchmarks at the active scale: the
// sizes of polybench.All, or of the first six of polybench.AllQuick.
func (r *Runner) benchmarks() []*polybench.Benchmark {
	names := []string{"2MM", "BICG", "CORR", "GESUMMV", "SYRK", "SYR2K"}
	sizes := []int{128, 768, 160, 768, 128, 128}
	if r.Quick {
		sizes = []int{48, 192, 64, 192, 64, 48}
	}
	out := make([]*polybench.Benchmark, len(names))
	for i, name := range names {
		out[i] = r.bench(name, sizes[i])
	}
	return out
}

func (r *Runner) syrkSizes() []int {
	if r.Quick {
		return []int{32, 48, 64}
	}
	// Sizes start where the work-group count exceeds the GPU's residency
	// (below that, every work-group is in flight from the start and
	// cooperative execution cannot shorten the GPU's critical path).
	return []int{96, 128, 160, 192, 224}
}

// verify checks a run's outputs against the reference.
func verify(b *polybench.Benchmark, res *sched.Result, err error) (*sched.Result, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		return nil, err
	}
	return res, nil
}

// single is b's CPU-only or GPU-only run on the Runner's machine.
func (r *Runner) single(b *polybench.Benchmark, gpu bool) (*sched.Result, error) {
	if gpu {
		return r.static(r.M, b, 100)
	}
	return r.static(r.M, b, 0)
}

// fluidicl is b's FluidiCL run on the Runner's machine.
func (r *Runner) fluidicl(b *polybench.Benchmark, opts core.Options) (*sched.Result, error) {
	return r.cell(cellKey{b: b, m: r.M, fluidicl: true, opts: opts})
}

// ---- Figure 2: static work-allocation curves for 2MM and SYRK ----

// Fig2 reproduces Figure 2: normalized execution time of 2MM and SYRK as
// the percentage of work allocated to the GPU varies (static splits).
func (r *Runner) Fig2() (*Table, error) {
	benches := []*polybench.Benchmark{r.bench("2MM", 96), r.bench("SYRK", 128)}
	if r.Quick {
		benches = []*polybench.Benchmark{r.bench("2MM", 48), r.bench("SYRK", 64)}
	}
	t := &Table{
		ID:    "fig2",
		Title: "Normalized execution time vs GPU work allocation (2MM, SYRK)",
		Note: "Static splits, x% of work-groups on the GPU; each curve normalized to its own best.\n" +
			"Paper shape: 2MM is best at 100% GPU; SYRK is best with a mixed split.",
		Columns: []string{"GPU%", "2MM", "SYRK"},
	}
	const nPct = 11
	times := make([][]sim.Time, len(benches))
	for i := range times {
		times[i] = make([]sim.Time, nPct)
	}
	err := r.cells(len(benches)*nPct, func(c int) error {
		i, j := c/nPct, c%nPct
		res, err := r.static(r.M, benches[i], j*10)
		if err != nil {
			return err
		}
		times[i][j] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	mins := make([]sim.Time, len(benches))
	for i := range benches {
		for _, tm := range times[i] {
			if mins[i] == 0 || tm < mins[i] {
				mins[i] = tm
			}
		}
	}
	for j := 0; j < nPct; j++ {
		t.AddRow(fmt.Sprintf("%d", j*10),
			f2(times[0][j]/mins[0]),
			f2(times[1][j]/mins[1]))
	}
	return t, nil
}

// Fig3 reproduces Figure 3: SYRK's best static split shifts with input size.
func (r *Runner) Fig3() (*Table, error) {
	small, large := r.bench("SYRK", 64), r.bench("SYRK", 192)
	if r.Quick {
		small, large = r.bench("SYRK", 48), r.bench("SYRK", 80)
	}
	t := &Table{
		ID:    "fig3",
		Title: "SYRK static allocation curves for two input sizes",
		Note: "Each curve normalized to its own best split.\n" +
			"Paper shape: the best-performing split differs between the two input sizes.",
		Columns: []string{"GPU%", "SYRK(" + small.InputDesc + ")", "SYRK(" + large.InputDesc + ")"},
	}
	const nPct = 11
	benches := []*polybench.Benchmark{small, large}
	var times [2][nPct]sim.Time
	err := r.cells(len(benches)*nPct, func(c int) error {
		i, j := c/nPct, c%nPct
		res, err := r.static(r.M, benches[i], j*10)
		if err != nil {
			return err
		}
		times[i][j] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	mins := [2]sim.Time{}
	for i := range benches {
		for _, tm := range times[i] {
			if mins[i] == 0 || tm < mins[i] {
				mins[i] = tm
			}
		}
	}
	for j := 0; j < nPct; j++ {
		t.AddRow(fmt.Sprintf("%d", j*10), f2(times[0][j]/mins[0]), f2(times[1][j]/mins[1]))
	}
	return t, nil
}

// Table1 reproduces Table 1: BICG's two kernels prefer different devices.
func (r *Runner) Table1() (*Table, error) {
	b := r.bench("BICG", 768)
	if r.Quick {
		b = r.bench("BICG", 192)
	}
	var devRes [2]*sched.Result
	err := r.cells(2, func(i int) error {
		res, err := r.single(b, i == 1)
		devRes[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	cpuRes, gpuRes := devRes[0], devRes[1]
	t := &Table{
		ID:    "table1",
		Title: "Kernel running times for BICG (ms)",
		Note: "Paper shape: each of BICG's two kernels runs faster on a different device.\n" +
			"Input " + b.InputDesc + ".",
		Columns: []string{"Kernel", "CPU Only", "GPU Only", "Faster"},
	}
	for i, l := range b.App.Launches {
		faster := "CPU"
		if gpuRes.LaunchTimes[i] < cpuRes.LaunchTimes[i] {
			faster = "GPU"
		}
		t.AddRow(l.Kernel, ms(cpuRes.LaunchTimes[i]), ms(gpuRes.LaunchTimes[i]), faster)
	}
	return t, nil
}

// Table2 reproduces Table 2: the benchmark inventory.
func (r *Runner) Table2() (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Benchmarks used in this work",
		Note:    "Sizes scaled down from the paper's (kernels execute on an interpreter).",
		Columns: []string{"Benchmark", "Input Size", "Kernels", "Work-groups"},
	}
	for _, b := range r.benchmarks() {
		wgs := ""
		for i, l := range b.App.Launches {
			if i > 0 {
				wgs += ", "
			}
			wgs += fmt.Sprintf("%d", l.ND.TotalGroups())
		}
		t.AddRow(b.Name, b.InputDesc, fmt.Sprintf("%d", len(b.App.Launches)), wgs)
	}
	return t, nil
}

// Overall reproduces the §9.1 overall-performance figure: CPU-only,
// GPU-only, FluidiCL and OracleSP per benchmark, normalized to the better
// single device, plus the geomean and headline speedups.
func (r *Runner) Overall() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Overall performance of FluidiCL (normalized to best single device)",
		Columns: []string{"Benchmark", "CPU", "GPU", "FluidiCL", "OracleSP"},
	}
	var nCPU, nGPU, nFCL, nOSP []float64
	var vsGPU, vsCPU, vsBest []float64
	benches := r.benchmarks()
	// Four cells per benchmark: cpu, gpu, fluidicl, oracle. The oracle sweeps
	// the memo's static splits, so its 0 % and 100 % points are the cpu and
	// gpu cells' runs.
	rs := make([][4]*sched.Result, len(benches))
	err := r.cells(len(benches)*4, func(c int) error {
		i, k := c/4, c%4
		b := benches[i]
		var res *sched.Result
		var err error
		switch k {
		case 0:
			res, err = r.single(b, false)
		case 1:
			res, err = r.single(b, true)
		case 2:
			res, err = r.fluidicl(b, core.Options{})
		default:
			var or *sched.OracleResult
			or, err = sched.SweepOracle(func(gpuPct int) (*sched.Result, error) { return r.static(r.M, b, gpuPct) })
			if err != nil {
				return err
			}
			res = or.Best
		}
		rs[i][k] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		cpuRes, gpuRes, fclRes, oraRes := rs[i][0], rs[i][1], rs[i][2], rs[i][3]
		best := minT(cpuRes.Time, gpuRes.Time)
		t.AddRow(b.Name,
			f2(cpuRes.Time/best), f2(gpuRes.Time/best),
			f2(fclRes.Time/best), f2(oraRes.Time/best))
		nCPU = append(nCPU, cpuRes.Time/best)
		nGPU = append(nGPU, gpuRes.Time/best)
		nFCL = append(nFCL, fclRes.Time/best)
		nOSP = append(nOSP, oraRes.Time/best)
		vsGPU = append(vsGPU, gpuRes.Time/fclRes.Time)
		vsCPU = append(vsCPU, cpuRes.Time/fclRes.Time)
		vsBest = append(vsBest, best/fclRes.Time)
	}
	t.AddRow("GeoMean", f2(geomean(nCPU)), f2(geomean(nGPU)), f2(geomean(nFCL)), f2(geomean(nOSP)))
	t.Note = fmt.Sprintf(
		"FluidiCL geomean speedup: %.2fx over GPU-only, %.2fx over CPU-only, %.2fx over the best device.\n"+
			"Paper: 1.64x over GPU, 1.88x over CPU, 1.04x over the best; within ~3%% of the best device everywhere.",
		geomean(vsGPU), geomean(vsCPU), geomean(vsBest))
	return t, nil
}

// Fig14 reproduces §9.2: SYRK across input sizes.
func (r *Runner) Fig14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "SYRK across input sizes (normalized to best single device)",
		Note:    "Paper shape: FluidiCL beats both single devices at every size (geomean ~1.4x over the best).",
		Columns: []string{"Input", "CPU", "GPU", "FluidiCL"},
	}
	var nCPU, nGPU, nFCL []float64
	sizes := r.syrkSizes()
	benches := make([]*polybench.Benchmark, len(sizes))
	for i, sz := range sizes {
		benches[i] = r.bench("SYRK", sz)
	}
	rs := make([][3]*sched.Result, len(benches))
	err := r.cells(len(benches)*3, func(c int) error {
		i, k := c/3, c%3
		b := benches[i]
		var res *sched.Result
		var err error
		switch k {
		case 0:
			res, err = r.single(b, false)
		case 1:
			res, err = r.single(b, true)
		default:
			res, err = r.fluidicl(b, core.Options{})
		}
		rs[i][k] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		cpuRes, gpuRes, fclRes := rs[i][0], rs[i][1], rs[i][2]
		best := minT(cpuRes.Time, gpuRes.Time)
		t.AddRow(b.InputDesc, f2(cpuRes.Time/best), f2(gpuRes.Time/best), f2(fclRes.Time/best))
		nCPU = append(nCPU, cpuRes.Time/best)
		nGPU = append(nGPU, gpuRes.Time/best)
		nFCL = append(nFCL, fclRes.Time/best)
	}
	t.AddRow("GeoMean", f2(geomean(nCPU)), f2(geomean(nGPU)), f2(geomean(nFCL)))
	return t, nil
}

// Fig15 reproduces §9.3: the effect of in-loop work-group aborts and loop
// unrolling, normalized to the all-optimizations configuration.
func (r *Runner) Fig15() (*Table, error) {
	t := &Table{
		ID:    "fig15",
		Title: "Effect of work-group abort in loops and loop unrolling (normalized to AllOpt)",
		Note: "NoAbortUnroll: abort checks only at work-group entry. NoUnroll: checks inside\n" +
			"loops every iteration. AllOpt: in-loop checks amortized by unrolling.\n" +
			"Paper shape: NoAbortUnroll and NoUnroll are both slower than AllOpt on most benchmarks.",
		Columns: []string{"Benchmark", "NoAbortUnroll", "NoUnroll", "AllOpt"},
	}
	var a, bcol, c []float64
	benches := r.benchmarks()
	optCfgs := []core.Options{{NoAbortInLoops: true}, {NoUnroll: true}, {}}
	rs := make([][3]*sched.Result, len(benches))
	err := r.cells(len(benches)*3, func(cell int) error {
		i, k := cell/3, cell%3
		res, err := r.fluidicl(benches[i], optCfgs[k])
		rs[i][k] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		noAbort, noUnroll, allOpt := rs[i][0], rs[i][1], rs[i][2]
		t.AddRow(b.Name,
			f2(noAbort.Time/allOpt.Time), f2(noUnroll.Time/allOpt.Time), f2(1.0))
		a = append(a, noAbort.Time/allOpt.Time)
		bcol = append(bcol, noUnroll.Time/allOpt.Time)
		c = append(c, 1.0)
	}
	t.AddRow("GeoMean", f2(geomean(a)), f2(geomean(bcol)), f2(geomean(c)))
	return t, nil
}

// Table3 reproduces §9.3's Table 3: online profiling picks the
// hand-optimized CPU kernel for CORR.
func (r *Runner) Table3() (*Table, error) {
	n := 128
	if r.Quick {
		n = 64
	}
	plain := r.bench("CORR", n)
	var rs [4]*sched.Result
	err := r.cells(4, func(k int) error {
		var res *sched.Result
		var err error
		switch k {
		case 0:
			res, err = r.single(plain, true)
		case 1:
			res, err = r.single(plain, false)
		case 2:
			res, err = r.fluidicl(plain, core.Options{})
		default:
			// Two runs in one runtime; the first (excluded per §8's
			// methodology) is when online profiling identifies the better
			// CPU kernel. Never memoized: the variant is a different app
			// from plain CORR.
			vb := polybench.CorrWithVariant(n, n)
			res, err = sched.RunFluidiCLRepeat(r.M, vb.App, core.Options{OnlineProfiling: true}, 2)
			res, err = verify(vb, res, err)
		}
		rs[k] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	gpuRes, cpuRes, fcl, fclPro := rs[0], rs[1], rs[2], rs[3]
	t := &Table{
		ID:    "table3",
		Title: "CORR with a choice of CPU kernels (ms)",
		Note: "FCL+Pro adds a loop-interchanged CPU kernel and online profiling (§6.6);\n" +
			"measured on the second run, as the paper's methodology excludes the first (§8).\n" +
			"Paper shape: FCL+Pro outperforms plain FluidiCL by using the better CPU kernel.",
		Columns: []string{"GPU", "CPU", "FluidiCL", "FCL+Pro"},
	}
	t.AddRow(ms(gpuRes.Time), ms(cpuRes.Time), ms(fcl.Time), ms(fclPro.Time))
	return t, nil
}

// Fig16 reproduces §9.4: comparison with the SOCL/StarPU schedulers.
func (r *Runner) Fig16() (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Comparison with SOCL (normalized to best single device)",
		Columns: []string{"Benchmark", "CPU", "GPU", "SOCLDefault", "SOCLdmda", "FluidiCL"},
	}
	var nEager, nDmda, nFCL []float64
	var fclVsEager, fclVsDmda []float64
	benches := r.benchmarks()
	// Five cells per benchmark; dmda calibration and its measured run form
	// one cell, as the model feeds the run. The calibration is the cpu and
	// gpu cells' runs.
	rs := make([][5]*sched.Result, len(benches))
	err := r.cells(len(benches)*5, func(c int) error {
		i, k := c/5, c%5
		b := benches[i]
		var res *sched.Result
		var err error
		switch k {
		case 0:
			res, err = r.single(b, false)
		case 1:
			res, err = r.single(b, true)
		case 2:
			res, err = sched.RunSocl(r.M, b.App, sched.Eager, nil)
			res, err = verify(b, res, err)
		case 3:
			var cpu, gpu *sched.Result
			var model sched.DmdaModel
			if cpu, err = r.single(b, false); err != nil {
				return err
			}
			if gpu, err = r.single(b, true); err != nil {
				return err
			}
			if model, err = sched.FitDmda(b.App, cpu, gpu); err != nil {
				return err
			}
			res, err = sched.RunSocl(r.M, b.App, sched.Dmda, model)
			res, err = verify(b, res, err)
		default:
			res, err = r.fluidicl(b, core.Options{})
		}
		rs[i][k] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		cpuRes, gpuRes, eager, dmda, fcl := rs[i][0], rs[i][1], rs[i][2], rs[i][3], rs[i][4]
		best := minT(cpuRes.Time, gpuRes.Time)
		t.AddRow(b.Name,
			f2(cpuRes.Time/best), f2(gpuRes.Time/best),
			f2(eager.Time/best), f2(dmda.Time/best), f2(fcl.Time/best))
		nEager = append(nEager, eager.Time/best)
		nDmda = append(nDmda, dmda.Time/best)
		nFCL = append(nFCL, fcl.Time/best)
		fclVsEager = append(fclVsEager, eager.Time/fcl.Time)
		fclVsDmda = append(fclVsDmda, dmda.Time/fcl.Time)
	}
	t.AddRow("GeoMean", "", "", f2(geomean(nEager)), f2(geomean(nDmda)), f2(geomean(nFCL)))
	t.Note = fmt.Sprintf(
		"FluidiCL vs SOCL-eager: %.2fx; vs SOCL-dmda: %.2fx (geomean; no calibration needed).\n"+
			"Paper: 2.67x over the eager scheduler, 1.26x over calibrated dmda.",
		geomean(fclVsEager), geomean(fclVsDmda))
	return t, nil
}

// Fig17 reproduces §9.5: sensitivity to the initial chunk size.
func (r *Runner) Fig17() (*Table, error) {
	chunks := []float64{2, 5, 10, 25, 50, 75}
	cols := []string{"Benchmark"}
	for _, c := range chunks {
		cols = append(cols, fmt.Sprintf("%.0f%%", c))
	}
	t := &Table{
		ID:    "fig17",
		Title: "Sensitivity to initial chunk size (normalized to 2%)",
		Note: "Step size fixed at 2%. Paper shape: large initial chunks hurt benchmarks that\n" +
			"need cooperative execution; the chosen 2% is within a few % of the best everywhere.",
		Columns: cols,
	}
	benches := r.benchmarks()
	nc := len(chunks)
	times := make([][]sim.Time, len(benches))
	for i := range times {
		times[i] = make([]sim.Time, nc)
	}
	err := r.cells(len(benches)*nc, func(c int) error {
		i, j := c/nc, c%nc
		res, err := r.fluidicl(benches[i], core.Options{InitialChunkPct: chunks[j]})
		if err != nil {
			return err
		}
		times[i][j] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		base := times[i][0]
		row := []string{b.Name}
		for _, tm := range times[i] {
			row = append(row, f2(tm/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig18 reproduces §9.5: sensitivity to the adaptive step size.
func (r *Runner) Fig18() (*Table, error) {
	steps := []float64{-1, 1, 2, 5, 9} // -1 encodes a constant chunk (0%)
	cols := []string{"Benchmark", "0%", "1%", "2%", "5%", "9%"}
	t := &Table{
		ID:    "fig18",
		Title: "Sensitivity to chunk step size (normalized to 2%)",
		Note: "Initial chunk 2%; 0% means the allocation never grows.\n" +
			"Paper shape: the chosen 2% step is within ~10% of the best in most cases.",
		Columns: cols,
	}
	benches := r.benchmarks()
	ns := len(steps)
	times := make([][]sim.Time, len(benches))
	for i := range times {
		times[i] = make([]sim.Time, ns)
	}
	err := r.cells(len(benches)*ns, func(c int) error {
		i, j := c/ns, c%ns
		res, err := r.fluidicl(benches[i], core.Options{StepPct: steps[j]})
		if err != nil {
			return err
		}
		times[i][j] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		base := times[i][2] // the 2% column
		row := []string{b.Name}
		for _, tm := range times[i] {
			row = append(row, f2(tm/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExperimentIDs are the paper's artifacts in paper order.
var ExperimentIDs = []string{
	"fig2", "fig3", "table1", "table2", "fig13", "fig14", "fig15", "table3", "fig16", "fig17", "fig18",
}

// ExtraExperimentIDs are additional experiments beyond the paper's
// artifacts (design-choice ablations, machine portability).
var ExtraExperimentIDs = []string{"ablation", "portability"}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Table, error) {
	switch id {
	case "fig2":
		return r.Fig2()
	case "fig3":
		return r.Fig3()
	case "table1":
		return r.Table1()
	case "table2":
		return r.Table2()
	case "fig13", "overall":
		return r.Overall()
	case "fig14", "inputs":
		return r.Fig14()
	case "fig15", "opts":
		return r.Fig15()
	case "table3", "profiling":
		return r.Table3()
	case "fig16", "socl":
		return r.Fig16()
	case "fig17", "chunk":
		return r.Fig17()
	case "fig18", "step":
		return r.Fig18()
	case "ablation":
		return r.Ablation()
	case "portability":
		return r.Portability()
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// All runs every experiment: the paper's artifacts in paper order, then the
// extra experiments.
func (r *Runner) All() ([]*Table, error) {
	var out []*Table
	for _, id := range append(append([]string{}, ExperimentIDs...), ExtraExperimentIDs...) {
		t, err := r.Run(id)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Ablation is not a paper artifact: it isolates FluidiCL design choices the
// paper describes but does not plot — CPU work-group splitting (§6.3) and
// adaptive chunk growth (§5.1) — alongside the §6.4 aborts, normalized to
// the full configuration.
func (r *Runner) Ablation() (*Table, error) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Full", core.Options{}},
		{"NoSplit", core.Options{NoWorkGroupSplit: true}},
		{"ConstChunk", core.Options{StepPct: -1}},
		{"NoLoopAborts", core.Options{NoAbortInLoops: true}},
	}
	cols := []string{"Benchmark"}
	for _, c := range configs {
		cols = append(cols, c.name)
	}
	t := &Table{
		ID:      "ablation",
		Title:   "FluidiCL design-choice ablations (normalized to the full configuration)",
		Note:    "Not a paper artifact; isolates §6.3 work-group splitting, §5.1 adaptive growth\nand §6.4 in-loop aborts.",
		Columns: cols,
	}
	gms := make([][]float64, len(configs))
	benches := r.benchmarks()
	nc := len(configs)
	times := make([][]sim.Time, len(benches))
	for i := range times {
		times[i] = make([]sim.Time, nc)
	}
	err := r.cells(len(benches)*nc, func(c int) error {
		i, j := c/nc, c%nc
		res, err := r.fluidicl(benches[i], configs[j].opts)
		if err != nil {
			return err
		}
		times[i][j] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := []string{b.Name}
		base := times[i][0]
		for j := range configs {
			row = append(row, f2(times[i][j]/base))
			gms[j] = append(gms[j], times[i][j]/base)
		}
		t.AddRow(row...)
	}
	gmRow := []string{"GeoMean"}
	for i := range configs {
		gmRow = append(gmRow, f2(geomean(gms[i])))
	}
	t.AddRow(gmRow...)
	return t, nil
}

// Portability exercises the paper's claim that FluidiCL "is completely
// portable across different machines" and "does not require prior training
// or profiling": the same untouched runtime configuration runs the suite on
// three simulated machines with very different CPU/GPU balances, and on
// each one FluidiCL must track (or beat) the better single device.
func (r *Runner) Portability() (*Table, error) {
	machines := []struct {
		name string
		m    sched.Machine
	}{
		{"C2070+W3550", sched.Machine{CPU: device.XeonW3550(), GPU: device.TeslaC2070()}},
		{"GT440+W3550", sched.Machine{CPU: device.XeonW3550(), GPU: device.GT440()}},
		{"C2070+2xX5570", sched.Machine{CPU: device.XeonDual(), GPU: device.TeslaC2070()}},
	}
	t := &Table{
		ID:    "portability",
		Title: "Portability across machines (FluidiCL geomean vs best single device)",
		Note: "Not a paper artifact; tests the paper's portability claim. The same runtime\n" +
			"defaults run on three machines with very different device balances.",
		Columns: []string{"Machine", "CPU", "GPU", "FluidiCL"},
	}
	benches := r.benchmarks()
	nb := len(benches)
	// One flat cell per (machine, benchmark, strategy).
	rs := make([][3]*sched.Result, len(machines)*nb)
	err := r.cells(len(machines)*nb*3, func(c int) error {
		mi, rest := c/(nb*3), c%(nb*3)
		bi, k := rest/3, rest%3
		m, b := machines[mi].m, benches[bi]
		var res *sched.Result
		var err error
		switch k {
		case 0:
			res, err = r.static(m, b, 0)
		case 1:
			res, err = r.static(m, b, 100)
		default:
			res, err = r.cell(cellKey{b: b, m: m, fluidicl: true})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", machines[mi].name, err)
		}
		rs[mi*nb+bi][k] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mc := range machines {
		var nCPU, nGPU, nFCL []float64
		for bi := range benches {
			cell := rs[mi*nb+bi]
			best := minT(cell[0].Time, cell[1].Time)
			nCPU = append(nCPU, cell[0].Time/best)
			nGPU = append(nGPU, cell[1].Time/best)
			nFCL = append(nFCL, cell[2].Time/best)
		}
		t.AddRow(mc.name, f2(geomean(nCPU)), f2(geomean(nGPU)), f2(geomean(nFCL)))
	}
	return t, nil
}
