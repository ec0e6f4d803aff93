package harness

import (
	"fmt"
	"slices"

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

// strategy runs benchmark b one way on machine m: one column of a grid.
// Single-device runs, static splits and FluidiCL runs come from the Runner's
// cell memo (memo.go), so every table that asks for one shares its run; the
// oracle sweeps the memo's splits, and dmda calibrates on its single-device
// runs. SOCL cells are not memoized, but their groups replay (r.sweep).
type strategy func(r *Runner, m sched.Machine, b *polybench.Benchmark) (*sched.Result, error)

// split runs pct percent of every kernel's work-groups on the GPU.
func split(pct int) strategy {
	return func(r *Runner, m sched.Machine, b *polybench.Benchmark) (*sched.Result, error) {
		return r.static(m, b, pct)
	}
}

// cpuOnly and gpuOnly are the vendor-runtime baselines: the 0 % and 100 %
// splits.
var cpuOnly, gpuOnly = split(0), split(100)

// fcl runs FluidiCL with opts.
func fcl(opts core.Options) strategy {
	return func(r *Runner, m sched.Machine, b *polybench.Benchmark) (*sched.Result, error) {
		return r.cell(cellKey{b: b, m: m, fluidicl: true, opts: opts})
	}
}

// oracle is OracleSP: the best static split in steps of 10 %.
func oracle(r *Runner, m sched.Machine, b *polybench.Benchmark) (*sched.Result, error) {
	or, err := sched.SweepOracle(func(pct int) (*sched.Result, error) { return r.static(m, b, pct) })
	if err != nil {
		return nil, err
	}
	return or.Best, nil
}

// soclEager is the SOCL scheduler's default policy.
func soclEager(r *Runner, m sched.Machine, b *polybench.Benchmark) (*sched.Result, error) {
	res, err := r.sweep(b).RunSocl(m, sched.Eager, nil)
	return verify(b, res, err)
}

// soclDmda is SOCL's dmda policy. Its calibration and its measured run form
// one cell, as the model feeds the run.
func soclDmda(r *Runner, m sched.Machine, b *polybench.Benchmark) (*sched.Result, error) {
	cpu, err := cpuOnly(r, m, b)
	if err != nil {
		return nil, err
	}
	gpu, err := gpuOnly(r, m, b)
	if err != nil {
		return nil, err
	}
	model, err := sched.FitDmda(b.App, cpu, gpu)
	if err != nil {
		return nil, err
	}
	res, err := r.sweep(b).RunSocl(m, sched.Dmda, model)
	return verify(b, res, err)
}

// on runs s on machine m, whatever machine its grid runs on.
func on(m sched.Machine, s strategy) strategy {
	return func(r *Runner, _ sched.Machine, b *polybench.Benchmark) (*sched.Result, error) { return s(r, m, b) }
}

// grid runs every strategy on every benchmark on the Runner's machine, one
// cell each, and returns the results by benchmark, then strategy. It adds
// the FluidiCL runs no table has counted yet to t's tally in slot order, not
// in the order cells finish, so the float sums do not depend on -parallel.
func (r *Runner) grid(t *Table, benches []*polybench.Benchmark, strats ...strategy) ([][]*sched.Result, error) {
	rs := make([][]*sched.Result, len(benches))
	for i := range rs {
		rs[i] = make([]*sched.Result, len(strats))
	}
	err := r.cells(len(benches)*len(strats), func(c int) error {
		i, k := c/len(strats), c%len(strats)
		var err error
		rs[i][k], err = strats[k](r, r.M, benches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, res := range slices.Concat(rs...) {
		if res.Reports == nil { // not a FluidiCL run
			continue
		}
		if _, seen := r.memo.counted.LoadOrStore(res, true); !seen {
			t.Runs++
			t.Counters = t.Counters.Add(res.Counters)
			t.Summary.Add(res.Summary)
		}
	}
	return rs, nil
}

// Ratio bases and GeoMean rows for addRatios.
const (
	bestSingle = -1 // base: the better of a row's first two columns, CPU-only and GPU-only
	noGeoMean  = -1 // geo: no GeoMean row
)

// ratios divides each row's times by the row's base column's time, or with
// bestSingle by the better single device's, and returns them by column.
func ratios(rs [][]*sched.Result, base int) [][]float64 {
	cols := make([][]float64, len(rs[0]))
	for _, row := range rs {
		var d sim.Time
		if base == bestSingle {
			d = min(row[0].Time, row[1].Time)
		} else {
			d = row[base].Time
		}
		for k, res := range row {
			cols[k] = append(cols[k], res.Time/d)
		}
	}
	return cols
}

// addRatios writes one row per label: the label, then that row's ratios to
// base. Unless geo is noGeoMean, a GeoMean row follows, blank in the columns
// before geo.
func (t *Table) addRatios(labels []string, rs [][]*sched.Result, base, geo int) {
	cols := ratios(rs, base)
	for i, label := range labels {
		row := []string{label}
		for _, col := range cols {
			row = append(row, f2(col[i]))
		}
		t.AddRow(row...)
	}
	if geo == noGeoMean {
		return
	}
	row := []string{"GeoMean"}
	for k, col := range cols {
		if k < geo {
			row = append(row, "")
		} else {
			row = append(row, f2(geomean(col)))
		}
	}
	t.AddRow(row...)
}

func names(benches []*polybench.Benchmark) []string {
	out := make([]string, len(benches))
	for i, b := range benches {
		out[i] = b.Name
	}
	return out
}

// staticCurves fills t with a row per 10 % GPU split: each benchmark's
// static time at that split over its own best split's.
func (r *Runner) staticCurves(t *Table, benches ...*polybench.Benchmark) (*Table, error) {
	var splits []strategy
	for pct := 0; pct <= 100; pct += 10 {
		splits = append(splits, split(pct))
	}
	rs, err := r.grid(t, benches, splits...)
	if err != nil {
		return nil, err
	}
	for j := range splits {
		row := []string{fmt.Sprintf("%d", j*10)}
		for _, curve := range rs {
			best := curve[0].Time
			for _, res := range curve {
				best = min(best, res.Time)
			}
			row = append(row, f2(curve[j].Time/best))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fclSweep fills t with a row per benchmark: its FluidiCL time under each of
// opts over its time under opts[base], then a GeoMean row unless geo is
// noGeoMean.
func (r *Runner) fclSweep(t *Table, opts []core.Options, base, geo int) (*Table, error) {
	strats := make([]strategy, len(opts))
	for i, o := range opts {
		strats[i] = fcl(o)
	}
	benches := r.benchmarks()
	rs, err := r.grid(t, benches, strats...)
	if err != nil {
		return nil, err
	}
	t.addRatios(names(benches), rs, base, geo)
	return t, nil
}

// ---- Figure 2: static work-allocation curves for 2MM and SYRK ----

// Fig2 reproduces Figure 2: normalized execution time of 2MM and SYRK as
// the percentage of work allocated to the GPU varies (static splits).
func (r *Runner) Fig2() (*Table, error) {
	benches := []*polybench.Benchmark{r.bench("2MM", 96), r.bench("SYRK", 128)}
	if r.Quick {
		benches = []*polybench.Benchmark{r.bench("2MM", 48), r.bench("SYRK", 64)}
	}
	return r.staticCurves(&Table{
		ID:    "fig2",
		Title: "Normalized execution time vs GPU work allocation (2MM, SYRK)",
		Note: "Static splits, x% of work-groups on the GPU; each curve normalized to its own best.\n" +
			"Paper shape: 2MM is best at 100% GPU; SYRK is best with a mixed split.",
		Columns: []string{"GPU%", "2MM", "SYRK"},
	}, benches...)
}

// Fig3 reproduces Figure 3: SYRK's best static split shifts with input size.
func (r *Runner) Fig3() (*Table, error) {
	small, large := r.bench("SYRK", 64), r.bench("SYRK", 192)
	if r.Quick {
		small, large = r.bench("SYRK", 48), r.bench("SYRK", 80)
	}
	return r.staticCurves(&Table{
		ID:    "fig3",
		Title: "SYRK static allocation curves for two input sizes",
		Note: "Each curve normalized to its own best split.\n" +
			"Paper shape: the best-performing split differs between the two input sizes.",
		Columns: []string{"GPU%", "SYRK(" + small.InputDesc + ")", "SYRK(" + large.InputDesc + ")"},
	}, small, large)
}

// Table1 reproduces Table 1: BICG's two kernels prefer different devices.
func (r *Runner) Table1() (*Table, error) {
	b := r.bench("BICG", 768)
	if r.Quick {
		b = r.bench("BICG", 192)
	}
	t := &Table{
		ID:    "table1",
		Title: "Kernel running times for BICG (ms)",
		Note: "Paper shape: each of BICG's two kernels runs faster on a different device.\n" +
			"Input " + b.InputDesc + ".",
		Columns: []string{"Kernel", "CPU Only", "GPU Only", "Faster"},
	}
	rs, err := r.grid(t, []*polybench.Benchmark{b}, cpuOnly, gpuOnly)
	if err != nil {
		return nil, err
	}
	cpuRes, gpuRes := rs[0][0], rs[0][1]
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
	benches := r.benchmarks()
	t := &Table{
		ID:      "fig13",
		Title:   "Overall performance of FluidiCL (normalized to best single device)",
		Columns: []string{"Benchmark", "CPU", "GPU", "FluidiCL", "OracleSP"},
	}
	rs, err := r.grid(t, benches, cpuOnly, gpuOnly, fcl(core.Options{}), oracle)
	if err != nil {
		return nil, err
	}
	t.addRatios(names(benches), rs, bestSingle, 0)
	// Each device's time over FluidiCL's; the better device's is the smaller.
	vs := ratios(rs, 2)
	vsBest := make([]float64, len(benches))
	for i := range vsBest {
		vsBest[i] = min(vs[0][i], vs[1][i])
	}
	t.Note = fmt.Sprintf(
		"FluidiCL geomean speedup: %.2fx over GPU-only, %.2fx over CPU-only, %.2fx over the best device.\n"+
			"Paper: 1.64x over GPU, 1.88x over CPU, 1.04x over the best; within ~3%% of the best device everywhere.",
		geomean(vs[1]), geomean(vs[0]), geomean(vsBest))
	return t, nil
}

// Fig14 reproduces §9.2: SYRK across input sizes.
func (r *Runner) Fig14() (*Table, error) {
	sizes := r.syrkSizes()
	benches := make([]*polybench.Benchmark, len(sizes))
	labels := make([]string, len(sizes))
	for i, sz := range sizes {
		benches[i] = r.bench("SYRK", sz)
		labels[i] = benches[i].InputDesc
	}
	t := &Table{
		ID:      "fig14",
		Title:   "SYRK across input sizes (normalized to best single device)",
		Note:    "Paper shape: FluidiCL beats both single devices at every size (geomean ~1.4x over the best).",
		Columns: []string{"Input", "CPU", "GPU", "FluidiCL"},
	}
	rs, err := r.grid(t, benches, cpuOnly, gpuOnly, fcl(core.Options{}))
	if err != nil {
		return nil, err
	}
	t.addRatios(labels, rs, bestSingle, 0)
	return t, nil
}

// Fig15 reproduces §9.3: the effect of in-loop work-group aborts and loop
// unrolling, normalized to the all-optimizations configuration.
func (r *Runner) Fig15() (*Table, error) {
	return r.fclSweep(&Table{
		ID:    "fig15",
		Title: "Effect of work-group abort in loops and loop unrolling (normalized to AllOpt)",
		Note: "NoAbortUnroll: abort checks only at work-group entry. NoUnroll: checks inside\n" +
			"loops every iteration. AllOpt: in-loop checks amortized by unrolling.\n" +
			"Paper shape: NoAbortUnroll and NoUnroll are both slower than AllOpt on most benchmarks.",
		Columns: []string{"Benchmark", "NoAbortUnroll", "NoUnroll", "AllOpt"},
	}, []core.Options{{NoAbortInLoops: true}, {NoUnroll: true}, {}}, 2, 0)
}

// Table3 reproduces §9.3's Table 3: online profiling picks the
// hand-optimized CPU kernel for CORR.
func (r *Runner) Table3() (*Table, error) {
	n := 128
	if r.Quick {
		n = 64
	}
	// Two runs in one runtime; the first (excluded per §8's methodology) is
	// when online profiling identifies the better CPU kernel. Never
	// memoized: the variant is a different app from plain CORR.
	profiled := func(_ *Runner, m sched.Machine, _ *polybench.Benchmark) (*sched.Result, error) {
		vb := polybench.CorrWithVariant(n, n)
		res, err := sched.RunFluidiCLRepeat(m, vb.App, core.Options{OnlineProfiling: true}, 2)
		return verify(vb, res, err)
	}
	t := &Table{
		ID:    "table3",
		Title: "CORR with a choice of CPU kernels (ms)",
		Note: "FCL+Pro adds a loop-interchanged CPU kernel and online profiling (§6.6);\n" +
			"measured on the second run, as the paper's methodology excludes the first (§8).\n" +
			"Paper shape: FCL+Pro outperforms plain FluidiCL by using the better CPU kernel.",
		Columns: []string{"GPU", "CPU", "FluidiCL", "FCL+Pro"},
	}
	rs, err := r.grid(t, []*polybench.Benchmark{r.bench("CORR", n)}, gpuOnly, cpuOnly, fcl(core.Options{}), profiled)
	if err != nil {
		return nil, err
	}
	t.AddRow(ms(rs[0][0].Time), ms(rs[0][1].Time), ms(rs[0][2].Time), ms(rs[0][3].Time))
	return t, nil
}

// Fig16 reproduces §9.4: comparison with the SOCL/StarPU schedulers.
func (r *Runner) Fig16() (*Table, error) {
	benches := r.benchmarks()
	t := &Table{
		ID:      "fig16",
		Title:   "Comparison with SOCL (normalized to best single device)",
		Columns: []string{"Benchmark", "CPU", "GPU", "SOCLDefault", "SOCLdmda", "FluidiCL"},
	}
	rs, err := r.grid(t, benches, cpuOnly, gpuOnly, soclEager, soclDmda, fcl(core.Options{}))
	if err != nil {
		return nil, err
	}
	t.addRatios(names(benches), rs, bestSingle, 2)
	vs := ratios(rs, 4) // each strategy's time over FluidiCL's
	t.Note = fmt.Sprintf(
		"FluidiCL vs SOCL-eager: %.2fx; vs SOCL-dmda: %.2fx (geomean; no calibration needed).\n"+
			"Paper: 2.67x over the eager scheduler, 1.26x over calibrated dmda.",
		geomean(vs[2]), geomean(vs[3]))
	return t, nil
}

// Fig17 reproduces §9.5: sensitivity to the initial chunk size.
func (r *Runner) Fig17() (*Table, error) {
	cols := []string{"Benchmark"}
	var opts []core.Options
	for _, c := range []float64{2, 5, 10, 25, 50, 75} {
		cols = append(cols, fmt.Sprintf("%.0f%%", c))
		opts = append(opts, core.Options{InitialChunkPct: c})
	}
	return r.fclSweep(&Table{
		ID:    "fig17",
		Title: "Sensitivity to initial chunk size (normalized to 2%)",
		Note: "Step size fixed at 2%. Paper shape: large initial chunks hurt benchmarks that\n" +
			"need cooperative execution; the chosen 2% is within a few % of the best everywhere.",
		Columns: cols,
	}, opts, 0, noGeoMean)
}

// Fig18 reproduces §9.5: sensitivity to the adaptive step size.
func (r *Runner) Fig18() (*Table, error) {
	var opts []core.Options
	for _, s := range []float64{-1, 1, 2, 5, 9} { // -1 encodes a constant chunk (0%)
		opts = append(opts, core.Options{StepPct: s})
	}
	return r.fclSweep(&Table{
		ID:    "fig18",
		Title: "Sensitivity to chunk step size (normalized to 2%)",
		Note: "Initial chunk 2%; 0% means the allocation never grows.\n" +
			"Paper shape: the chosen 2% step is within ~10% of the best in most cases.",
		Columns: []string{"Benchmark", "0%", "1%", "2%", "5%", "9%"},
	}, opts, 2, noGeoMean)
}

// ExperimentIDs are the paper's artifacts in paper order.
var ExperimentIDs = []string{
	"fig2", "fig3", "table1", "table2", "fig13", "fig14", "fig15", "table3", "fig16", "fig17", "fig18",
}

// ExtraExperimentIDs are additional experiments beyond the paper's
// artifacts (design-choice ablations, machine portability).
var ExtraExperimentIDs = []string{"ablation", "portability"}

// experiments maps every experiment ID, and the paper artifacts' aliases, to
// its table.
var experiments = map[string]func(*Runner) (*Table, error){
	"fig2": (*Runner).Fig2, "fig3": (*Runner).Fig3,
	"table1": (*Runner).Table1, "table2": (*Runner).Table2,
	"fig13": (*Runner).Overall, "overall": (*Runner).Overall,
	"fig14": (*Runner).Fig14, "inputs": (*Runner).Fig14,
	"fig15": (*Runner).Fig15, "opts": (*Runner).Fig15,
	"table3": (*Runner).Table3, "profiling": (*Runner).Table3,
	"fig16": (*Runner).Fig16, "socl": (*Runner).Fig16,
	"fig17": (*Runner).Fig17, "chunk": (*Runner).Fig17,
	"fig18": (*Runner).Fig18, "step": (*Runner).Fig18,
	"ablation": (*Runner).Ablation, "portability": (*Runner).Portability,
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Table, error) {
	if run := experiments[id]; run != nil {
		return run(r)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// Ablation is not a paper artifact: it isolates FluidiCL design choices the
// paper describes but does not plot — CPU work-group splitting (§6.3) and
// adaptive chunk growth (§5.1) — alongside the §6.4 aborts, normalized to
// the full configuration.
func (r *Runner) Ablation() (*Table, error) {
	return r.fclSweep(&Table{
		ID:      "ablation",
		Title:   "FluidiCL design-choice ablations (normalized to the full configuration)",
		Note:    "Not a paper artifact; isolates §6.3 work-group splitting, §5.1 adaptive growth\nand §6.4 in-loop aborts.",
		Columns: []string{"Benchmark", "Full", "NoSplit", "ConstChunk", "NoLoopAborts"},
	}, []core.Options{{}, {NoWorkGroupSplit: true}, {StepPct: -1}, {NoAbortInLoops: true}}, 0, 0)
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
	for _, mc := range machines {
		rs, err := r.grid(t, r.benchmarks(), on(mc.m, cpuOnly), on(mc.m, gpuOnly), on(mc.m, fcl(core.Options{})))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.name, err)
		}
		cols := ratios(rs, bestSingle)
		t.AddRow(mc.name, f2(geomean(cols[0])), f2(geomean(cols[1])), f2(geomean(cols[2])))
	}
	return t, nil
}
