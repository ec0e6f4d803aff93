package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/harness"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// A Workload is one set of inputs the benchmark runs. Sizes, work units and
// the order of operations are fixed; the seed only picks input values (the
// Polybench apps bring their own fixed inputs, so it moves the stream apps
// alone).
type Workload struct {
	Name string
	Why  string
	// Units is the fixed amount of work in one iteration — NDRange
	// work-groups launched, or experiments for an experiment body:
	// work_per_s is Units divided by the iteration time.
	Units float64
	// Backend is the VM engine the workload selects; BackendAuto leaves the
	// process default, the engine users get.
	Backend vm.Backend
	build   func(seed uint64) *Instance
}

// Twin marks a cooperative run on the paper's twin protocol
// (sched.RunFluidiCL on sched.DefaultMachine); any other value is a
// device.ParseTopology spec run through sched.RunTopology.
const Twin = ""

// NwayTopo is the topology the per-layer N-way figures are taken on.
const NwayTopo = "2cpu+2gpu"

// CoopRun is one cooperative execution of an app.
type CoopRun struct {
	App  *polybench.Benchmark
	Topo string
}

// Name labels the run in errors and spans.
func (r CoopRun) Name() string {
	if r.Topo == Twin {
		return r.App.Name + "@twin"
	}
	return r.App.Name + "@" + r.Topo
}

// Run executes the app through the same public entry point a user calls.
func (r CoopRun) Run() (*sched.Result, error) {
	if r.Topo == Twin {
		return sched.RunFluidiCL(sched.DefaultMachine(), r.App.App, core.Options{})
	}
	topo, err := device.ParseTopology(r.Topo)
	if err != nil {
		return nil, err
	}
	return sched.RunTopology(topo, r.App.App, core.Options{})
}

// Instance is a workload with its inputs and references generated.
type Instance struct {
	// Apps are the distinct applications, each with its bit-exact reference.
	Apps []*polybench.Benchmark
	// Runs are the cooperative executions: the timed body of the coop-* and
	// stream workloads, and for paper-quick the executions behind
	// coop_speedup and the per-layer replays.
	Runs []CoopRun
	// Experiments are harness experiment ids; when set they are the timed
	// body instead of Runs.
	Experiments []string
	// NoTwin names apps the twin protocol cannot run correctly (see README,
	// "twin in-place update"); per-layer twin figures leave them out.
	NoTwin map[string]bool
}

func cross(apps []*polybench.Benchmark, topos ...string) []CoopRun {
	var runs []CoopRun
	for _, t := range topos {
		for _, a := range apps {
			runs = append(runs, CoopRun{App: a, Topo: t})
		}
	}
	return runs
}

// quickSix are the six paper apps at the harness quick scale — the sizes
// harness.Runner{Quick: true} uses for fig13 and fig16.
func quickSix() []*polybench.Benchmark {
	return []*polybench.Benchmark{
		polybench.TwoMM(48, 48, 48),
		polybench.Bicg(192),
		polybench.Corr(64, 64),
		polybench.Gesummv(192),
		polybench.Syrk(64, 64),
		polybench.Syr2k(48, 48),
	}
}

// Workloads lists the benchmark's workloads; BENCHMARK.json repeats the
// names and reasons.
var Workloads = []*Workload{
	{
		Name:    "coop-pair",
		Why:     "six paper apps, default sizes, twin protocol, wg engine: 91% of host time is VM execution, so engine work shows here and runtime work does not",
		Units:   1628,
		Backend: vm.BackendWG,
		build: func(uint64) *Instance {
			apps := polybench.All()
			return &Instance{Apps: apps, Runs: cross(apps, Twin)}
		},
	},
	{
		Name:    "coop-nway",
		Why:     "same six apps on 2cpu+2gpu and 4gpu-bus: the same VM load (84%) driven by the N-way ledger/planner/shared-bus stack, so a substrate change moves it against coop-pair",
		Units:   3256,
		Backend: vm.BackendWG,
		build: func(uint64) *Instance {
			apps := polybench.All()
			return &Instance{Apps: apps, Runs: cross(apps, NwayTopo, "4gpu-bus")}
		},
	},
	{
		Name:    "stream-chunks",
		Why:     "2 MiB buffers, ~10 VM ops per work-item: VM only 54%, transfer planning 16%, allocation and copying 28%, so byte-moving runtime work shows here and almost nowhere else",
		Units:   18432,
		Backend: vm.BackendWG,
		build: func(seed uint64) *Instance {
			out := StreamOut(seed, StreamN, StreamLocal)
			inout := StreamInOut(seed, StreamN, StreamLocal)
			return &Instance{
				Apps:   []*polybench.Benchmark{out, inout},
				Runs:   []CoopRun{{out, Twin}, {out, NwayTopo}, {inout, NwayTopo}},
				NoTwin: map[string]bool{inout.Name: true},
			}
		},
	},
	{
		Name:    "paper-quick",
		Why:     "fig13+fig16+table3 at quick scale on the process-default engine (closure): the regenerate-the-paper journey, and the only workload on the engine users get",
		Units:   3,
		Backend: vm.BackendAuto,
		build: func(uint64) *Instance {
			apps := quickSix()
			return &Instance{
				Apps:        apps,
				Runs:        cross(apps, Twin),
				Experiments: []string{"fig13", "fig16", "table3"},
			}
		},
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// Instance generates the workload's inputs and references from the seed.
func (w *Workload) Instance(seed uint64) *Instance { return w.build(seed) }

// Checks counts operations (one app execution or one experiment) and the
// ones that failed a correctness or determinism check.
type Checks struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (c *Checks) fail(format string, args ...any) {
	c.Failed++
	if len(c.Errors) < 20 {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}
}

func (c *Checks) add(o Checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Errors = append(c.Errors, o.Errors...)
}

// Iteration is the outcome of one pass over the body.
type Iteration struct {
	// Elapsed sums the time inside the program — run plus verification —
	// over the operations; the benchmark's own hashing is outside it.
	Elapsed time.Duration
	// VirtS sums the simulated seconds of the cooperative runs (0 for an
	// experiment body, whose simulated times are inside the tables).
	VirtS float64
	// Sig hashes every operation's output (and simulated time) in canonical
	// order: identical across iterations and processes.
	Sig [sha256.Size]byte
	// Results are the cooperative runs' results, in Runs order (nil for an
	// experiment body or a failed run).
	Results []*sched.Result
}

// op runs one operation of the body: it times fn into Elapsed, tells afterOp
// (when not nil) the duration, and counts the operation and its failure.
func (it *Iteration) op(chk *Checks, afterOp func(time.Duration), name string, fn func() error) bool {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	it.Elapsed += d
	if afterOp != nil {
		afterOp(d)
	}
	chk.Attempted++
	if err != nil {
		chk.fail("%s: %v", name, err)
	}
	return err == nil
}

// Iterate runs the body once, checking every operation. afterOp, when not
// nil, is told each operation's duration as soon as it ends.
func (in *Instance) Iterate(chk *Checks, afterOp func(time.Duration)) Iteration {
	if len(in.Experiments) > 0 {
		return runExperiments(in.Experiments, nil, chk, afterOp)
	}
	return in.runCoop(chk, afterOp)
}

// runCoop executes the cooperative runs.
func (in *Instance) runCoop(chk *Checks, afterOp func(time.Duration)) Iteration {
	it := Iteration{Results: make([]*sched.Result, len(in.Runs))}
	sigs := make([][sha256.Size]byte, len(in.Runs))
	for i, r := range in.Runs {
		var res *sched.Result
		ok := it.op(chk, afterOp, r.Name(), func() (err error) {
			if res, err = r.Run(); err == nil {
				err = r.App.Verify(res.Outputs)
			}
			return err
		})
		if ok {
			it.Results[i] = res
			sigs[i] = hashResult(res)
		}
	}
	h := sha256.New()
	for i, res := range it.Results {
		if res != nil {
			it.VirtS += res.Time
		}
		h.Write(sigs[i][:])
	}
	h.Sum(it.Sig[:0])
	return it
}

// runExperiments regenerates the harness experiments ids at quick scale,
// single-threaded, with a span "harness.<id>" around each when t is not nil.
// The signature hashes the rendered tables.
func runExperiments(ids []string, t *Tracer, chk *Checks, afterOp func(time.Duration)) Iteration {
	var it Iteration
	r := &harness.Runner{M: sched.DefaultMachine(), Quick: true, Parallel: 1}
	text := make([]string, len(ids))
	for i, id := range ids {
		var tab *harness.Table
		ok := it.op(chk, afterOp, id, func() (err error) {
			span := t.Begin("harness." + id)
			// The runner verifies every cell against the app's reference.
			tab, err = r.Run(id)
			t.End(span)
			return err
		})
		if ok {
			text[i] = tab.String()
		}
	}
	h := sha256.New()
	for _, s := range text {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	h.Sum(it.Sig[:0])
	return it
}

// sortedKeys returns m's keys in lexical order: the order sched creates and
// writes an app's buffers in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hashResult hashes a run's simulated time and output buffers.
func hashResult(res *sched.Result) [sha256.Size]byte {
	h := sha256.New()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], math.Float64bits(res.Time))
	h.Write(word[:])
	for _, name := range sortedKeys(res.Outputs) {
		h.Write([]byte(name))
		h.Write(res.Outputs[name])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// CoopSpeedup is the paper's headline (§9.1): the geometric mean over the
// cooperative runs of the better single device's simulated time, on the
// paper's machine, over the cooperative simulated time. results are the
// cooperative results in Runs order; nil (an experiment body) runs them first.
func (in *Instance) CoopSpeedup(results []*sched.Result, chk *Checks) float64 {
	if results == nil {
		results = in.runCoop(chk, nil).Results
	}
	m := sched.DefaultMachine()
	best := map[string]float64{}
	for _, app := range in.Apps {
		for _, cfg := range []device.Config{m.CPU, m.GPU} {
			res, err := sched.RunSingle(cfg, app.App)
			if err == nil {
				err = app.Verify(res.Outputs)
			}
			chk.Attempted++
			if err != nil {
				chk.fail("%s single-device on %s: %v", app.Name, cfg.Name, err)
				continue
			}
			if b, ok := best[app.Name]; !ok || res.Time < b {
				best[app.Name] = res.Time
			}
		}
	}
	var ratios []float64
	for i, r := range in.Runs {
		if results[i] == nil || best[r.App.Name] == 0 {
			return math.NaN() // already counted as failed
		}
		ratios = append(ratios, best[r.App.Name]/results[i].Time)
	}
	return Geomean(ratios)
}
