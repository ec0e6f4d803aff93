// Command fluidibench regenerates the tables and figures of "Fluidic
// Kernels: Cooperative Execution of OpenCL Programs on Multiple
// Heterogeneous Devices" (CGO 2014) on the simulated machine.
//
// Usage:
//
//	fluidibench all                 # every experiment, paper order
//	fluidibench fig13               # one experiment (see `fluidibench list`)
//	fluidibench overall             # aliases accepted (overall = fig13)
//	fluidibench -csv fig17          # CSV output
//	fluidibench -quick all          # reduced workloads (smoke test)
//	fluidibench run SYRK            # run one benchmark under every strategy
//	fluidibench list                # list experiments and benchmarks
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/harness"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	parallel := flag.Int("parallel", 0, "concurrent experiment table cells (0 = GOMAXPROCS)")
	jsonOut := flag.String("jsonout", "", "write per-table wall-clock times as JSON to this file")
	traceOut := flag.String("trace", "", "run one benchmark under FluidiCL and write a Chrome trace_event JSON file here")
	dist := flag.Bool("dist", false, "print the per-benchmark, per-device work-distribution table (paper §5.5)")
	topology := flag.String("topology", "", "N-device topology for -trace, -dist and hash, e.g. cpu+gpu, 2cpu+2gpu, 4gpu-bus (default: the paper's cpu+gpu machine)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	if *parallel < 0 {
		badFlag(fmt.Errorf("-parallel %d: want 0 (GOMAXPROCS) or a positive number of concurrent table cells", *parallel))
	}
	// Only an experiment, all and hash write a -jsonout record, and only an
	// experiment, all and -dist print a table -csv could format; any other
	// command would exit 0 without writing the file or with the flag dropped.
	cmd := ""
	switch {
	case *traceOut != "":
		cmd = "-trace"
	case *dist:
		cmd = "-dist"
	case len(args) > 0:
		cmd = args[0]
	}
	switch {
	case *jsonOut != "" && slices.Contains([]string{"-trace", "-dist", "list", "run", "dump", "trace"}, cmd):
		badFlag(fmt.Errorf("-jsonout with %s: only an experiment, all and hash write a record", cmd))
	case *csv && slices.Contains([]string{"-trace", "hash", "list", "run", "dump", "trace"}, cmd):
		badFlag(fmt.Errorf("-csv with %s: only an experiment, all and -dist print a table", cmd))
	}

	if *traceOut != "" {
		if *dist {
			badFlag(fmt.Errorf("-trace with -dist: want one of them (-trace writes one benchmark's trace, -dist prints the work-distribution table)"))
		}
		if len(args) != 1 {
			badFlag(fmt.Errorf("-trace %s: want one benchmark, got %q (usage: fluidibench -trace out.json [-quick] [-topology T] <benchmark>)", *traceOut, args))
		}
		if err := chromeTrace(args[0], *quick, *traceOut, *topology); err != nil {
			fatal(err)
		}
		return
	}
	// A positional argument the command never reads would be dropped
	// silently: `-quick fig13 fig14` would print fig13 and exit 0.
	reads := 1
	if *dist {
		reads = 0
	} else if len(args) > 0 && (args[0] == "run" || args[0] == "dump" || args[0] == "trace") {
		reads = 2
		if len(args) < reads {
			badFlag(fmt.Errorf("%s: want a benchmark (usage: fluidibench %s <benchmark>; fluidibench list names them)", args[0], args[0]))
		}
	}
	if len(args) > reads {
		badFlag(fmt.Errorf("unexpected arguments %q: one invocation runs one command (usage: fluidibench -h)", args[reads:]))
	}
	if *dist {
		if err := runDist(*quick, *csv, *topology); err != nil {
			fatal(err)
		}
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	// Every other command runs the paper's cpu+gpu machine; running it under
	// a topology label the user asked for would misattribute the numbers.
	if *topology != "" && args[0] != "hash" {
		badFlag(fmt.Errorf("-topology %s: want it with -trace, -dist or hash; %q runs the paper's cpu+gpu machine", *topology, args[0]))
	}

	r := harness.NewRunner()
	r.Quick = *quick
	r.Parallel = *parallel

	switch args[0] {
	case "list":
		fmt.Println("experiments (in paper order):")
		for _, id := range harness.ExperimentIDs {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("extra experiments (beyond the paper):")
		for _, id := range harness.ExtraExperimentIDs {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("benchmarks (paper's Table 2 set):")
		for _, b := range polybench.All() {
			fmt.Printf("  %-8s input %-16s %d kernel(s)\n", b.Name, b.InputDesc, len(b.App.Launches))
		}
		fmt.Println("extra benchmarks:")
		for _, b := range polybench.Extras() {
			fmt.Printf("  %-8s input %-16s %d kernel(s)\n", b.Name, b.InputDesc, len(b.App.Launches))
		}
		return
	case "all":
		ids := append(append([]string{}, harness.ExperimentIDs...), harness.ExtraExperimentIDs...)
		var walls []wallEntry
		for _, id := range ids {
			e, err := runExperiment(r, id, *csv)
			if err != nil {
				writeWalls(*jsonOut, walls)
				fatal(err)
			}
			fmt.Println()
			walls = append(walls, e)
		}
		writeWalls(*jsonOut, walls)
		return
	case "hash":
		// Stdout stays pure "NAME HASH" lines (the CI matrix diffs them
		// verbatim across topologies); counters go to -jsonout only.
		e, err := measured("hash", func(e *wallEntry) error { return runHash(os.Stdout, *quick, *topology, e) })
		if err != nil {
			fatal(err)
		}
		writeWalls(*jsonOut, []wallEntry{e})
		return
	case "run":
		if err := runOne(args[1], *quick); err != nil {
			fatal(err)
		}
		return
	case "dump":
		if err := dumpOne(args[1], *quick); err != nil {
			fatal(err)
		}
		return
	case "trace":
		if err := traceOne(args[1], *quick); err != nil {
			fatal(err)
		}
		return
	default:
		e, err := runExperiment(r, args[0], *csv)
		if err != nil {
			fatal(err)
		}
		writeWalls(*jsonOut, []wallEntry{e})
	}
}

// runExperiment runs and prints one experiment table with its wall trailer.
func runExperiment(r *harness.Runner, id string, csv bool) (wallEntry, error) {
	var t *harness.Table
	e, err := measured(id, func(e *wallEntry) (err error) {
		if t, err = r.Run(id); err == nil {
			e.ctr, e.sum = t.Counters, t.Rollup
		}
		return err
	})
	if err != nil {
		return e, err
	}
	e.id = t.ID // the canonical id, whatever alias was asked for
	emit(t, csv)
	fmt.Printf("[%s: %.2fs wall]\n", t.ID, e.wall)
	return e, nil
}

// wallEntry is one experiment's host wall-clock cost (not virtual time)
// plus the sum of its FluidiCL runs: the runtime counters and the
// trace-meter work distribution (virtual busy times, work-group split, link
// traffic, compute overlap), with the VM counters of everything it ran.
// Everything except wall_seconds is virtual and therefore deterministic.
type wallEntry struct {
	id      string
	backend string // the engine BackendAuto resolved to while it ran
	wall    float64
	ctr     core.Counters
	sum     trace.Rollup
}

// measured runs f, which fills in the runs' sums, and adds the wall clock
// and the VM counters f caused.
func measured(id string, f func(e *wallEntry) error) (wallEntry, error) {
	e := wallEntry{id: id}
	vmBefore, start := vm.BackendSnapshot(), time.Now()
	err := f(&e)
	e.backend = vm.DefaultBackend().String()
	e.wall = time.Since(start).Seconds()
	e.ctr = e.ctr.Add(vmSince(vmBefore))
	return e, err
}

// vmSince returns the VM backend activity since the snapshot before: the
// VM's counters are process-wide, and fluidibench runs one command at a time.
func vmSince(before vm.BackendCounters) core.Counters {
	return core.Counters{BackendCounters: vm.BackendSnapshot()}.Sub(core.Counters{BackendCounters: before})
}

// MarshalJSON emits one flat object: id, backend and wall_seconds always,
// then every non-zero counter under the name core.Counters gives it, then every
// non-zero work-distribution figure (the format is sparse).
func (e wallEntry) MarshalJSON() ([]byte, error) {
	head, err := json.Marshal(struct {
		ID      string  `json:"id"`
		Backend string  `json:"backend"`
		Wall    float64 `json:"wall_seconds"`
	}{e.id, e.backend, e.wall})
	if err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(head[:len(head)-1]) // reopen the object
	put := func(key string, v any) {
		if v == int64(0) || v == float64(0) {
			return
		}
		val, _ := json.Marshal(v) // int64s and finite float64s always marshal
		fmt.Fprintf(b, ",%q:%s", key, val)
	}
	e.ctr.Each(func(name string, v int64) { put(name, v) })
	s := e.sum
	put("bytes_refresh", s.BytesRefresh)
	put("fluidicl_runs", s.Runs)
	put("cpu_busy_seconds", s.CPUBusy)
	put("gpu_busy_seconds", s.GPUBusy)
	put("both_busy_seconds", s.BothBusy)
	put("cpu_wgs", s.CPUWGs)
	put("gpu_wgs", s.GPUWGs)
	put("link_busy_seconds", s.LinkBusy)
	put("bytes_h2d", s.BytesH2D)
	put("bytes_d2h", s.BytesD2H)
	put("overlap_frac", s.OverlapFrac())
	b.WriteByte('}')
	return b.Bytes(), nil
}

func writeWalls(path string, walls []wallEntry) {
	if path == "" || walls == nil {
		return
	}
	data, err := json.MarshalIndent(walls, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func emit(t *harness.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

// runOne executes one benchmark under every strategy and prints a summary.
func runOne(name string, quick bool) error {
	b, err := benchFor(name, quick)
	if err != nil {
		return err
	}
	m := sched.DefaultMachine()
	fresh := func() *polybench.Benchmark {
		nb, _ := benchFor(name, quick)
		return nb
	}

	type row struct {
		label string
		run   func() (*sched.Result, error)
	}
	rows := []row{
		{"CPU-only", func() (*sched.Result, error) { return sched.RunSingle(m.CPU, fresh().App) }},
		{"GPU-only", func() (*sched.Result, error) { return sched.RunSingle(m.GPU, fresh().App) }},
		{"Static 50/50", func() (*sched.Result, error) { return sched.RunStatic(m, fresh().App, 50) }},
		{"SOCL eager", func() (*sched.Result, error) { return sched.RunSocl(m, fresh().App, sched.Eager, nil) }},
		{"SOCL dmda", func() (*sched.Result, error) {
			app := fresh().App
			model, err := sched.CalibrateDmda(m, app)
			if err != nil {
				return nil, err
			}
			return sched.RunSocl(m, app, sched.Dmda, model)
		}},
		{"FluidiCL", func() (*sched.Result, error) { return sched.RunFluidiCL(m, fresh().App, core.Options{}) }},
	}
	fmt.Printf("benchmark %s, input %s, %d kernel(s)\n", b.Name, b.InputDesc, len(b.App.Launches))
	for _, r := range rows {
		res, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		if err := b.Verify(res.Outputs); err != nil {
			return fmt.Errorf("%s: wrong results: %w", r.label, err)
		}
		fmt.Printf("  %-12s %10.3f ms  (results verified)\n", r.label, res.Time*1e3)
		for _, rep := range res.Reports {
			fmt.Printf("    kernel %-16s wgs=%4d gpu=%4d (skip %d, abort %d) cpu=%4d in %d subkernel(s)%s\n",
				rep.Name, rep.TotalWGs, rep.GPUExecuted, rep.GPUSkipped, rep.GPUAborted,
				rep.CPUWGs, rep.Subkernels, didAll(rep.CPUDidAll))
		}
	}
	return nil
}

func didAll(b bool) string {
	if b {
		return "  [CPU completed entire NDRange]"
	}
	return ""
}

// benchFor resolves a benchmark name at full scale or at the harness quick
// scale.
func benchFor(name string, quick bool) (*polybench.Benchmark, error) {
	if quick {
		return polybench.ByNameQuick(name)
	}
	return polybench.ByName(name)
}

func usage() {
	fmt.Fprintf(os.Stderr, `fluidibench — regenerate the FluidiCL paper's tables and figures

usage:
  fluidibench [-csv] [-quick] [-parallel N] [-jsonout F] <experiment>|all
  fluidibench -trace out.json [-quick] [-topology T] <benchmark>   # Chrome trace_event JSON (chrome://tracing)
  fluidibench -dist [-quick] [-csv] [-topology T]   # work-distribution table (paper §5.5), one row per device
  fluidibench [-quick] [-topology T] hash   # benchmark output hashes (deterministic, topology-invariant)
  fluidibench [-quick] run <benchmark>     # one benchmark under every strategy
  fluidibench [-quick] trace <benchmark>   # cooperative-execution timeline (plain text)
  fluidibench [-quick] dump <benchmark>    # transformed sources + GPU- and CPU-variant bytecode disassembly
  fluidibench list

experiments: %v
extras: %v
`, harness.ExperimentIDs, harness.ExtraExperimentIDs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluidibench:", err)
	os.Exit(1)
}

// badFlag reports a flag value the command does not accept and exits 2, the
// flag package's own status for a parse error.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, "fluidibench:", err)
	os.Exit(2)
}

// dumpOne shows what FluidiCL's compilation pipeline produces for a
// benchmark: the transformed GPU and CPU sources (the source-to-source
// passes' output) and the bytecode disassembly of both variants of each
// kernel: the GPU variant runs on the twin protocol's GPU, the CPU variant
// on the twin CPU and on every N-way device.
func dumpOne(name string, quick bool) error {
	b, err := benchFor(name, quick)
	if err != nil {
		return err
	}
	env := sim.NewEnv()
	m := sched.DefaultMachine()
	// core.New's device order: 0 is the CPU, 1 the GPU.
	rt, err := core.New(env, device.New(env, m.CPU), device.New(env, m.GPU), core.Options{})
	if err != nil {
		return err
	}
	prog, err := rt.BuildProgram(b.App.Source)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s — original source:\n%s\n", b.Name, b.App.Source)
	fmt.Printf("==== transformed GPU source (abort checks, unrolled in-loop checks) ====\n%s\n", prog.GPUSrc)
	fmt.Printf("==== transformed CPU source (subkernel range guards) ====\n%s\n", prog.CPUSrc)
	seen := map[string]bool{}
	for _, l := range b.App.Launches {
		if seen[l.Kernel] {
			continue
		}
		seen[l.Kernel] = true
		k, err := prog.CreateKernel(l.Kernel)
		if err != nil {
			return err
		}
		fmt.Printf("==== GPU bytecode: %s ====\n%s\n", l.Kernel, k.Disasm(1))
		fmt.Printf("==== CPU bytecode: %s ====\n%s\n", l.Kernel, k.Disasm(0))
	}
	return nil
}

// traceOne runs one benchmark under FluidiCL with a recorder attached and
// prints the cooperative-execution timeline: the instants of the runtime's
// decision track, one a line, in the order (and so at the virtual times)
// they were recorded.
func traceOne(name string, quick bool) error {
	b, err := benchFor(name, quick)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	if _, err := sched.RunFluidiCLTraced(sched.DefaultMachine(), b.App, core.Options{}, rec); err != nil {
		return err
	}
	fmt.Printf("cooperative-execution timeline for %s %s:\n\n", b.Name, b.InputDesc)
	track := slices.Index(rec.Tracks(), core.RuntimeTrack)
	for _, e := range rec.Events() {
		if e.Track == track {
			fmt.Printf("%10.3f us  k%-2d %s\n", e.Start*1e6, e.Args[0].V, e.Name)
		}
	}
	return nil
}
