// Command flbench is the repository's benchmark.
//
//	flbench run --workload W --seed S --seconds N --trace 0|1
//	flbench repeat --sets 2 --runs 5
//
// run prints every metric by name with its unit, then one JSON line with the
// keys correct, attempted, failed and metrics; it exits non-zero if any
// check failed. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"fluidicl/bench"
)

var processStart = time.Now()

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "repeat":
		err = cmdRepeat(os.Args[2:])
	case "child":
		err = cmdChild(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flbench run|repeat [flags]   (flbench run -h, flbench repeat -h)")
	os.Exit(2)
}

type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
}

func parseRunFlags(name string, args []string, extra func(*flag.FlagSet)) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&f.seed, "seed", 1, "input seed: stream input values and the order of operations")
	fs.Float64Var(&f.seconds, "seconds", bench.RunSeconds, "seconds an untraced run measures for (a traced run does a fixed amount of work)")
	fs.IntVar(&f.trace, "trace", 0, "1 performs the traced run and reports the per-layer metrics")
	fs.StringVar(&f.out, "out", "bench/out", "directory for run records and trace files")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if fs.NArg() > 0 {
		return f, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return f, nil
}

func selectWorkloads(name string) ([]*bench.Workload, error) {
	if name == "all" {
		return bench.Workloads, nil
	}
	w, err := bench.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	return []*bench.Workload{w}, nil
}

// cmdRun runs each selected workload once and prints its result.
func cmdRun(args []string) error {
	f, err := parseRunFlags("run", args, nil)
	if err != nil {
		return err
	}
	ws, err := selectWorkloads(f.workload)
	if err != nil {
		return err
	}
	failed := false
	for _, w := range ws {
		var res bench.Result
		if f.trace != 0 {
			res, err = bench.RunTraced(w, f.seed, f.out)
		} else {
			var run *bench.RunRecord
			run, err = bench.Run(w, f.seed, f.seconds)
			if err == nil {
				res = run.Result
				fmt.Printf("%s seed=%d: %d timed iterations in %d processes; raw wall_s quartiles %.4f %.4f %.4f, corrected %.4f %.4f %.4f\n",
					w.Name, f.seed, run.Samples, bench.Procs,
					run.WallRawQ[0], run.WallRawQ[1], run.WallRawQ[2], run.WallQ[0], run.WallQ[1], run.WallQ[2])
				err = bench.WriteJSON(f.out, "run-"+w.Name+".json", run)
			}
		}
		if err != nil {
			return err
		}
		printResult(w, f.seed, res)
		failed = failed || !res.Correct
	}
	if failed {
		return fmt.Errorf("a correctness or determinism check failed")
	}
	return nil
}

// printResult prints the metrics by name, then the JSON line, last.
func printResult(w *bench.Workload, seed uint64, res bench.Result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-14s seed=%-4d %-28s %14.6g %s\n", w.Name, seed, name, m.Value, m.Unit)
	}
	fmt.Printf("%-14s seed=%-4d attempted=%d failed=%d\n", w.Name, seed, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // Result holds only finite numbers and strings
	}
	fmt.Println(string(line))
}

// cmdChild is one measuring process of a run; it prints its record as JSON.
func cmdChild(args []string) error {
	var budget float64
	var speedup bool
	f, err := parseRunFlags("child", args, func(fs *flag.FlagSet) {
		fs.Float64Var(&budget, "budget", 4, "seconds of timed iterations")
		fs.BoolVar(&speedup, "speedup", true, "also compute coop_speedup")
	})
	if err != nil {
		return err
	}
	w, err := bench.WorkloadByName(f.workload)
	if err != nil {
		return err
	}
	var rec any
	if f.trace != 0 {
		rec = bench.Trace(w, f.seed)
	} else {
		rec = bench.Measure(processStart, w, f.seed, time.Duration(budget*float64(time.Second)), speedup)
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// cmdRepeat alternates sets of runs of this binary and compares them.
func cmdRepeat(args []string) error {
	var sets, runs int
	var config string
	f, err := parseRunFlags("repeat", args, func(fs *flag.FlagSet) {
		fs.IntVar(&sets, "sets", 2, "sets of runs to alternate")
		fs.IntVar(&runs, "runs", 5, "runs per set and workload; run r of every set uses seed+r")
		fs.StringVar(&config, "config", "BENCHMARK.json", "benchmark description holding the bounds")
	})
	if err != nil {
		return err
	}
	ws, err := selectWorkloads(f.workload)
	if err != nil {
		return err
	}
	return bench.Repeat(os.Stdout, ws, config, sets, runs, f.seed, f.seconds)
}
