package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Description is what the benchmark reads of BENCHMARK.json.
type Description struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []DescMetric `json:"end_to_end"`
	PerLayer []DescMetric `json:"per_layer"`
}

// DescMetric is one metric entry of BENCHMARK.json; per-layer entries have
// no bound.
type DescMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// ReadDescription loads BENCHMARK.json.
func ReadDescription(path string) (*Description, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Description
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// WriteJSON writes v, indented, to dir/name.
func WriteJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// Repeat alternates `sets` sets of `runs` runs of this binary per workload
// (run r of every set uses seed+r, as the driver varies seeds) and prints, per
// workload and end-to-end metric, each set's quartiles and spread, how far
// the sets' medians disagree, and the bound. It fails if a disagreement or a
// spread (setup_s excepted, as in the driver) exceeds its bound, and marks a
// spread above a third of the bound, the margin the benchmark is built to.
func Repeat(out io.Writer, ws []*Workload, config string, sets, runs int, seed uint64, seconds float64) error {
	desc, err := ReadDescription(config)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range desc.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	// values[workload][metric][set] are the runs' values.
	values := map[string]map[string][][]float64{}
	failedChecks := 0
	for _, w := range ws {
		values[w.Name] = map[string][][]float64{}
		for _, m := range EndToEnd {
			values[w.Name][m.Name] = make([][]float64, sets)
		}
	}
	for r := 0; r < runs; r++ {
		for s := 0; s < sets; s++ {
			for _, w := range ws {
				run, err := Run(w, seed+uint64(r), seconds)
				if err != nil {
					return err
				}
				failedChecks += run.Result.Failed
				for name, m := range run.Result.Metrics {
					values[w.Name][name][s] = append(values[w.Name][name][s], m.Value)
				}
				fmt.Fprintf(out, "run %d set %d %-14s wall_s %.4f setup_s %.4f failed %d\n",
					r, s, w.Name, run.Result.Metrics["wall_s"].Value, run.Result.Metrics["setup_s"].Value, run.Result.Failed)
			}
		}
	}
	over := 0
	fmt.Fprintf(out, "\n%-14s %-13s %-4s %12s %12s %12s %8s %9s %7s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "disagree", "bound")
	for _, w := range ws {
		for _, m := range EndToEnd {
			bound := bounds[m.Name]
			var first float64
			for s := 0; s < sets; s++ {
				vals := values[w.Name][m.Name][s]
				q1, med, q3 := Quartiles(vals)
				spread := Spread(vals)
				disagree := 0.0
				if s == 0 {
					first = med
				} else {
					disagree = math.Abs(med-first) / math.Abs(first)
				}
				mark := ""
				switch {
				case disagree > bound || (spread > bound && m.Name != "setup_s"):
					mark = "  OVER BOUND"
					over++
				case spread > bound/3:
					mark = "  spread above bound/3"
				}
				fmt.Fprintf(out, "%-14s %-13s %-4d %12.6g %12.6g %12.6g %7.2f%% %8.2f%% %6.1f%%%s\n",
					w.Name, m.Name, s, q1, med, q3, 100*spread, 100*disagree, 100*bound, mark)
			}
		}
	}
	if failedChecks > 0 {
		return fmt.Errorf("%d correctness or determinism checks failed", failedChecks)
	}
	if over > 0 {
		return fmt.Errorf("%d workload x metric rows exceed their bound", over)
	}
	return nil
}
