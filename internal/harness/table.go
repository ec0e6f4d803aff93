// Package harness regenerates every table and figure in the paper's
// motivation and evaluation sections (the per-experiment index lives in
// DESIGN.md §3). Each experiment returns a Table whose rows are the same
// series the paper plots; EXPERIMENTS.md records paper-vs-measured shapes.
//
// Every experiment also verifies the outputs of every run against the
// benchmark's bit-exact reference — performance numbers from wrong results
// would be meaningless.
package harness

import (
	"fmt"
	"math"
	"strings"

	"fluidicl/internal/core"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
)

// Table is one regenerated paper artifact.
type Table struct {
	ID      string // e.g. "fig13"
	Title   string
	Note    string
	Columns []string
	Rows    [][]string

	// Runs counts the FluidiCL runs this table was the first of its
	// Runner's tables to count (Runner.grid); Counters and Summary sum them.
	Runs     int64
	Counters core.Counters
	Summary  trace.Summary
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(&b, "   %s\n", line)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	for _, r := range append([][]string{t.Columns}, t.Rows...) {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// geomean returns the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// f2 formats a ratio with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// ms formats a virtual time in milliseconds.
func ms(t sim.Time) string { return fmt.Sprintf("%.3f", t*1e3) }
