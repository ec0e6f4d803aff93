package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
)

// renderWith runs one experiment with the given number of concurrent table
// cells and returns the rendered table.
func renderWith(t *testing.T, id string, parallel int) string {
	t.Helper()
	r := NewRunner()
	r.Quick = true
	r.Parallel = parallel
	tab, err := r.Run(id)
	if err != nil {
		t.Fatalf("%s (parallel=%d): %v", id, parallel, err)
	}
	return tab.String()
}

// TestExperimentsDeterministicAcrossWorkers is the determinism regression
// test: every virtual-time table must render identically whether its cells
// run one after another or on several cell workers at once.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"fig13"}
	if !testing.Short() {
		ids = []string{"fig2", "fig3", "table1", "table2", "fig13", "fig14"}
	}
	for _, id := range ids {
		seq := renderWith(t, id, 1)
		par := renderWith(t, id, 4)
		if seq != par {
			t.Errorf("%s: table differs between sequential and parallel cells\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", id, seq, par)
		}
	}
}

// TestQuickTablesGolden pins every quick-scale table, the paper's artifacts
// and the extras, byte for byte: the golden is `fluidibench -quick -parallel 1
// all` with the wall trailers deleted, and the tables here come from one
// Runner with four concurrent cells, so a table that depends on which cell
// ran first, or on what an earlier experiment left behind, shows up as a diff.
// Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/harness -run TestQuickTablesGolden.
func TestQuickTablesGolden(t *testing.T) {
	checkTablesGolden(t, true, "tables_quick.golden")
}

// TestFullTablesGolden is TestQuickTablesGolden at full scale: the golden is
// `fluidibench -parallel 1 all` with the wall trailers deleted. It takes a
// few seconds, so -short skips it. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/harness -run TestFullTablesGolden.
func TestFullTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale tables take seconds")
	}
	checkTablesGolden(t, false, "tables_full.golden")
}

// checkTablesGolden renders every experiment at the given scale from one
// Runner with four concurrent cells and compares the text with the golden.
func checkTablesGolden(t *testing.T, quick bool, name string) {
	t.Helper()
	r := NewRunner()
	r.Quick = quick
	r.Parallel = 4
	var got bytes.Buffer
	for _, id := range append(append([]string{}, ExperimentIDs...), ExtraExperimentIDs...) {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got.WriteString(tab.String() + "\n\n") // as fluidibench prints it
	}
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("tables differ from golden %s; if the change is intentional, regenerate with UPDATE_GOLDEN=1\n--- got ---\n%s",
			golden, got.String())
	}
}

// outputHash digests a run's output buffers in name order.
func outputHash(outputs map[string][]byte) string {
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s:%d:", n, len(outputs[n]))
		h.Write(outputs[n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFluidiCLOutputsByteIdenticalAcrossWorkers hashes the actual result
// buffers of full FluidiCL runs (the cooperative CPU+GPU path, aborts,
// rollbacks and merges included) with one and with eight host threads under
// the simulation's process goroutines; neither the bytes nor the virtual time
// may depend on the count.
func TestFluidiCLOutputsByteIdenticalAcrossWorkers(t *testing.T) {
	r := NewRunner()
	r.Quick = true
	for _, b := range r.benchmarks() {
		run := func(workers int) (string, sim.Time) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			res, err := sched.RunFluidiCL(r.M, b.App, core.Options{})
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", b.Name, workers, err)
			}
			if err := b.Verify(res.Outputs); err != nil {
				t.Fatalf("%s (workers=%d): %v", b.Name, workers, err)
			}
			return outputHash(res.Outputs), res.Time
		}
		seqHash, seqTime := run(1)
		parHash, parTime := run(8)
		if seqHash != parHash {
			t.Errorf("%s: output buffers differ between 1 and 8 host threads", b.Name)
		}
		if seqTime != parTime {
			t.Errorf("%s: virtual time differs: seq=%v par=%v", b.Name, seqTime, parTime)
		}
		if t.Failed() {
			break
		}
	}
}
