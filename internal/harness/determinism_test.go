package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// runWith runs the experiments ids in order on one quick Runner with the
// given number of concurrent table cells.
func runWith(t *testing.T, ids []string, parallel int) []*Table {
	t.Helper()
	r := quickRunner()
	r.Parallel = parallel
	tabs := make([]*Table, len(ids))
	for i, id := range ids {
		var err error
		if tabs[i], err = r.Run(id); err != nil {
			t.Fatalf("%s (parallel=%d): %v", id, parallel, err)
		}
	}
	return tabs
}

// TestExperimentsDeterministicAcrossWorkers is the determinism regression
// test: every virtual-time table, and every experiment's tally of the
// FluidiCL runs it counted, must come out identically, to the bit, whether
// cells run one after another or on several cell workers at once. The
// experiments share one Runner, as in `fluidibench all`, so a run that
// counts in another experiment depending on the workers shows up too, and
// fig17's tally sums 36 FluidiCL runs, so an order that follows the cells'
// finishing shows up in its float sums.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"fig13", "fig16", "fig17"}
	if !testing.Short() {
		ids = append(append([]string{}, ExperimentIDs...), ExtraExperimentIDs...)
	}
	seq, par := runWith(t, ids, 1), runWith(t, ids, 4)
	for i, id := range ids {
		if s, p := seq[i].String(), par[i].String(); s != p {
			t.Errorf("%s: table differs between sequential and parallel cells\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", id, s, p)
		}
		if seq[i].Runs != par[i].Runs || seq[i].Counters != par[i].Counters || !reflect.DeepEqual(seq[i].Summary, par[i].Summary) {
			t.Errorf("%s: tally differs between sequential and parallel cells\n--- parallel=1 ---\n%d %+v\n%+v\n--- parallel=4 ---\n%d %+v\n%+v",
				id, seq[i].Runs, seq[i].Counters, seq[i].Summary, par[i].Runs, par[i].Counters, par[i].Summary)
		}
	}
	if seq[slices.Index(ids, "fig13")].Runs == 0 {
		t.Error("fig13 counted no FluidiCL runs: the tallies compare nothing")
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

// TestQuickTablesReferee is TestQuickTablesGolden with the interpreter, the
// bytecode referee, as the process engine: every work-group of every quick
// experiment runs on it, none on the lockstep engine, and the tables come out
// byte for byte what the lockstep engine gives.
func TestQuickTablesReferee(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		t.Skip("the golden is written from the lockstep engine")
	}
	defer vm.SetBackend(vm.DefaultBackend())
	vm.SetBackend(vm.BackendInterp)
	before := vm.BackendSnapshot()
	checkTablesGolden(t, true, "tables_quick.golden")
	after := vm.BackendSnapshot()
	if after.InterpWGs == before.InterpWGs || after.WGLoopWGs != before.WGLoopWGs {
		t.Errorf("%d groups on the interpreter, %d on wg; want some and none",
			after.InterpWGs-before.InterpWGs, after.WGLoopWGs-before.WGLoopWGs)
	}
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
