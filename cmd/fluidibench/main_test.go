package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fluidicl/internal/vm"
)

// TestJSONOutMatchesTopologyMatrixGolden pins the -jsonout record of
//
//	fluidibench -quick -backend=wg -topology 2cpu+2gpu -jsonout F hash
//
// (the CI topology-matrix invocation, whose refresh_deltas and fusion keys
// CI greps) against testdata/hash_2c2g_wg.json: same key set, same values,
// wall_seconds excluded. Everything else in the record is virtual and
// deterministic.
func TestJSONOutMatchesTopologyMatrixGolden(t *testing.T) {
	if vm.BackendSnapshot() != (vm.BackendCounters{}) {
		t.Skip("needs a fresh process: the compile-coverage counters count each kernel once per process")
	}
	golden, err := os.ReadFile("testdata/hash_2c2g_wg.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []map[string]any
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}

	defer vm.SetBackend(vm.DefaultBackend())
	vm.SetBackend(vm.BackendWG)
	e, err := measured("hash", func() error { return runHash(io.Discard, true, "2cpu+2gpu") })
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal([]wallEntry{e})
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("-jsonout is not valid JSON: %v\n%s", err, out)
	}
	delete(want[0], "wall_seconds")
	delete(got[0], "wall_seconds")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-jsonout record drifted\n got: %v\nwant: %v", got, want)
	}
}

// TestBenchmarkNamesFoldCase: every entry point that takes a benchmark name
// accepts it in any case (README spells them lowercase) and still rejects a
// name that is no benchmark.
func TestBenchmarkNamesFoldCase(t *testing.T) {
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()

	out := filepath.Join(t.TempDir(), "trace.json")
	for _, e := range []struct {
		entry string
		call  func(name string) error
	}{
		{"-trace", func(name string) error { return chromeTrace(name, true, out, "") }},
		{"run", runOne},
		{"trace", traceOne},
		{"dump", dumpOne},
	} {
		if err := e.call("atax"); err != nil {
			t.Errorf("fluidibench %s atax: %v", e.entry, err)
		}
		if err := e.call("nosuch"); err == nil {
			t.Errorf("fluidibench %s nosuch: no error", e.entry)
		}
	}
}
