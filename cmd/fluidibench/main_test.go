package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"

	"fluidicl/internal/vm"
)

// TestJSONOutMatchesPreUnificationOutput pins the -jsonout record of
//
//	fluidibench -quick -backend=wg -topology 2cpu+2gpu -jsonout F hash
//
// (the CI topology-matrix invocation, whose refresh_deltas and
// wg_fused_blocks keys CI greps) against the file the last commit before the
// counter consolidation wrote: same key set, same values, wall_seconds
// excluded. Everything else in the record is virtual and deterministic.
func TestJSONOutMatchesPreUnificationOutput(t *testing.T) {
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
