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
// (the CI topology-matrix invocation, whose refresh_deltas key CI greps)
// against the file the last commit before the counter consolidation wrote,
// plus the keys added since (PR 14: wg_step_instrs_dyn, wg_fuse_reject_*,
// and the wg_fused_* coverage the reduction jam raised; PR 15:
// wg_loop_fused): same key set, same
// values, wall_seconds excluded. Everything else in the record is virtual
// and deterministic — for a given worker count: the speculative launch
// engine runs (and counts) a few work-groups more with more workers, so the
// test pins the 2 the golden was written with.
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
	defer vm.SetWorkers(0)
	vm.SetWorkers(2)
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
