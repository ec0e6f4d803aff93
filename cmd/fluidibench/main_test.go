package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fluidicl/internal/vm"
)

// TestMain lets a test run the command itself: with FLUIDIBENCH_ARGS set, the
// test binary is fluidibench with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FLUIDIBENCH_ARGS"); ok {
		os.Args = append([]string{"fluidibench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExitStatus pins the command's exit statuses: 0 on success, 1 on a
// runtime error, 2 with a message naming what is accepted when a flag value
// would otherwise be dropped or reinterpreted: an engine — by flag or by
// environment — the command does not have (the retired closure engine
// included), -topology on a command that runs the stock pair, a negative
// -parallel, a positional argument beyond what the command reads.
func TestExitStatus(t *testing.T) {
	const engines, topoCmds, cells = "want interp or wg", "want it with -trace, -dist or hash", "want 0 (GOMAXPROCS) or a positive number"
	const surplus = "unexpected arguments"
	for _, c := range []struct {
		args, env string
		want      int
		msg       string
	}{
		{"list", "", 0, ""},
		{"nosuch", "", 1, ""},
		{"-backend closure list", "", 2, engines},
		{"list", "FLUIDICL_BACKEND=closure", 2, engines},
		{"-quick -topology 2cpu+2gpu hash", "", 0, ""},
		{"-quick -topology 2cpu+2gpu all", "", 2, topoCmds},
		{"-quick -topology 2cpu+2gpu table1", "", 2, topoCmds},
		{"-topology 4gpu-bus run SYRK", "", 2, topoCmds},
		{"-topology 4gpu-bus dump SYRK", "", 2, topoCmds},
		{"-topology 4gpu-bus trace SYRK", "", 2, topoCmds},
		{"-topology cpu+gpu list", "", 2, topoCmds},
		{"-parallel -1 list", "", 2, cells},
		{"-parallel 2 list", "", 0, ""},
		{"-quick table1 table2", "", 2, surplus + ` ["table2"]`},
		{"dump SYRK extra", "", 2, surplus + ` ["extra"]`},
		{"run SYRK GESUMMV", "", 2, surplus + ` ["GESUMMV"]`},
		{"trace BICG 1 2", "", 2, surplus + ` ["1" "2"]`},
		{"-quick -dist fig13", "", 2, surplus + ` ["fig13"]`},
		{"list extra", "", 2, surplus + ` ["extra"]`},
		{"-quick hash all", "", 2, surplus + ` ["all"]`},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FLUIDIBENCH_ARGS="+c.args)
		if c.env != "" {
			cmd.Env = append(cmd.Env, c.env)
		}
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if got := cmd.ProcessState.ExitCode(); got != c.want {
			t.Errorf("%s fluidibench %s: exit status %d, want %d\n%s", c.env, c.args, got, c.want, out)
		}
		if !strings.Contains(string(out), c.msg) {
			t.Errorf("%s fluidibench %s: the error does not say %q:\n%s", c.env, c.args, c.msg, out)
		}
	}
}

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
