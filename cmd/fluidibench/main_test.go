package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fluidicl/internal/polybench"
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
// would otherwise be dropped or reinterpreted: an engine flag (the command
// has none: wg runs every launch), -topology on a command that runs the
// stock pair, a negative
// -parallel, a positional argument beyond what the command reads, a
// benchmark the command needs left out, -trace with -dist, -jsonout with a
// command that writes no record, -csv with one that prints no table.
func TestExitStatus(t *testing.T) {
	const topoCmds, cells = "want it with -trace, -dist or hash", "want 0 (GOMAXPROCS) or a positive number"
	const surplus, bench, oneBench = "unexpected arguments", "want a benchmark", "want one benchmark"
	const record = "only an experiment, all and hash write a record"
	const table = "only an experiment, all and -dist print a table"
	tr := filepath.Join(t.TempDir(), "t.json") // written only if the checks before it fail
	js := filepath.Join(t.TempDir(), "j.json")
	for _, c := range []struct {
		args string
		want int
		msg  string
	}{
		{"list", 0, ""},
		{"nosuch", 1, ""},
		{"-backend wg list", 2, "flag provided but not defined: -backend"},
		{"-quick -topology 2cpu+2gpu hash", 0, ""},
		{"-quick -topology 2cpu+2gpu all", 2, topoCmds},
		{"-quick -topology 2cpu+2gpu table1", 2, topoCmds},
		{"-topology 4gpu-bus run SYRK", 2, topoCmds},
		{"-topology 4gpu-bus dump SYRK", 2, topoCmds},
		{"-topology 4gpu-bus trace SYRK", 2, topoCmds},
		{"-topology cpu+gpu list", 2, topoCmds},
		{"-parallel -1 list", 2, cells},
		{"-parallel 2 list", 0, ""},
		{"-quick table1 table2", 2, surplus + ` ["table2"]`},
		{"dump SYRK extra", 2, surplus + ` ["extra"]`},
		{"run SYRK GESUMMV", 2, surplus + ` ["GESUMMV"]`},
		{"trace BICG 1 2", 2, surplus + ` ["1" "2"]`},
		{"-quick -dist fig13", 2, surplus + ` ["fig13"]`},
		{"list extra", 2, surplus + ` ["extra"]`},
		{"-quick hash all", 2, surplus + ` ["all"]`},
		{"run", 2, bench},
		{"dump", 2, bench},
		{"trace", 2, bench},
		{"-trace " + tr, 2, oneBench + ", got []"},
		{"-trace " + tr + " SYRK GESUMMV", 2, oneBench + `, got ["SYRK" "GESUMMV"]`},
		{"-quick -dist -trace " + tr + " SYRK", 2, "-trace with -dist: want one of them"},
		{"-quick -jsonout " + js + " table1", 0, ""},
		{"-jsonout " + js + " list", 2, "-jsonout with list: " + record},
		{"-jsonout " + js + " run SYRK", 2, "-jsonout with run: " + record},
		{"-jsonout " + js + " dump SYRK", 2, "-jsonout with dump: " + record},
		{"-jsonout " + js + " trace BICG", 2, "-jsonout with trace: " + record},
		{"-quick -jsonout " + js + " -dist", 2, "-jsonout with -dist: " + record},
		{"-quick -jsonout " + js + " -trace " + tr + " SYRK", 2, "-jsonout with -trace: " + record},
		{"-quick -csv table1", 0, ""},
		{"-csv list", 2, "-csv with list: " + table},
		{"-csv run SYRK", 2, "-csv with run: " + table},
		{"-csv dump SYRK", 2, "-csv with dump: " + table},
		{"-csv trace BICG", 2, "-csv with trace: " + table},
		{"-quick -csv hash", 2, "-csv with hash: " + table},
		{"-quick -csv -trace " + tr + " SYRK", 2, "-csv with -trace: " + table},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FLUIDIBENCH_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if got := cmd.ProcessState.ExitCode(); got != c.want {
			t.Errorf("fluidibench %s: exit status %d, want %d\n%s", c.args, got, c.want, out)
		}
		if !strings.Contains(string(out), c.msg) {
			t.Errorf("fluidibench %s: the error does not say %q:\n%s", c.args, c.msg, out)
		}
	}
}

// TestJSONOutMatchesTopologyMatrixGolden pins the -jsonout record of
//
//	fluidibench -quick -topology 2cpu+2gpu -jsonout F hash
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
	e, err := measured("hash", func(e *wallEntry) error { return runHash(io.Discard, true, "2cpu+2gpu", e) })
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

// TestDistTopologyGolden pins the work-distribution tables
//
//	fluidibench -quick -topology cpu+gpu -dist
//	fluidibench -quick -topology 2cpu+2gpu -dist
//
// against testdata/dist_quick.golden, byte for byte: per device, the
// work-group split, virtual busy and link times, and the bytes each link
// carried (H2D, refresh, D2H), so a change to what the runtimes transfer
// shows here even when it moves no virtual time; per run, co-execution and
// the VM's lockstep and fusion counters. The default machine's table,
// `fluidibench -quick -dist`, must equal the cpu+gpu one: there is one
// table. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/fluidibench -run TestDistTopologyGolden.
func TestDistTopologyGolden(t *testing.T) {
	dist := func(args string) []byte {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FLUIDIBENCH_ARGS="+args)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("fluidibench %s: %v", args, err)
		}
		return out
	}
	pair := dist("-quick -topology cpu+gpu -dist")
	if def := dist("-quick -dist"); !bytes.Equal(def, pair) {
		t.Fatalf("fluidibench -quick -dist differs from -quick -topology cpu+gpu -dist:\n%s", def)
	}
	got := append(pair, dist("-quick -topology 2cpu+2gpu -dist")...)
	golden := filepath.Join("testdata", "dist_quick.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("-dist tables differ from golden %s; if the change is intentional, regenerate with UPDATE_GOLDEN=1\n--- got ---\n%s",
			golden, got)
	}
}

// TestTimelineGolden pins the cooperative-execution timeline
//
//	fluidibench -quick trace NAME
//
// of every benchmark against testdata/timeline_quick.golden, byte for byte:
// each decision the twin protocol records, its virtual time and its kernel.
// Regenerate with UPDATE_GOLDEN=1 go test ./cmd/fluidibench -run TestTimelineGolden.
func TestTimelineGolden(t *testing.T) {
	var got []byte
	for _, b := range polybench.AllQuick() {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FLUIDIBENCH_ARGS=-quick trace "+b.Name)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("fluidibench -quick trace %s: %v", b.Name, err)
		}
		got = append(got, out...)
	}
	golden := filepath.Join("testdata", "timeline_quick.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("timelines differ from golden %s; if the change is intentional, regenerate with UPDATE_GOLDEN=1\n--- got ---\n%s",
			golden, got)
	}
}

// TestQuickReachesBenchmarkCommands: run and trace with -quick work on the
// quick-scale input, which they print, not on the full one.
func TestQuickReachesBenchmarkCommands(t *testing.T) {
	quick, err := polybench.ByNameQuick("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	full, err := polybench.ByName("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	if quick.InputDesc == full.InputDesc {
		t.Fatalf("SYRK's quick and full inputs are both %s", full.InputDesc)
	}
	for _, args := range []string{"-quick run SYRK", "-quick trace SYRK"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FLUIDIBENCH_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("fluidibench %s: %v\n%s", args, err, out)
		}
		if !strings.Contains(string(out), quick.InputDesc) || strings.Contains(string(out), full.InputDesc) {
			t.Errorf("fluidibench %s: want input %s, not %s:\n%s", args, quick.InputDesc, full.InputDesc, out)
		}
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
		{"run", func(name string) error { return runOne(name, true) }},
		{"trace", func(name string) error { return traceOne(name, true) }},
		{"dump", func(name string) error { return dumpOne(name, true) }},
	} {
		if err := e.call("atax"); err != nil {
			t.Errorf("fluidibench %s atax: %v", e.entry, err)
		}
		if err := e.call("nosuch"); err == nil {
			t.Errorf("fluidibench %s nosuch: no error", e.entry)
		}
	}
}
