package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
)

// chromeTraceBytes runs the quick-scale 2DCONV benchmark under FluidiCL and
// returns the serialized Chrome trace.
func chromeTraceBytes(t *testing.T) []byte {
	t.Helper()
	b, err := polybench.ByNameQuick("2DCONV")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	res, err := sched.RunTopologyTraced(device.MustParseTopology("cpu+gpu"), b.App, core.Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		t.Fatalf("traced run produced wrong results: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenChromeTrace pins the trace bytes two ways: they must be valid
// trace_event JSON with one track per simulated device, one per link and one
// for the runtime; and byte-for-byte equal to the committed golden file, so
// any change to the simulation's event timeline shows up as a reviewable
// diff. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/harness -run TestGoldenChromeTrace.
func TestGoldenChromeTrace(t *testing.T) {
	got := chromeTraceBytes(t)
	if !json.Valid(got) {
		t.Fatal("trace is not valid JSON")
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if e.Name == "thread_name" {
			tracks[e.Args["name"].(string)] = true
		}
	}
	m := sched.DefaultMachine()
	for _, want := range []string{m.CPU.Name, m.CPU.Name + " link", m.GPU.Name, m.GPU.Name + " link", "FluidiCL runtime"} {
		if !tracks[want] {
			t.Errorf("trace is missing track %q (have %v)", want, tracks)
		}
	}

	golden := filepath.Join("testdata", "trace_2dconv_quick.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from golden %s (got %d bytes, want %d); if the timeline change is intentional, regenerate with UPDATE_GOLDEN=1",
			golden, len(got), len(want))
	}
}

// TestTracedRunMatchesUntraced: attaching a recorder must not perturb the
// simulation — virtual completion time and outputs are identical.
func TestTracedRunMatchesUntraced(t *testing.T) {
	b1, _ := polybench.ByNameQuick("BICG")
	b2, _ := polybench.ByNameQuick("BICG")
	plain, err := sched.RunFluidiCL(sched.DefaultMachine(), b1.App, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sched.RunTopologyTraced(device.MustParseTopology("cpu+gpu"), b2.App, core.Options{}, trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != traced.Time {
		t.Fatalf("virtual time changed under tracing: %v vs %v", plain.Time, traced.Time)
	}
	if outputHash(plain.Outputs) != outputHash(traced.Outputs) {
		t.Fatal("outputs changed under tracing")
	}
}

// TestResultSummaryPopulated: every strategy attaches a meter summary, and
// FluidiCL's reflects cooperative execution (both devices busy, both
// directions of link traffic).
func TestResultSummaryPopulated(t *testing.T) {
	b, _ := polybench.ByNameQuick("SYRK")
	res, err := sched.RunFluidiCL(sched.DefaultMachine(), b.App, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cpu := res.Summary.ByKind("CPU")
	gpu := res.Summary.ByKind("GPU")
	if cpu.Busy <= 0 || gpu.Busy <= 0 {
		t.Fatalf("expected both devices busy: CPU %v, GPU %v", cpu.Busy, gpu.Busy)
	}
	if cpu.BytesH2D+gpu.BytesH2D == 0 {
		t.Fatal("no host-to-device traffic metered")
	}
	if gpu.BytesD2H == 0 {
		t.Fatal("no device-to-host traffic metered on the GPU")
	}
	if res.Summary.BothBusy <= 0 {
		t.Fatal("no compute overlap metered for a cooperative run")
	}

	single, err := sched.RunSingle(sched.DefaultMachine().GPU, mustQuick(t, "SYRK").App)
	if err != nil {
		t.Fatal(err)
	}
	g := single.Summary.ByKind("GPU")
	if g.Busy <= 0 {
		t.Fatalf("single-device summary empty: %+v", g)
	}
	if single.Summary.BothBusy != 0 {
		t.Fatalf("single-device run reports overlap %v", single.Summary.BothBusy)
	}
}

func mustQuick(t *testing.T, name string) *polybench.Benchmark {
	t.Helper()
	b, err := polybench.ByNameQuick(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickNamesCoverAll: every full-scale benchmark has a quick variant
// under the same name (fluidibench -quick resolution relies on this).
func TestQuickNamesCoverAll(t *testing.T) {
	quick := map[string]bool{}
	for _, b := range polybench.AllQuick() {
		quick[b.Name] = true
	}
	for _, b := range polybench.AllWithExtras() {
		if !quick[b.Name] {
			t.Errorf("benchmark %s has no quick variant", b.Name)
		}
	}
	if !quick[strings.ToUpper("2dconv")] {
		t.Error("2DCONV missing from quick set")
	}
}
