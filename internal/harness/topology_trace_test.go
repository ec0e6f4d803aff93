package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
)

// topologyTraceBytes runs the quick-scale 2DCONV benchmark on the shared-bus
// four-GPU topology and returns the serialized Chrome trace.
func topologyTraceBytes(t *testing.T) []byte {
	t.Helper()
	b, err := polybench.ByNameQuick("2DCONV")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	res, err := sched.RunTopologyTraced(device.MustParseTopology("4gpu-bus"), b.App, core.Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		t.Fatalf("traced topology run produced wrong results: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTopologyChromeTrace pins the multi-link topology trace the same
// two ways as the twin-machine golden: one compute track and one link
// track per device of the four-GPU shared-bus topology; byte-for-byte
// equal to the committed golden file so every change to the N-way timeline
// (claim order, bus contention spans, ships, refreshes) is a reviewable
// diff. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/harness -run TestGoldenTopologyChromeTrace.
func TestGoldenTopologyChromeTrace(t *testing.T) {
	got := topologyTraceBytes(t)
	if !json.Valid(got) {
		t.Fatal("trace is not valid JSON")
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
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
	topo := device.MustParseTopology("4gpu-bus")
	for _, d := range topo.Devices {
		for _, want := range []string{d.Name, d.Name + " link"} {
			if !tracks[want] {
				t.Errorf("trace is missing track %q (have %v)", want, tracks)
			}
		}
	}

	golden := filepath.Join("testdata", "trace_2dconv_quick_4gpu_bus.json")
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
		t.Fatalf("topology trace differs from golden %s (got %d bytes, want %d); if the timeline change is intentional, regenerate with UPDATE_GOLDEN=1",
			golden, len(got), len(want))
	}
}

// TestTopologyTracedMatchesUntraced: attaching a recorder to a topology run
// must not perturb the simulation.
func TestTopologyTracedMatchesUntraced(t *testing.T) {
	topo := device.MustParseTopology("2cpu+2gpu")
	b1, _ := polybench.ByNameQuick("BICG")
	b2, _ := polybench.ByNameQuick("BICG")
	plain, err := sched.RunTopology(topo, b1.App, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sched.RunTopologyTraced(topo, b2.App, core.Options{}, trace.NewRecorder())
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
