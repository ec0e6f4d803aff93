// Acceptance tests for the N-device topology runtime (external package:
// polybench imports sched). The degenerate two-device topology must be
// bit-identical to the twin protocol; every larger topology must produce
// bit-exact Polybench results, deterministically, on every VM backend.
package sched_test

import (
	"bytes"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// TestTopologyPairBitIdentical pins the tentpole's compatibility guarantee:
// RunTopology("cpu+gpu") routes through the original twin protocol, so
// outputs, virtual time, kernel reports and the full Chrome trace are
// byte-identical to RunFluidiCL on the default machine.
func TestTopologyPairBitIdentical(t *testing.T) {
	topo := device.MustParseTopology("cpu+gpu")
	for _, name := range []string{"2DCONV", "BICG", "CORR"} {
		b, err := polybench.ByNameQuick(name)
		if err != nil {
			t.Fatal(err)
		}
		recTwin, recTopo := trace.NewRecorder(), trace.NewRecorder()
		twin, err := sched.RunFluidiCLTraced(sched.DefaultMachine(), b.App, core.Options{}, recTwin)
		if err != nil {
			t.Fatal(err)
		}
		topoRes, err := sched.RunTopologyTraced(topo, b.App, core.Options{}, recTopo)
		if err != nil {
			t.Fatal(err)
		}
		if twin.Time != topoRes.Time {
			t.Fatalf("%s: cpu+gpu topology time %v != twin time %v", name, topoRes.Time, twin.Time)
		}
		for out, want := range twin.Outputs {
			if !bytes.Equal(topoRes.Outputs[out], want) {
				t.Fatalf("%s: cpu+gpu topology output %q differs from twin run", name, out)
			}
		}
		var twinTrace, topoTrace bytes.Buffer
		if err := recTwin.WriteChrome(&twinTrace); err != nil {
			t.Fatal(err)
		}
		if err := recTopo.WriteChrome(&topoTrace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(twinTrace.Bytes(), topoTrace.Bytes()) {
			t.Fatalf("%s: cpu+gpu topology trace differs from twin trace (%d vs %d bytes)",
				name, topoTrace.Len(), twinTrace.Len())
		}
	}
}

// TestTopologyQuickSuite runs the full quick-scale Polybench suite on a
// four-device topology and verifies bit-exact results plus run-to-run
// determinism of outputs and virtual time.
func TestTopologyQuickSuite(t *testing.T) {
	topo := device.MustParseTopology("2cpu+2gpu")
	for _, b := range polybench.AllQuick() {
		first, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := b.Verify(first.Outputs); err != nil {
			t.Fatalf("2cpu+2gpu: %v", err)
		}
		again, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			t.Fatalf("%s (rerun): %v", b.Name, err)
		}
		if first.Time != again.Time {
			t.Fatalf("%s: virtual time not deterministic: %v vs %v", b.Name, first.Time, again.Time)
		}
		for out, want := range first.Outputs {
			if !bytes.Equal(again.Outputs[out], want) {
				t.Fatalf("%s: output %q not deterministic across reruns", b.Name, out)
			}
		}
		if len(first.Reports) == 0 {
			t.Fatalf("%s: no kernel reports", b.Name)
		}
		for _, rep := range first.Reports {
			if len(rep.DeviceWGs) != 4 {
				t.Fatalf("%s: report has %d device rows, want 4", b.Name, len(rep.DeviceWGs))
			}
			sum := 0
			for _, n := range rep.DeviceWGs {
				sum += n
			}
			if sum != rep.TotalWGs {
				t.Fatalf("%s kernel %s: device work-group counts sum to %d, want %d",
					b.Name, rep.Name, sum, rep.TotalWGs)
			}
		}
	}
}

// TestTopologyShapes verifies a spread of topology shapes — heterogeneous
// three-device, shared-bus four-GPU, and a single device — all produce
// bit-exact results.
func TestTopologyShapes(t *testing.T) {
	for _, spec := range []string{"cpu+2gpu", "4gpu-bus", "gpu", "bigcpu+gt440+gpu"} {
		topo := device.MustParseTopology(spec)
		for _, name := range []string{"2DCONV", "GESUMMV"} {
			b, err := polybench.ByNameQuick(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.RunTopology(topo, b.App, core.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, spec, err)
			}
			if err := b.Verify(res.Outputs); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		}
	}
}

// TestTopologyBackendParity runs one benchmark on a three-device topology
// under every VM backend: outputs and virtual time must be identical.
func TestTopologyBackendParity(t *testing.T) {
	topo := device.MustParseTopology("cpu+2gpu")
	b, err := polybench.ByNameQuick("ATAX")
	if err != nil {
		t.Fatal(err)
	}
	var ref *sched.Result
	for _, be := range []vm.Backend{vm.BackendInterp, vm.BackendWG} {
		res, err := sched.RunTopology(topo, b.App, core.Options{Backend: be})
		if err != nil {
			t.Fatalf("backend %v: %v", be, err)
		}
		if err := b.Verify(res.Outputs); err != nil {
			t.Fatalf("backend %v: %v", be, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Time != ref.Time {
			t.Fatalf("backend %v: time %v differs from reference %v", be, res.Time, ref.Time)
		}
		for out, want := range ref.Outputs {
			if !bytes.Equal(res.Outputs[out], want) {
				t.Fatalf("backend %v: output %q differs", be, out)
			}
		}
	}
}

// TestTopologyElisionCounters verifies the certificate-narrowed ships fire
// on a topology run: 2DCONV's slot-exact output must skip ship bytes.
func TestTopologyElisionCounters(t *testing.T) {
	topo := device.MustParseTopology("cpu+2gpu")
	b, err := polybench.ByNameQuick("2DCONV")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.RunTopology(topo, b.App, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		t.Fatal(err)
	}
	if res.Counters.ShipBytesSkipped == 0 {
		t.Fatal("expected narrowed ships to skip bytes on a topology run")
	}
}

// TestTopologyDeltaRefreshPlanner pins the delta-refresh planner's effect on
// a multi-kernel benchmark: chained kernels on a >2-device topology must
// skip refresh bytes (owner-skip plus unchanged-word elision) and enqueue at
// least one delta scatter-write, while results stay bit-exact.
func TestTopologyDeltaRefreshPlanner(t *testing.T) {
	topo := device.MustParseTopology("2cpu+2gpu")
	b, err := polybench.ByNameQuick("2MM")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.RunTopology(topo, b.App, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(res.Outputs); err != nil {
		t.Fatal(err)
	}
	if res.Counters.RefreshBytesSkipped == 0 {
		t.Fatal("multi-kernel topology run skipped no refresh bytes")
	}
	if res.Counters.RefreshDeltas == 0 {
		t.Fatal("multi-kernel topology run enqueued no delta refreshes")
	}
}
