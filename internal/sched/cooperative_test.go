package sched_test

import (
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// TestOneDriverBothProtocols runs one multi-kernel app through the single
// host driver under each cooperation protocol and checks what the unified
// surface promises: verified outputs, one report per launch with the
// protocol's shape, and refresh-planner counters only where a planner runs.
func TestOneDriverBothProtocols(t *testing.T) {
	for _, tc := range []struct {
		topology string
		nway     bool
	}{
		{"cpu+gpu", false},
		{"2cpu+2gpu", true},
		{"4gpu-bus", true},
	} {
		t.Run(tc.topology, func(t *testing.T) {
			b, err := polybench.ByNameQuick("2MM")
			if err != nil {
				t.Fatal(err)
			}
			topo, err := device.ParseTopology(tc.topology)
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
			if len(res.Reports) != len(b.App.Launches) {
				t.Fatalf("%d reports for %d launches", len(res.Reports), len(b.App.Launches))
			}
			for i, rep := range res.Reports {
				if rep.KID != i+1 || rep.Name != b.App.Launches[i].Kernel || rep.End < rep.Start {
					t.Errorf("report %d malformed: %+v", i, rep)
				}
				if got := rep.CPUWGs + rep.GPUExecuted; got < rep.TotalWGs {
					t.Errorf("report %d: devices executed %d of %d work-groups", i, got, rep.TotalWGs)
				}
				if tc.nway != (rep.DeviceWGs != nil) {
					t.Errorf("report %d: DeviceWGs = %v under nway=%v", i, rep.DeviceWGs, tc.nway)
				}
				if tc.nway && len(rep.DeviceWGs) != len(topo.Devices) {
					t.Errorf("report %d: %d DeviceWGs entries for %d devices", i, len(rep.DeviceWGs), len(topo.Devices))
				}
			}
			c := res.Counters
			if refreshed := c.RefreshDeltas != 0 || c.RefreshBytesSkipped != 0; refreshed != tc.nway {
				t.Errorf("refresh activity (deltas %d, bytes skipped %d) under nway=%v",
					c.RefreshDeltas, c.RefreshBytesSkipped, tc.nway)
			}
			if tc.nway && c.PrimeCopiesElided != 0 {
				t.Errorf("N-way run reported %d twin scratch primes", c.PrimeCopiesElided)
			}
			if c.BackendCounters != (vm.BackendCounters{}) {
				t.Errorf("per-run counters carry process-global backend activity: %+v", c.BackendCounters)
			}
		})
	}
}

// The pre-unification names must stay the unified types (bench/ compiles
// against them).
var (
	_ *core.Runtime = (*core.TopoRuntime)(nil)
	_ *core.Program = (*core.TopoProgram)(nil)
	_ *core.Kernel  = (*core.TopoKernel)(nil)
	_ *core.Buffer  = (*core.TopoBuffer)(nil)
)
