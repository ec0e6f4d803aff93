package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/harness"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// outputHash digests a run's output buffers in name-sorted order, matching
// the harness determinism tests' scheme, so hashes are comparable across
// topologies, backends and worker counts.
func outputHash(outputs map[string][]byte) string {
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(outputs[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runHash runs every benchmark under FluidiCL on the given topology, twice
// each, and writes one "NAME HASH" line per benchmark to w. Each run is
// verified bit-exactly against the benchmark's single-device reference
// outputs, and the two runs must agree on output hash and virtual time; any
// failure exits nonzero. Because outputs are reference-verified, the printed hashes are
// identical across every topology — the CI matrix diffs them to prove it.
// It adds every run's counters and summary to e, in run order.
func runHash(w io.Writer, quick bool, topoSpec string, e *wallEntry) error {
	topo, err := topologyFor(topoSpec)
	if err != nil {
		return err
	}
	benches := polybench.AllWithExtras()
	if quick {
		benches = polybench.AllQuick()
	}
	for _, b := range benches {
		first, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			return fmt.Errorf("%s on %s: %w", b.Name, topo, err)
		}
		if err := b.Verify(first.Outputs); err != nil {
			return fmt.Errorf("%s on %s: wrong results: %w", b.Name, topoSpec, err)
		}
		again, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			return fmt.Errorf("%s on %s (rerun): %w", b.Name, topoSpec, err)
		}
		for _, res := range []*sched.Result{first, again} {
			e.ctr = e.ctr.Add(res.Counters)
			e.sum.Add(res.Summary)
		}
		h1, h2 := outputHash(first.Outputs), outputHash(again.Outputs)
		if h1 != h2 {
			return fmt.Errorf("%s on %s: output hash not deterministic (%s vs %s)", b.Name, topoSpec, h1, h2)
		}
		if first.Time != again.Time {
			return fmt.Errorf("%s on %s: virtual time not deterministic (%v vs %v)", b.Name, topoSpec, first.Time, again.Time)
		}
		fmt.Fprintf(w, "%s %s\n", b.Name, h1)
	}
	return nil
}

// topologyFor parses a -topology value; empty means the paper's cpu+gpu
// machine, which runs the twin protocol.
func topologyFor(spec string) (device.Topology, error) {
	if spec == "" {
		spec = "cpu+gpu"
	}
	return device.ParseTopology(spec)
}

// coExec is the fraction of a run's virtual time during which two or more
// devices computed: unlike Summary.OverlapFrac (BothBusy over the least-busy
// device's busy time) it stays within [0, 1] on any device count.
func coExec(res *sched.Result) float64 {
	if res.Time <= 0 {
		return 0
	}
	return res.Summary.BothBusy / res.Time
}

// chromeTrace runs one benchmark under FluidiCL with the event recorder
// attached and writes the recording as Chrome trace_event JSON: one compute
// and one link track per simulated device (shared-bus contention visible as
// link-wait spans) and, under the twin protocol, one for the runtime's
// scheduling decisions. The file loads in chrome://tracing and Perfetto. An
// empty topoSpec means the paper's cpu+gpu machine, which the degenerate
// `-topology cpu+gpu` reproduces byte for byte.
func chromeTrace(name string, quick bool, out, topoSpec string) error {
	b, err := benchFor(name, quick)
	if err != nil {
		return err
	}
	topo, err := topologyFor(topoSpec)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	res, err := sched.RunTopologyTraced(topo, b.App, core.Options{}, rec)
	if err != nil {
		return err
	}
	if err := b.Verify(res.Outputs); err != nil {
		return fmt.Errorf("wrong results: %w", err)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events on %d tracks (open in chrome://tracing or ui.perfetto.dev)\n",
		out, len(rec.Events()), len(rec.Tracks()))
	fmt.Printf("%s %s on %s: %.3f ms virtual, co-exec %.0f%% of wall\n",
		b.Name, b.InputDesc, topo, res.Time*1e3, coExec(res)*100)
	for _, d := range res.Summary.Devices {
		fmt.Printf("  %-28s busy %8.3f ms, %5d wgs, link busy %7.3f ms, wait %7.3f ms\n",
			d.Name, d.Busy*1e3, d.WGsExecuted, d.LinkBusy*1e3, d.LinkWait*1e3)
	}
	return nil
}

// runDist is the work-distribution table (paper §5.5) on a topology, the
// paper's cpu+gpu machine when topoSpec is empty: one row per (benchmark,
// device) with that device's work-group share, virtual busy and link time
// and the bytes over its host link. A benchmark's first row also carries
// what belongs to the whole run: the refresh bytes the planner elided,
// co-execution, the VM's lockstep and fusion counters over the run, and the
// virtual time.
func runDist(quick, csv bool, topoSpec string) error {
	topo, err := topologyFor(topoSpec)
	if err != nil {
		return err
	}
	benches := polybench.AllWithExtras()
	if quick {
		benches = polybench.AllQuick()
	}
	t := &harness.Table{
		ID:    "dist",
		Title: fmt.Sprintf("FluidiCL work distribution on topology %s (paper §5.5)", topo),
		Note: "per-benchmark FluidiCL run: one row per device with its share of the work-groups\n" +
			"(app kernels only), virtual busy and link time, and bytes over its host link\n" +
			"(rf-KB: delta-refresh H2D bytes); on the first row, per run: rf-skip-KB, refresh\n" +
			"bytes the planner elided; co-exec, the share of time two or more devices computed;\n" +
			"the VM's one-lane-set groups, dominant certificate reject and fusion coverage",
		Columns: []string{"Benchmark", "Device", "WGs", "share", "busy", "link-busy", "link-wait", "H2D-KB", "rf-KB", "D2H-KB",
			"rf-skip-KB", "co-exec", "wg-fb", "wg-reject", "wg-fused", "fuse-cov", "fuse-dyn", "time-ms"},
	}
	for _, b := range benches {
		before := vm.BackendSnapshot()
		res, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		delta := vmSince(before)
		if err := b.Verify(res.Outputs); err != nil {
			return fmt.Errorf("%s: wrong results: %w", b.Name, err)
		}
		// Work-group counts come from the kernel reports (app kernels only);
		// busy/link figures come from the trace meter. Both are in the
		// runtime's device order, the order Topology.Build registered them.
		wgs := make([]int64, len(res.Summary.Devices))
		var total int64
		for _, rep := range res.Reports {
			for i, n := range rep.DeviceWGs {
				wgs[i] += int64(n)
				total += int64(n)
			}
		}
		run := []string{
			fmt.Sprintf("%.1f", float64(res.Counters.RefreshBytesSkipped)/1024),
			fmt.Sprintf("%.0f%%", coExec(res)*100),
			fmt.Sprintf("%d", delta.WGFallbackWGs),
			dominantReject(delta),
			fmt.Sprintf("%d", delta.WGFusedBlocks),
			fusedShare(delta.WGFusedSteps, delta.WGFuseFallbackSteps),
			fusedShare(delta.WGFusedInstrsDyn, delta.WGStepInstrsDyn),
			fmt.Sprintf("%.3f", res.Time*1e3),
		}
		name := b.Name
		for i, d := range res.Summary.Devices {
			share := 0.0
			if total > 0 {
				share = float64(wgs[i]) / float64(total)
			}
			t.AddRow(append([]string{name, d.Name,
				fmt.Sprintf("%d", wgs[i]),
				fmt.Sprintf("%.0f%%", share*100),
				fmt.Sprintf("%.2fms", d.Busy*1e3),
				fmt.Sprintf("%.2fms", d.LinkBusy*1e3),
				fmt.Sprintf("%.2fms", d.LinkWait*1e3),
				fmt.Sprintf("%.1f", float64(d.BytesH2D)/1024),
				fmt.Sprintf("%.1f", float64(d.BytesRefresh)/1024),
				fmt.Sprintf("%.1f", float64(d.BytesD2H)/1024)}, run...)...)
			// The run's figures ride the first row only.
			name, run = "", make([]string, len(run))
		}
	}
	emit(t, csv)
	return nil
}

// fusedShare formats fused/(fused+stepped) for the two fusion columns: fuse-cov
// is the fraction of wg-compiled instructions absorbed into fused block
// closures, fuse-dyn the fraction of executed block-body instructions that
// ran through them. "-" when the run counted neither.
func fusedShare(fused, stepped int64) string {
	if fused+stepped == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", float64(fused)/float64(fused+stepped)*100)
}

// dominantReject names the most frequent certificate rejection in a counter
// delta, or "-" when no work-group ran in one-lane sets.
func dominantReject(c core.Counters) string {
	best, n := "-", int64(0)
	for i, name := range vm.WGRejectNames() {
		if c.WGRejects[i] > n {
			best, n = name, c.WGRejects[i]
		}
	}
	return best
}
