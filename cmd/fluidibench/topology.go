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
func runHash(w io.Writer, quick bool, topoSpec string) error {
	if topoSpec == "" {
		topoSpec = "cpu+gpu"
	}
	topo, err := device.ParseTopology(topoSpec)
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
			return fmt.Errorf("%s on %s: %w", b.Name, topoSpec, err)
		}
		if err := b.Verify(first.Outputs); err != nil {
			return fmt.Errorf("%s on %s: wrong results: %w", b.Name, topoSpec, err)
		}
		again, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			return fmt.Errorf("%s on %s (rerun): %w", b.Name, topoSpec, err)
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
	spec := topoSpec
	if spec == "" {
		spec = "cpu+gpu"
	}
	topo, err := device.ParseTopology(spec)
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
	if topoSpec == "" {
		cpu, gpu := res.Summary.ByKind("CPU"), res.Summary.ByKind("GPU")
		fmt.Printf("%s %s: %.3f ms virtual; CPU busy %.3f ms (%d wgs), GPU busy %.3f ms (%d wgs), overlap %.0f%%\n",
			b.Name, b.InputDesc, res.Time*1e3,
			cpu.Busy*1e3, cpu.WGsExecuted, gpu.Busy*1e3, gpu.WGsExecuted,
			res.Summary.OverlapFrac()*100)
		return nil
	}
	// OverlapFrac's pairwise ratio (BothBusy over the less-busy device) can
	// exceed 1 on more than two devices; report co-execution as the fraction
	// of wall time with at least two devices computing instead.
	coexec := 0.0
	if res.Time > 0 {
		coexec = res.Summary.BothBusy / res.Time
	}
	fmt.Printf("%s %s on %s: %.3f ms virtual, co-exec %.0f%% of wall\n",
		b.Name, b.InputDesc, topo.String(), res.Time*1e3, coexec*100)
	for _, d := range res.Summary.Devices {
		fmt.Printf("  %-28s busy %8.3f ms, %5d wgs, link busy %7.3f ms, wait %7.3f ms\n",
			d.Name, d.Busy*1e3, d.WGsExecuted, d.LinkBusy*1e3, d.LinkWait*1e3)
	}
	return nil
}

// runDistTopology is the -dist table on an N-device topology: one row per
// (benchmark, device) with that device's work-group share, busy time and
// link traffic, so the work-stealing balance across the whole device set is
// visible at a glance.
func runDistTopology(quick, csv bool, topoSpec string) error {
	topo, err := device.ParseTopology(topoSpec)
	if err != nil {
		return err
	}
	benches := polybench.AllWithExtras()
	if quick {
		benches = polybench.AllQuick()
	}
	t := &harness.Table{
		ID:    "dist",
		Title: fmt.Sprintf("FluidiCL work distribution on topology %s", topo.String()),
		Note: "per-benchmark FluidiCL run: one row per device with its share of the\n" +
			"work-groups, virtual busy and link time, and bytes over its host link\n" +
			"(rf-KB: delta-refresh H2D bytes; rf-skip-KB: refresh bytes the planner elided)",
		Columns: []string{"Benchmark", "Device", "WGs", "share", "busy", "link-busy", "link-wait", "H2D-KB", "rf-KB", "D2H-KB", "rf-skip-KB", "time-ms"},
	}
	for _, b := range benches {
		res, err := sched.RunTopology(topo, b.App, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		if err := b.Verify(res.Outputs); err != nil {
			return fmt.Errorf("%s: wrong results: %w", b.Name, err)
		}
		// Work-group counts come from the kernel reports (app kernels only);
		// busy/link figures come from the trace meter, indexed in topology
		// device order — the same order Topology.Build registered them.
		wgs := make([]int64, len(topo.Devices))
		var total int64
		for _, rep := range res.Reports {
			if rep.DeviceWGs != nil {
				for i, n := range rep.DeviceWGs {
					wgs[i] += int64(n)
				}
			} else {
				// Twin-path reports (degenerate cpu+gpu topology): CPU is
				// device 0, GPU is device 1.
				wgs[0] += int64(rep.CPUWGs)
				wgs[1] += int64(rep.GPUExecuted)
			}
		}
		for _, n := range wgs {
			total += n
		}
		for i := range topo.Devices {
			share := 0.0
			if total > 0 {
				share = float64(wgs[i]) / float64(total)
			}
			var d trace.DeviceMeter
			if i < len(res.Summary.Devices) {
				d = res.Summary.Devices[i]
			}
			name, timeCol, rfSkipCol := "", "", ""
			if i == 0 {
				name = b.Name
				timeCol = fmt.Sprintf("%.3f", res.Time*1e3)
				// rf-skip is benchmark-level (the planner books skips per
				// buffer and device, not per link), so it rides the first row.
				rfSkipCol = fmt.Sprintf("%.1f", float64(res.Counters.RefreshBytesSkipped)/1024)
			}
			t.AddRow(name,
				d.Name,
				fmt.Sprintf("%d", wgs[i]),
				fmt.Sprintf("%.0f%%", share*100),
				fmt.Sprintf("%.2fms", d.Busy*1e3),
				fmt.Sprintf("%.2fms", d.LinkBusy*1e3),
				fmt.Sprintf("%.2fms", d.LinkWait*1e3),
				fmt.Sprintf("%.1f", float64(d.BytesH2D)/1024),
				fmt.Sprintf("%.1f", float64(d.BytesRefresh)/1024),
				fmt.Sprintf("%.1f", float64(d.BytesD2H)/1024),
				rfSkipCol,
				timeCol)
		}
	}
	emit(t, csv)
	return nil
}
