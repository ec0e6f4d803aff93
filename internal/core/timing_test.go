package core_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
)

// Timing-independent results. FluidiCL's correctness claim is that work
// flows to whichever device is faster and the answer does not change. The
// simulator is deterministic, so timing is a variable a test can set: each
// seed draws a scale factor for every cost field of every device, a
// topology, the runtime's options and one host program — an AllQuick app or
// one of TestTwinCoherence's programs — and runs the program under the twin
// protocol and under N-way. Its outputs must equal the reference bit for bit
// and Runtime.Err, where the runtime's cross-checks report, must stay nil.
// sim's same-time ordering rule is part of the model and is left alone:
// perturbing the costs already reorders the events that matter.

// timingSeeds are TestTimingIndependent's seeds and FuzzTiming's corpus:
// 1-26 run every program twice, and each later seed fails when one ordering
// of the twin protocol is dropped (CHANGES.md lists which seeds catch which):
// 103 when the CPU scheduler waits only for the buffers a kernel reads, 150
// and 204 when a ship to the GPU does not wait for its scratch's prime.
var timingSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 103, 150, 204}

// TestTimingIndependent runs every seed of timingSeeds.
func TestTimingIndependent(t *testing.T) {
	for _, seed := range timingSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkTiming(t, seed) })
	}
}

// FuzzTiming explores seeds beyond timingSeeds (make fuzz).
func FuzzTiming(f *testing.F) {
	for _, seed := range timingSeeds {
		f.Add(seed)
	}
	f.Fuzz(checkTiming)
}

// quickApps are the AllQuick benchmarks, built once: each carries its
// reference outputs.
var quickApps = sync.OnceValue(polybench.AllQuick)

// timingDraw draws one seed's perturbation.
type timingDraw struct{ r *rand.Rand }

// scale is a cost factor between 0.05 and 20, log-uniform.
func (d timingDraw) scale() float64 { return 0.05 * math.Pow(400, d.r.Float64()) }

// perturb scales every cost field of cfg by a factor of its own.
func (d timingDraw) perturb(cfg device.Config) device.Config {
	for _, f := range []*float64{&cfg.ClockHz, &cfg.IPC, &cfg.SpecialOpCost,
		&cfg.MemBytesPerSec, &cfg.SeqBytesPerSec, &cfg.RandBytesPerSec,
		&cfg.KernelLaunchOverhead, &cfg.WGOverhead, &cfg.SkipCost, &cfg.AbortNotice,
		&cfg.BarrierCost, &cfg.CopyBytesPerSec, &cfg.Link.LatencySec, &cfg.Link.BytesPerSec} {
		*f *= d.scale()
	}
	return cfg
}

// kind draws one device model.
func (d timingDraw) kind() device.Config {
	return []func() device.Config{device.XeonW3550, device.XeonDual, device.TeslaC2070, device.GT440}[d.r.IntN(4)]()
}

// topology returns devs, perturbed, followed by perturbed devices of drawn
// models up to two to four in all, every link on one shared bus or each on
// its own. Each link states its latency and bandwidth, so no topology is the
// stock pair that sched.RunTopology hands to the twin protocol.
func (d timingDraw) topology(devs ...device.Config) device.Topology {
	for n := 2 + d.r.IntN(3); len(devs) < n; {
		devs = append(devs, d.kind())
	}
	bus := ""
	if d.r.IntN(2) == 0 {
		bus = "bus0"
	}
	var names []string
	topo := device.Topology{}
	for i, cfg := range devs {
		cfg = d.perturb(cfg)
		cfg.Name = fmt.Sprintf("%s #%d", cfg.Name, i)
		names = append(names, cfg.Name)
		topo.Devices = append(topo.Devices, cfg)
		topo.Links = append(topo.Links, device.Link{Latency: cfg.Link.LatencySec, BytesPerSec: cfg.Link.BytesPerSec, Bus: bus})
	}
	topo.Name = strings.Join(names, " + ")
	if bus != "" {
		topo.Name += ", one shared bus"
	}
	return topo
}

// options draws every §6 toggle, the chunk and step sizes and the unroll
// factor.
func (d timingDraw) options() core.Options {
	return core.Options{
		InitialChunkPct:  0.5 + 30*d.r.Float64(),
		StepPct:          float64(d.r.IntN(8) - 1), // -1: constant chunks; 0: the default
		NoAbortInLoops:   d.r.IntN(2) == 0,
		NoUnroll:         d.r.IntN(2) == 0,
		UnrollFactor:     1 + d.r.IntN(8),
		NoWorkGroupSplit: d.r.IntN(2) == 0,
		OnlineProfiling:  d.r.IntN(2) == 0,
	}
}

// checkTiming runs the host program seed draws under both protocols.
func checkTiming(t *testing.T, seed uint64) {
	d := timingDraw{rand.New(rand.NewPCG(seed, 0x71e))}
	opts := d.options()
	fail := func(what, proto, on string, detail any) {
		t.Helper()
		t.Fatalf("seed %d, %s under %s on %s, options %+v: %v", seed, what, proto, on, opts, detail)
	}
	// The seed picks the program, so consecutive seeds cover every one.
	apps, progs := quickApps(), core.CoherencePrograms()
	pick := int(seed % uint64(len(apps)+len(progs)))
	if pick < len(apps) {
		b := apps[pick]
		cpu := d.perturb([]func() device.Config{device.XeonW3550, device.XeonDual}[d.r.IntN(2)]())
		gpu := d.perturb([]func() device.Config{device.TeslaC2070, device.GT440}[d.r.IntN(2)]())
		times := 1 + d.r.IntN(3)
		res, err := sched.RunFluidiCLRepeat(sched.Machine{CPU: cpu, GPU: gpu}, b.App, opts, times)
		if err == nil {
			err = b.Verify(res.Outputs)
		}
		if err != nil {
			fail(b.Name, "twin", fmt.Sprintf("%s + %s, %d runs", cpu.Name, gpu.Name, times), err)
		}
		topo := d.topology(d.kind())
		if res, err = sched.RunTopology(topo, b.App, opts); err == nil {
			err = b.Verify(res.Outputs)
		}
		if err != nil {
			fail(b.Name, "N-way", topo.Name, err)
		}
		return
	}
	p := progs[pick-len(apps)]
	cpu, gpu := d.perturb(p.CPU()), d.perturb(p.GPU())
	topo := d.topology(p.CPU(), p.GPU())
	for _, proto := range []string{"twin", "N-way"} {
		env, on := sim.NewEnv(), cpu.Name+" + "+gpu.Name
		var rt *core.Runtime
		var err error
		if proto == "twin" {
			rt, err = core.New(env, device.New(env, cpu), device.New(env, gpu), opts)
		} else {
			rt, err = core.NewTopo(env, topo.Build(env), opts)
			on = topo.Name
		}
		if err != nil {
			t.Fatal(err)
		}
		if bad := p.Run(t, env, rt); bad != "" {
			fail(p.Name, proto, on, bad)
		}
		if err := rt.Err(); err != nil {
			fail(p.Name, proto, on, err)
		}
	}
}
