package device

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"fluidicl/internal/sim"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec  string
		n     int
		names []string
		buses []string
	}{
		{"cpu+gpu", 2, []string{"Xeon W3550 (simulated)", "Tesla C2070 (simulated)"}, []string{"", ""}},
		{"2cpu+2gpu", 4,
			[]string{"Xeon W3550 (simulated) #0", "Xeon W3550 (simulated) #1", "Tesla C2070 (simulated) #0", "Tesla C2070 (simulated) #1"},
			[]string{"", "", "", ""}},
		{"4gpu-bus", 4,
			[]string{"Tesla C2070 (simulated) #0", "Tesla C2070 (simulated) #1", "Tesla C2070 (simulated) #2", "Tesla C2070 (simulated) #3"},
			[]string{"bus0", "bus0", "bus0", "bus0"}},
		{"bigcpu+gt440+gpu", 3, nil, []string{"", "", ""}},
		{"gpu+gpu", 2, []string{"Tesla C2070 (simulated) #0", "Tesla C2070 (simulated) #1"}, nil},
	}
	for _, c := range cases {
		topo, err := ParseTopology(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if len(topo.Devices) != c.n {
			t.Fatalf("%s: %d devices, want %d", c.spec, len(topo.Devices), c.n)
		}
		for i, want := range c.names {
			if got := topo.Devices[i].Name; got != want {
				t.Fatalf("%s: device %d named %q, want %q", c.spec, i, got, want)
			}
		}
		for i, want := range c.buses {
			if got := topo.Links[i].Bus; got != want {
				t.Fatalf("%s: link %d on bus %q, want %q", c.spec, i, got, want)
			}
		}
	}
	for _, bad := range []string{"", "3", "cpu+tpu", "0cpu", "-bus"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Fatalf("ParseTopology(%q) succeeded, want error", bad)
		}
	}
	// The count is outside input: a spec is refused before a Config is built.
	if topo, err := ParseTopology("32cpu+32gpu-bus"); err != nil || len(topo.Devices) != maxTopoDevices {
		t.Fatalf("a topology of %d devices: %v", maxTopoDevices, err)
	}
	for _, big := range []string{"65gpu", "1000000gpu", "999999999gpu", "64cpu+gpu", "9223372036854775807cpu+9223372036854775807gpu", "99999999999999999999gpu"} {
		if _, err := ParseTopology(big); err == nil {
			t.Fatalf("ParseTopology(%q) succeeded, want error", big)
		} else if msg := err.Error(); !strings.Contains(msg, "more than 64 devices") && !strings.Contains(msg, "bad device count") {
			t.Fatalf("ParseTopology(%q): %v, want the device limit", big, err)
		}
	}
}

// FuzzParseTopology: no spec makes the parser panic or build more than the
// device limit, and an accepted spec's String() parses back to the same
// device and link lists.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{"cpu+gpu", "2cpu+2gpu", "4gpu-bus", "bigcpu+gt440+gpu", " 2GPU + cpu -bus", "0cpu", "65gpu", "1000000gpu", "+", "3", "-bus", "cpu+tpu"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopology(spec)
		if err != nil {
			return
		}
		if n := len(topo.Devices); n < 1 || n > maxTopoDevices || len(topo.Links) != n {
			t.Fatalf("%q: %d devices, %d links", spec, n, len(topo.Links))
		}
		again, err := ParseTopology(topo.String())
		if err != nil || !reflect.DeepEqual(again.Devices, topo.Devices) || !reflect.DeepEqual(again.Links, topo.Links) {
			t.Fatalf("%q: String() %q parses back to %v (%d devices), want the same %d", spec, topo.String(), err, len(again.Devices), len(topo.Devices))
		}
	})
}

func TestTopologyPair(t *testing.T) {
	if _, _, ok := MustParseTopology("cpu+gpu").Pair(); !ok {
		t.Fatal("cpu+gpu should be the degenerate pair")
	}
	for _, spec := range []string{"gpu+gpu", "cpu+gpu-bus", "2cpu+2gpu", "gpu", "cpu+gpu+gpu"} {
		if _, _, ok := MustParseTopology(spec).Pair(); ok {
			t.Fatalf("%s should not be the degenerate pair", spec)
		}
	}
	// A latency/bandwidth override also disqualifies the twin fast path.
	topo := MustParseTopology("cpu+gpu")
	topo.Links[1].Latency = 1e-5
	if _, _, ok := topo.Pair(); ok {
		t.Fatal("overridden link should not be the degenerate pair")
	}
}

// busTopoTime runs one equal-size transfer per device of a two-GPU topology,
// started simultaneously, and returns the virtual completion time plus the
// meter's total link wait.
func busTopoTime(t *testing.T, spec string, bytes int) (sim.Time, float64) {
	t.Helper()
	env := sim.NewEnv()
	devs := MustParseTopology(spec).Build(env)
	var done []*sim.Event
	for _, d := range devs {
		tr := &Transfer{Bytes: bytes}
		d.NewQueue("app").Enqueue(tr)
		done = append(done, tr.Done)
	}
	env.Go("host", func(p *sim.Proc) { p.WaitAll(done...) })
	env.Run()
	wait := 0.0
	for _, d := range env.Meter.Summary().Devices {
		wait += d.LinkWait
	}
	return env.Now(), wait
}

// TestSharedBusSerializesAcrossDevices pins the topology contention model:
// the same two transfers that overlap on dedicated point-to-point links
// serialize when the devices share one bus, and the loser's wait shows up in
// the meter.
func TestSharedBusSerializesAcrossDevices(t *testing.T) {
	n := 1 << 20
	one := TeslaC2070().Link.TransferTime(n)

	p2p, p2pWait := busTopoTime(t, "2gpu", n)
	if math.Abs(p2p-one) > 1e-9 {
		t.Fatalf("point-to-point transfers took %v, want %v (full overlap)", p2p, one)
	}
	if p2pWait != 0 {
		t.Fatalf("point-to-point links recorded %v link wait, want 0", p2pWait)
	}

	bus, busWait := busTopoTime(t, "2gpu-bus", n)
	if math.Abs(bus-2*one) > 1e-9 {
		t.Fatalf("shared-bus transfers took %v, want %v (serialized)", bus, 2*one)
	}
	if busWait <= 0 {
		t.Fatal("shared-bus contention recorded no link wait")
	}
}

// TestTopologyLinkOverrides verifies per-link latency/bandwidth overrides
// reach the built device's transfer model.
func TestTopologyLinkOverrides(t *testing.T) {
	topo := MustParseTopology("2gpu")
	topo.Links[1].Latency = 1e-3
	topo.Links[1].BytesPerSec = 1e6
	env := sim.NewEnv()
	devs := topo.Build(env)
	n := 1 << 10
	fast := devs[0].Cfg.Link.TransferTime(n)
	slow := devs[1].Cfg.Link.TransferTime(n)
	want := 1e-3 + float64(n)/1e6
	if math.Abs(slow-want) > 1e-12 {
		t.Fatalf("overridden link transfer time %v, want %v", slow, want)
	}
	if slow <= fast {
		t.Fatal("overridden link should be slower than the stock link")
	}
}
