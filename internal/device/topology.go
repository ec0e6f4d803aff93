package device

import (
	"fmt"
	"strconv"
	"strings"

	"fluidicl/internal/sim"
)

// Link describes one device's host interconnect inside a Topology. Zero
// Latency/BytesPerSec mean "use the device config's built-in link model".
// Links with the same non-empty Bus name share a single contention domain: a
// transfer on any of them occupies the bus for its whole duration, so
// concurrent transfers on sibling devices serialize (a PCIe switch or shared
// front-side bus). An empty Bus is a dedicated point-to-point link, which
// contends only with the device's own traffic — the behavior every
// pre-topology simulation had.
type Link struct {
	Latency     float64 // seconds; 0 = keep Config.Link.LatencySec
	BytesPerSec float64 // 0 = keep Config.Link.BytesPerSec
	Bus         string  // shared contention domain name; "" = point-to-point
}

// Topology is an N-device machine: a device set plus the interconnect graph
// linking every device to the host root. Links is parallel to Devices; a
// short Links slice is padded with zero-value (dedicated, config-default)
// links.
type Topology struct {
	Name    string
	Devices []Config
	Links   []Link
}

// link returns the i-th link spec, defaulting to a dedicated link.
func (t Topology) link(i int) Link {
	if i < len(t.Links) {
		return t.Links[i]
	}
	return Link{}
}

// Pair reports whether the topology is the degenerate two-device machine the
// FluidiCL twin-execution protocol was built for: exactly one CPU followed by
// one GPU, both on dedicated config-default links. Such topologies run
// through the original twin path so their results stay bit-identical.
func (t Topology) Pair() (cpu, gpu Config, ok bool) {
	if len(t.Devices) != 2 || t.Devices[0].Kind != CPU || t.Devices[1].Kind != GPU {
		return Config{}, Config{}, false
	}
	for i := range t.Devices {
		if l := t.link(i); l.Bus != "" || l.Latency != 0 || l.BytesPerSec != 0 {
			return Config{}, Config{}, false
		}
	}
	return t.Devices[0], t.Devices[1], true
}

// Build constructs the topology's devices in env, in declaration order (the
// order fixes meter indices and trace track ids, keeping runs deterministic).
// Devices naming a shared bus receive one sim.Resource per bus name.
func (t Topology) Build(env *sim.Env) []*Device {
	buses := map[string]*sim.Resource{}
	devs := make([]*Device, len(t.Devices))
	for i, cfg := range t.Devices {
		l := t.link(i)
		if l.Latency != 0 {
			cfg.Link.LatencySec = l.Latency
		}
		if l.BytesPerSec != 0 {
			cfg.Link.BytesPerSec = l.BytesPerSec
		}
		var bus *sim.Resource
		if l.Bus != "" {
			if buses[l.Bus] == nil {
				buses[l.Bus] = sim.NewResource(env, 1)
			}
			bus = buses[l.Bus]
		}
		devs[i] = NewOnBus(env, cfg, bus)
	}
	return devs
}

// String returns the topology's parse spelling (or a derived description).
func (t Topology) String() string {
	if t.Name != "" {
		return t.Name
	}
	parts := make([]string, len(t.Devices))
	for i, d := range t.Devices {
		parts[i] = strings.ToLower(d.Kind.String())
	}
	return strings.Join(parts, "+")
}

// topoKinds maps spec kind names to device model constructors.
var topoKinds = map[string]func() Config{
	"cpu":    XeonW3550,
	"gpu":    TeslaC2070,
	"gt440":  GT440,
	"bigcpu": XeonDual,
}

// maxTopoDevices bounds what a spec may ask for: the count is outside input,
// and every device costs a Config here and a simulated device with its
// buffers in the runtimes.
const maxTopoDevices = 64

// ParseTopology parses a topology spec of the form
//
//	term("+"term)* ["-bus"]      term = [count]kind
//
// where kind is one of cpu (Xeon W3550), gpu (Tesla C2070), gt440 (GeForce
// GT 440) or bigcpu (2x Xeon X5570). Examples: "cpu+gpu" (the paper's
// machine), "2cpu+2gpu" (dual-socket host with two GPUs on dedicated PCIe
// links), "4gpu-bus" (four GPUs behind one shared PCIe switch). The "-bus"
// suffix puts every device link on a single shared contention domain;
// without it each device gets a dedicated point-to-point link.
//
// When a kind appears more than once, its devices get " #i" name suffixes so
// meters and trace tracks stay distinguishable; a kind appearing once keeps
// its plain model name, which keeps "cpu+gpu" byte-identical to the
// pre-topology machine. A spec may name at most 64 devices in all.
func ParseTopology(spec string) (Topology, error) {
	t := Topology{Name: spec}
	s := strings.TrimSpace(strings.ToLower(spec))
	bus := ""
	if strings.HasSuffix(s, "-bus") {
		s = strings.TrimSuffix(s, "-bus")
		bus = "bus0"
	}
	if s == "" {
		return Topology{}, fmt.Errorf("device: empty topology spec %q", spec)
	}
	type term struct {
		count int
		make  func() Config
		kind  string
	}
	var terms []term
	total, kindTotal := 0, map[string]int{}
	for _, raw := range strings.Split(s, "+") {
		raw = strings.TrimSpace(raw)
		i := 0
		for i < len(raw) && raw[i] >= '0' && raw[i] <= '9' {
			i++
		}
		count := 1
		if i > 0 {
			n, err := strconv.Atoi(raw[:i])
			if err != nil || n < 1 {
				return Topology{}, fmt.Errorf("device: bad device count in topology term %q", raw)
			}
			count = n
		}
		if count > maxTopoDevices-total {
			return Topology{}, fmt.Errorf("device: topology %q has more than %d devices", spec, maxTopoDevices)
		}
		total += count
		kind := raw[i:]
		mk, ok := topoKinds[kind]
		if !ok {
			return Topology{}, fmt.Errorf("device: unknown device kind %q in topology %q (have cpu, gpu, gt440, bigcpu)", kind, spec)
		}
		terms = append(terms, term{count: count, make: mk, kind: kind})
		kindTotal[kind] += count
	}
	kindSeen := map[string]int{}
	for _, tm := range terms {
		for j := 0; j < tm.count; j++ {
			cfg := tm.make()
			if kindTotal[tm.kind] > 1 {
				cfg.Name = fmt.Sprintf("%s #%d", cfg.Name, kindSeen[tm.kind])
			}
			kindSeen[tm.kind]++
			t.Devices = append(t.Devices, cfg)
			t.Links = append(t.Links, Link{Bus: bus})
		}
	}
	if len(t.Devices) == 0 {
		return Topology{}, fmt.Errorf("device: topology %q has no devices", spec)
	}
	return t, nil
}

// MustParseTopology is ParseTopology for known-good specs.
func MustParseTopology(spec string) Topology {
	t, err := ParseTopology(spec)
	if err != nil {
		panic(err)
	}
	return t
}
