package trace

// maxDevices bounds the fixed-size device array inside Meter. A Meter is
// embedded by value in sim.Env so that metering never allocates; the largest
// topology the experiments build has four devices, so eight is generous.
// Devices registered beyond the bound are simply not metered.
const maxDevices = 8

// DeviceMeter accumulates per-device aggregates. All times are virtual
// seconds; "link" fields cover the device's host interconnect.
type DeviceMeter struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // "CPU" or "GPU"
	Busy     float64 `json:"busy_seconds"`
	LinkBusy float64 `json:"link_busy_seconds"`
	LinkWait float64 `json:"link_wait_seconds"`
	BytesH2D int64   `json:"bytes_h2d"`
	BytesD2H int64   `json:"bytes_d2h"`
	// BytesRefresh is the subset of BytesH2D carried by "refresh"-tagged
	// transfers: post-kernel coherence traffic (the N-way delta refresh, or
	// the old full rebroadcast) as opposed to input uploads and result ships.
	BytesRefresh int64 `json:"bytes_refresh"`
	// WGs is the app work-groups the device computed, summed from the
	// cooperative runtime's kernel reports once the run ends (the meter
	// itself counts no launches). Baseline runs leave it zero.
	WGs int64 `json:"wgs"`
}

// add accumulates o's counts and times into d; the name and kind stay d's.
func (d *DeviceMeter) add(o DeviceMeter) {
	d.Busy += o.Busy
	d.LinkBusy += o.LinkBusy
	d.LinkWait += o.LinkWait
	d.BytesH2D += o.BytesH2D
	d.BytesD2H += o.BytesD2H
	d.BytesRefresh += o.BytesRefresh
	d.WGs += o.WGs
}

// Meter is the always-on aggregate accumulator. It lives by value inside
// sim.Env; devices register themselves at construction and report launches
// and transfers as they retire. All updates happen inside the cooperative
// simulation engine, so plain fields suffice — and nothing here allocates.
type Meter struct {
	ndev int
	dev  [maxDevices]DeviceMeter

	// Compute-overlap tracking. Each device runs at most one launch at a
	// time (launches serialize on the device's in-order queue process), so
	// counting active launches counts busy devices. When the count rises to
	// two, at least two devices are computing; the time until it drops back
	// below two is accumulated as BothBusy — the paper's §5.5 overlap that
	// hides transfer and scheduling overhead, generalized to "two or more
	// devices busy" on an N-device topology (the 3->2 transition records
	// nothing and the 2->1 transition closes the whole interval, so the
	// accumulator is exact for any device count).
	active    int
	bothSince float64
	bothBusy  float64
}

// AddDevice registers a device and returns its meter index, or -1 when the
// device table is full (such devices are silently unmetered).
func (m *Meter) AddDevice(name, kind string) int {
	if m.ndev >= maxDevices {
		return -1
	}
	m.dev[m.ndev] = DeviceMeter{Name: name, Kind: kind}
	m.ndev++
	return m.ndev - 1
}

// LaunchBegin marks device i starting a kernel launch at virtual time now.
func (m *Meter) LaunchBegin(i int, now float64) {
	if i < 0 {
		return
	}
	m.active++
	if m.active == 2 {
		m.bothSince = now
	}
}

// LaunchEnd marks device i finishing the launch begun at start.
func (m *Meter) LaunchEnd(i int, start, end float64) {
	if i < 0 {
		return
	}
	m.dev[i].Busy += end - start
	if m.active == 2 {
		m.bothBusy += end - m.bothSince
	}
	m.active--
}

// TransferEnd records a completed link transfer on device i: wait seconds
// spent queued behind other link traffic, busy seconds on the wire, and the
// payload size. toDevice distinguishes host-to-device from device-to-host;
// refresh marks post-kernel coherence traffic ("refresh"-labeled transfers)
// so delta-refresh savings are visible separately from input uploads.
func (m *Meter) TransferEnd(i int, wait, busy float64, bytes int, toDevice, refresh bool) {
	if i < 0 {
		return
	}
	d := &m.dev[i]
	d.LinkWait += wait
	d.LinkBusy += busy
	if toDevice {
		d.BytesH2D += int64(bytes)
		if refresh {
			d.BytesRefresh += int64(bytes)
		}
	} else {
		d.BytesD2H += int64(bytes)
	}
}

// Summary snapshots the meter into the exported per-run aggregate.
func (m *Meter) Summary() Summary {
	s := Summary{BothBusy: m.bothBusy}
	s.Devices = make([]DeviceMeter, m.ndev)
	copy(s.Devices[:], m.dev[:m.ndev])
	return s
}

// Summary is the per-run aggregate attached to sched.Result next to the
// elision Counters: who computed for how long, how work-groups were split
// across devices, how many bytes moved in each direction, and how much of
// the computation overlapped across devices.
type Summary struct {
	Devices []DeviceMeter `json:"devices,omitempty"`
	// BothBusy is the virtual time during which at least two devices were
	// computing simultaneously (the §5.5 overlap).
	BothBusy float64 `json:"both_busy_seconds"`
}

// ByKind sums the device meters of the given kind ("CPU" or "GPU") into one.
func (s Summary) ByKind(kind string) DeviceMeter {
	out := DeviceMeter{Kind: kind}
	for _, d := range s.Devices {
		if d.Kind != kind {
			continue
		}
		if out.Name == "" {
			out.Name = d.Name
		}
		out.add(d)
	}
	return out
}

// OverlapFrac returns BothBusy as a fraction of the smaller device busy
// time — 1.0 means the less-busy device computed entirely in the shadow of
// the other, 0 means the devices took strict turns.
func (s Summary) OverlapFrac() float64 {
	minBusy := 0.0
	for i, d := range s.Devices {
		if i == 0 || d.Busy < minBusy {
			minBusy = d.Busy
		}
	}
	if minBusy <= 0 {
		return 0
	}
	return s.BothBusy / minBusy
}

// Add accumulates o into s field-by-field, matching devices by kind (the
// harness runs many independent simulations per experiment; their summaries
// add into one per-experiment aggregate).
func (s *Summary) Add(o Summary) {
	s.BothBusy += o.BothBusy
	for _, od := range o.Devices {
		merged := false
		for i := range s.Devices {
			if s.Devices[i].Kind == od.Kind {
				s.Devices[i].add(od)
				merged = true
				break
			}
		}
		if !merged {
			s.Devices = append(s.Devices, od)
		}
	}
}
