// Package device simulates the heterogeneous machine FluidiCL runs on: a
// discrete-memory GPU and a multi-core CPU OpenCL device, each with in-order
// command queues, connected to the host by links with latency and bandwidth.
//
// Kernels execute for real (package vm) one work-group at a time; the
// device's cost model converts each work-group's dynamic statistics into
// virtual seconds. The GPU model charges SIMT-width-parallel ALU time plus
// per-warp memory transactions (so column-strided access patterns are slow,
// as on real hardware); the CPU model charges serial per-thread ALU time
// plus a stride-sensitive cache model (so per-work-item sequential access is
// fast). This asymmetry is what makes different kernels favour different
// devices — the phenomenon FluidiCL exploits.
package device

import (
	"fmt"

	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// Kind distinguishes device models.
type Kind int

// Device kinds.
const (
	CPU Kind = iota
	GPU
)

func (k Kind) String() string {
	if k == CPU {
		return "CPU"
	}
	return "GPU"
}

// LinkConfig models the host<->device interconnect.
type LinkConfig struct {
	LatencySec  float64
	BytesPerSec float64
}

// TransferTime returns the modelled duration of moving n bytes.
func (l LinkConfig) TransferTime(n int) float64 {
	return l.LatencySec + float64(n)/l.BytesPerSec
}

// Config is a device cost model.
type Config struct {
	Name         string
	Kind         Kind
	ComputeUnits int // GPU: SMs; CPU: hardware threads

	// ALU model.
	ClockHz       float64
	LanesPerCU    int     // SIMT width (1 for CPU)
	IPC           float64 // ops per cycle per lane
	SpecialOpCost float64 // sqrt/exp/pow cost in plain-op units

	// GPU memory model: each per-warp transaction moves TxBytes at
	// MemBytesPerSec of per-compute-unit bandwidth.
	TxBytes        int
	MemBytesPerSec float64

	// CPU memory model: stride-classified bytes.
	SeqBytesPerSec  float64
	RandBytesPerSec float64

	// Occupancy is the number of work-groups resident per compute unit
	// (GPU SMs interleave many resident work-groups; each then progresses
	// at 1/Occupancy rate, keeping aggregate throughput unchanged). This
	// matters for FluidiCL: the more work-groups are in flight, the more
	// work the in-loop abort checks can cut short (§6.4). 0 means 1.
	Occupancy int

	// Overheads.
	KernelLaunchOverhead float64 // per enqueued kernel
	WGOverhead           float64 // per work-group dispatch
	SkipCost             float64 // launching a work-group that aborts at entry
	AbortNotice          float64 // delay for an in-loop check to observe a status change
	BarrierCost          float64 // per barrier crossing

	// CopyBytesPerSec is device-internal buffer-copy bandwidth.
	CopyBytesPerSec float64

	Link LinkConfig
}

// CopyTime returns the modelled duration of a device-internal copy.
func (c Config) CopyTime(n int) float64 {
	return 2e-6 + float64(n)/c.CopyBytesPerSec
}

// TeslaC2070 returns the GPU model used throughout the experiments,
// calibrated to the paper's NVidia Tesla C2070 (14 SMs, 32 lanes,
// 1.15 GHz, ~130 GB/s effective bandwidth, PCIe 2.0 x16).
func TeslaC2070() Config {
	return Config{
		Name:                 "Tesla C2070 (simulated)",
		Kind:                 GPU,
		ComputeUnits:         14,
		ClockHz:              1.15e9,
		LanesPerCU:           32,
		IPC:                  1.0,
		Occupancy:            6,
		SpecialOpCost:        4,
		TxBytes:              64,
		MemBytesPerSec:       9.2e9, // per SM; ~129 GB/s aggregate
		KernelLaunchOverhead: 6e-6,
		WGOverhead:           0.4e-6,
		SkipCost:             0.25e-6,
		AbortNotice:          2e-6,
		BarrierCost:          0.2e-6,
		CopyBytesPerSec:      80e9,
		Link:                 LinkConfig{LatencySec: 10e-6, BytesPerSec: 5.6e9},
	}
}

// XeonW3550 returns the CPU model, calibrated to the paper's quad-core
// Intel Xeon W3550 with hyper-threading (8 hardware threads) running the
// AMD APP CPU OpenCL runtime, which executes each work-group on one thread.
func XeonW3550() Config {
	return Config{
		Name:                 "Xeon W3550 (simulated)",
		Kind:                 CPU,
		ComputeUnits:         8,
		ClockHz:              3.07e9,
		LanesPerCU:           1,
		IPC:                  1.6, // 4 physical cores, 8 threads
		SpecialOpCost:        12,
		SeqBytesPerSec:       6.5e9,
		RandBytesPerSec:      0.9e9,
		KernelLaunchOverhead: 12e-6, // per (sub)kernel enqueue on the CPU runtime
		WGOverhead:           1.5e-6,
		SkipCost:             0.15e-6,
		AbortNotice:          2e-6,
		BarrierCost:          1e-6,
		CopyBytesPerSec:      8e9,
		// "Transfers" to the CPU OpenCL device are host-memory copies.
		Link: LinkConfig{LatencySec: 2e-6, BytesPerSec: 8e9},
	}
}

// GT440 returns a much weaker entry-level GPU model (2 SMs, narrow memory
// bus) — the "different machine" used by the portability experiment: on
// such a machine most kernels prefer the CPU, and a portable runtime must
// adapt without retuning.
func GT440() Config {
	c := TeslaC2070()
	c.Name = "GeForce GT 440 (simulated)"
	c.ComputeUnits = 2
	c.ClockHz = 0.81e9
	c.MemBytesPerSec = 7e9 // ~14 GB/s aggregate
	c.Link = LinkConfig{LatencySec: 12e-6, BytesPerSec: 3e9}
	return c
}

// XeonDual returns a dual-socket, 16-hardware-thread CPU model — a stronger
// host for the portability experiment.
func XeonDual() Config {
	c := XeonW3550()
	c.Name = "2x Xeon X5570 (simulated)"
	c.ComputeUnits = 16
	return c
}

// WGTime converts one work-group's dynamic stats into seconds on this
// device. split > 1 divides the time across that many otherwise-idle
// hardware threads (the CPU work-group splitting optimization, §6.3).
func (c Config) WGTime(st vm.Stats, split int) float64 {
	ops := float64(st.IntOps+st.FloatOps+st.Branches) + float64(float64(st.SpecialOps)*c.SpecialOpCost)
	var t float64
	switch c.Kind {
	case GPU:
		alu := ops / (float64(c.LanesPerCU) * c.IPC * c.ClockHz)
		alu += float64(st.LocalAccesses) / (float64(c.LanesPerCU) * c.ClockHz)
		mem := float64(st.WarpTransactions) * float64(c.TxBytes) / c.MemBytesPerSec
		if alu > mem {
			t = alu
		} else {
			t = mem
		}
	default:
		alu := ops / (c.IPC * c.ClockHz)
		mem := float64(st.SeqBytes)/c.SeqBytesPerSec + float64(st.RandBytes)/c.RandBytesPerSec
		mem += float64(st.LocalAccesses) * 4 / c.SeqBytesPerSec
		t = alu + mem
	}
	t += float64(float64(st.Barriers) * c.BarrierCost)
	if split > 1 {
		t = t/float64(split) + float64(c.WGOverhead*float64(split-1))
	}
	return t + c.WGOverhead
}

// Device is a simulated compute device.
type Device struct {
	Env  *sim.Env
	Cfg  Config
	link *sim.Resource

	// Observability handles: mi is this device's index in env.Meter; trk and
	// linkTrk are recorder track ids for the device's compute lane and its
	// host link (-1 until registered).
	mi      int
	trk     int
	linkTrk int
}

// New creates a device in env with a dedicated point-to-point host link. If
// env.Trace is already set, the device registers its compute and link tracks
// now (so every device and link gets a track even if it stays idle);
// otherwise tracks are registered lazily on the first recorded event.
func New(env *sim.Env, cfg Config) *Device {
	return NewOnBus(env, cfg, nil)
}

// NewOnBus creates a device whose host link contends on the given shared bus
// resource: transfers on every device sharing the resource serialize, as on
// a PCIe switch or shared front-side bus (Topology.Build wires this up). A
// nil bus gives the device a dedicated point-to-point link, which is New's
// behavior and contends only with the device's own queued transfers.
func NewOnBus(env *sim.Env, cfg Config, bus *sim.Resource) *Device {
	link := bus
	if link == nil {
		link = sim.NewResource(env, 1)
	}
	d := &Device{Env: env, Cfg: cfg, link: link, trk: -1, linkTrk: -1}
	d.mi = env.Meter.AddDevice(cfg.Name, cfg.Kind.String())
	if rec := env.Trace; rec != nil {
		d.registerTracks(rec)
	}
	return d
}

// AbortQuery lets the GPU launch executor ask whether a work-group has
// already been completed by the other device (FluidiCL supplies this; it is
// nil for ordinary launches).
type AbortQuery interface {
	// DoneAt reports whether flattened group fgid was complete on the other
	// device as of virtual time t (computed data and status had arrived).
	DoneAt(fgid int, t sim.Time) bool
	// DoneSince returns the earliest status-update time u with
	// after < u <= now that marks fgid complete.
	DoneSince(fgid int, after sim.Time) (sim.Time, bool)
	// Changed returns an event that fires at the next status update.
	Changed() *sim.Event
}

// LaunchResult reports a completed kernel launch.
type LaunchResult struct {
	Stats    vm.Stats
	Executed int // work-groups run to completion here
	Skipped  int // work-groups skipped by the entry abort check
	Aborted  int // work-groups aborted mid-flight by in-loop checks
	// Started flips as soon as the device begins the launch (after any
	// queued transfers ahead of it). FluidiCL uses it to decide whether a
	// CPU-did-all completion can return without waiting for a GPU kernel
	// that is still stuck behind its input upload.
	Started bool
	Err     error
}

// Command is one in-order queue entry.
type Command interface{ isCommand() }

// Transfer moves bytes over the device link; Apply runs at completion time
// (typically copying between host and device backing stores).
type Transfer struct {
	Bytes int
	Apply func()
	Done  *sim.Event
	// Label names the transfer in traces ("write", "read", "ship", ...);
	// ToDevice distinguishes host-to-device traffic from device-to-host.
	Label    string
	ToDevice bool

	enq sim.Time // enqueue timestamp, for queued-time trace args
}

func (*Transfer) isCommand() {}

// Launch executes a kernel over the launch slice of ND.
type Launch struct {
	Kernel *vm.Kernel
	ND     vm.NDRange
	Args   []vm.Arg
	// Bind, when set, resolves Args as the launch starts rather than at
	// enqueue: a transfer queued ahead of the launch may give a buffer
	// argument new storage.
	Bind func() []vm.Arg
	// Abort, when non-nil, supplies the CPU-completion status for FluidiCL
	// GPU launches.
	Abort AbortQuery
	// MidAbort marks kernels compiled with in-loop abort checks: running
	// work-groups can stop when a status update lands mid-execution.
	MidAbort bool
	// Split allows the CPU work-group splitting optimization.
	Split bool
	// Replay, when set on a launch with no abort query, serves the kernel's
	// in-range work-groups from a sweep record (record.go).
	Replay *Replay
	// Native, when set, is the kernel's built-in body (merge.go): it runs
	// every group it covers in place of the VM, unless the group needs an
	// undo log.
	Native GroupFunc
	Done   *sim.Event
	Result *LaunchResult
	// Label names the launch in traces (normally the kernel name).
	Label string

	enq sim.Time
}

func (*Launch) isCommand() {}

// Call occupies the queue for Duration seconds, then runs Fn (markers,
// device-internal copies, bookkeeping).
type Call struct {
	Duration float64
	Fn       func()
	Done     *sim.Event
	// Label, when non-empty, records the call as a span in traces
	// (device-internal copies); unlabeled calls (markers, bookkeeping) are
	// not recorded.
	Label string

	enq sim.Time
}

func (*Call) isCommand() {}

// Queue is an in-order command queue served by its own simulation process.
type Queue struct {
	dev *Device
	q   *sim.Queue[Command]
}

// NewQueue creates and starts an in-order command queue.
func (d *Device) NewQueue(name string) *Queue {
	q := &Queue{dev: d, q: sim.NewQueue[Command](d.Env)}
	d.Env.Go(fmt.Sprintf("%s/%s", d.Cfg.Name, name), q.serve)
	return q
}

// Enqueue appends a command. If the command's Done event is nil, one is
// created; the (possibly updated) command is returned for waiting.
func (q *Queue) Enqueue(c Command) Command {
	switch c := c.(type) {
	case *Transfer:
		if c.Done == nil {
			c.Done = q.dev.Env.NewEvent()
		}
		c.enq = q.dev.Env.Now()
	case *Launch:
		if c.Done == nil {
			c.Done = q.dev.Env.NewEvent()
		}
		if c.Result == nil {
			c.Result = &LaunchResult{}
		}
		c.enq = q.dev.Env.Now()
	case *Call:
		if c.Done == nil {
			c.Done = q.dev.Env.NewEvent()
		}
		c.enq = q.dev.Env.Now()
	}
	q.q.Put(c)
	return c
}

// Close shuts the queue down after draining.
func (q *Queue) Close() { q.q.Close() }

func (q *Queue) serve(p *sim.Proc) {
	for {
		c, ok := q.q.Get(p)
		if !ok {
			return
		}
		switch c := c.(type) {
		case *Transfer:
			t0 := p.Now()
			q.dev.link.Acquire(p)
			t1 := p.Now()
			p.Sleep(q.dev.Cfg.Link.TransferTime(c.Bytes))
			if c.Apply != nil {
				c.Apply()
			}
			q.dev.link.Release()
			t2 := p.Now()
			q.dev.Env.Meter.TransferEnd(q.dev.mi, t1-t0, t2-t1, c.Bytes, c.ToDevice, c.Label == "refresh")
			if rec := q.dev.Env.Trace; rec != nil {
				q.dev.recordTransfer(rec, c, t0, t1, t2)
			}
			c.Done.Fire()
		case *Launch:
			t0 := p.Now()
			q.dev.Env.Meter.LaunchBegin(q.dev.mi, t0)
			q.dev.runLaunch(p, c)
			t1 := p.Now()
			q.dev.Env.Meter.LaunchEnd(q.dev.mi, t0, t1)
			if rec := q.dev.Env.Trace; rec != nil {
				q.dev.recordLaunch(rec, c, t0, t1)
			}
			c.Done.Fire()
		case *Call:
			t0 := p.Now()
			if c.Duration > 0 {
				p.Sleep(c.Duration)
			}
			if c.Fn != nil {
				c.Fn()
			}
			if rec := q.dev.Env.Trace; rec != nil && c.Label != "" {
				q.dev.recordCall(rec, c, t0, p.Now())
			}
			c.Done.Fire()
		}
	}
}
