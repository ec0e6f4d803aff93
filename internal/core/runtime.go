// Package core implements FluidiCL, the paper's contribution: an OpenCL-like
// runtime that takes a program written for a single device and executes each
// kernel cooperatively on several (Pandit & Govindarajan, "Fluidic Kernels",
// CGO 2014).
//
// The runtime sits above vendor-runtime-shaped contexts (package ocl), one
// per device, exactly as the paper's Figure 4 shows. One substrate — a
// buffer on every device plus a host shadow, programs and kernels compiled
// per device, the launch prologue, §5.1 chunk sizing, certified ship windows
// and dynamic-vs-static cross-checks (runtime.go, launch.go) and one
// residency of per-device pending bytes (planner.go) — serves two
// cooperation protocols, chosen by the constructor.
//
// New selects the paper's twin protocol (twin.go): the GPU runs the
// abort-checked kernel over the full NDRange while a CPU scheduler thread
// steals adaptively sized chunks from the top and ships their results and a
// status message to the GPU (§4.2, §5.1); a generated diff-merge kernel
// folds the two on the GPU (§4.3, Fig. 9), a device-to-host thread returns
// the result (§5.6), and versions keep multi-kernel programs coherent (§5.3,
// §6.2).
//
// NewTopo selects the N-way generalization for any device list (nway.go):
// devices claim chunks from both ends of the flattened range, results merge
// at the host, and a device is sent a buffer's bytes when its chunks need
// them.
package core

import (
	"fmt"
	"sync"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/passes"
	"fluidicl/internal/sim"
)

// Options configures the runtime. The zero value selects the paper's
// defaults via New.
type Options struct {
	// InitialChunkPct is the first CPU subkernel's share of the total
	// work-groups, in percent (§5.1; default 2).
	InitialChunkPct float64
	// StepPct is the adaptive chunk-size increment, in percent (default 2).
	// A negative value means a constant chunk size (the paper's "step size
	// of 0%": every subkernel keeps the initial allocation).
	StepPct float64
	// AbortInLoops enables GPU work-group aborts inside innermost loops
	// (§6.4; default on). Setting NoAbortInLoops disables it.
	NoAbortInLoops bool
	// NoUnroll disables loop unrolling around in-loop abort checks (§6.5).
	NoUnroll bool
	// UnrollFactor is the unroll factor (default 4).
	UnrollFactor int
	// NoWorkGroupSplit disables CPU work-group splitting (§6.3).
	NoWorkGroupSplit bool
	// OnlineProfiling enables timing of alternate CPU kernel versions and
	// automatic selection of the fastest (§6.6). Off by default, as in the
	// paper's headline results.
	OnlineProfiling bool
}

func (o Options) withDefaults() Options {
	if o.InitialChunkPct <= 0 {
		o.InitialChunkPct = 2
	}
	switch {
	case o.StepPct < 0:
		o.StepPct = 0
	case o.StepPct == 0:
		o.StepPct = 2
	}
	if o.UnrollFactor <= 0 {
		o.UnrollFactor = 4
	}
	return o
}

// KernelReport records one cooperative kernel execution, for the
// experiment harness and for tests.
type KernelReport struct {
	KID         int
	Name        string
	TotalWGs    int
	GPUExecuted int
	GPUSkipped  int
	GPUAborted  int
	CPUWGs      int // work-groups completed by CPU subkernels
	Subkernels  int
	CPUDidAll   bool
	VariantUsed int
	// DeviceWGs is the per-device work-group count in the runtime's device
	// order (New: CPU, GPU; NewTopo: topology order).
	DeviceWGs  []int
	Start, End sim.Time
}

// Runtime is a FluidiCL instance over a device list. The substrate — one
// buffer per device plus a host shadow, programs and kernels compiled for
// every device, the launch prologue, certified ship windows and the
// dynamic-vs-static cross-checks — is shared; the constructor picks the
// cooperation protocol that decides who computes which work-groups and how
// results meet (New: the paper's twin protocol, NewTopo: N-way claims).
type Runtime struct {
	Env  *sim.Env
	ctxs []*ocl.Context
	qs   []*ocl.CommandQueue // every runtime queue, in creation order
	app  []*ocl.CommandQueue // per device: the queue writes and flushes go on

	bp bytePool // the run's scratch, touched only inside the cooperative engine

	opts  Options
	proto protocol

	kernelSeq   int
	deferredErr error // failure noticed after a kernel call returned
	fclTrk      int   // RuntimeTrack's id + 1 (0 = unregistered)
	ctr         Counters

	// What Release hands back: the storage of every buffer created.
	bufs     []*Buffer
	released bool

	Reports []*KernelReport
}

// protocol is one cooperation policy over the shared substrate. Everything
// outside this interface is protocol-agnostic.
type protocol interface {
	// awaitHost blocks until the host shadow holds b's latest contents.
	awaitHost(p *sim.Proc, b *Buffer)
	// source picks the transformed source device di compiles.
	source(e *transformEntry, di int) string
	// variantContext is where alternate CPU kernel versions (§6.6) are
	// built, or nil when the protocol runs the original kernel everywhere.
	variantContext() *ocl.Context
	// run executes one validated launch cooperatively and blocks until the
	// kernel call may return.
	run(p *sim.Proc, l *launch) error
}

// Err returns any deferred error noticed after a kernel call returned: a
// late device-side failure, or a dynamic access that violated the static
// kernel summary an elision relied on. Callers should check it after the
// final kernel completes.
func (r *Runtime) Err() error { return r.deferredErr }

// New creates a twin-protocol runtime over one CPU and one GPU device (the
// paper's machine): device 0 is the CPU, device 1 the GPU.
func New(env *sim.Env, cpuDev, gpuDev *device.Device, opts Options) (*Runtime, error) {
	r := &Runtime{Env: env, opts: opts.withDefaults()}
	r.ctxs = []*ocl.Context{ocl.NewContext(env, cpuDev), ocl.NewContext(env, gpuDev)}
	r.proto = newTwin(r)
	return r, nil
}

// NewTopo creates an N-way runtime over an already-built device list (see
// device.Topology.Build). Device order fixes worker spawn order and
// therefore claim tie-breaking, so runs are deterministic.
func NewTopo(env *sim.Env, devs []*device.Device, opts Options) (*Runtime, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("core: topology runtime needs at least one device")
	}
	r := &Runtime{Env: env, opts: opts.withDefaults(), ctxs: make([]*ocl.Context, len(devs))}
	for di, d := range devs {
		r.ctxs[di] = ocl.NewContext(env, d)
	}
	r.proto = newNway(r)
	return r, nil
}

// MustNew is New for known-good configurations.
func MustNew(env *sim.Env, cpuDev, gpuDev *device.Device, opts Options) *Runtime {
	r, err := New(env, cpuDev, gpuDev, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// createQueue creates a named queue on device di and registers it for Finish.
func (r *Runtime) createQueue(di int, name string) *ocl.CommandQueue {
	q := r.ctxs[di].CreateQueue(name)
	r.qs = append(r.qs, q)
	return q
}

// ---- buffers ----

// Buffer is a FluidiCL memory object: one buffer per device plus a host
// shadow (§4.1), with its residency (§5.3, §6.2). The host shadow is an
// ocl.Buffer value, in a device copy's three storage states; the
// code that writes it (the N-way merges, the twin's read-backs) owns it
// first. pend[di] is the exact byte set device di's copy is missing: every
// mutation keeps a device copy equal to the host shadow outside pend[di];
// the twin flushes a launch's sets before any chunk runs (flushPend), N-way
// as each device's chunks need them (nway.go). The host shadow itself can
// lag only under the twin protocol, whose merged results come home after
// the kernel call returns (lag).
type Buffer struct {
	rt   *Runtime
	Size int
	bufs []*ocl.Buffer // per device
	host ocl.Buffer    // host shadow
	pend []intervalSet // per device
	lag  hostLag
	src  []byte // N-way: the last whole write's source, while host shares it
}

// CreateBuffer creates a buffer on every device (paper §4.1: clCreateBuffer
// is translated into buffer creation on both the CPU and the GPU). The host
// shadow and the device copies take no storage and read as zeros until
// first use, so all start identical.
func (r *Runtime) CreateBuffer(size int) *Buffer {
	r.mustBeLive()
	b := &Buffer{rt: r, Size: size, host: ocl.Buffer{Size: size},
		bufs: make([]*ocl.Buffer, len(r.ctxs)), pend: make([]intervalSet, len(r.ctxs))}
	for di, ctx := range r.ctxs {
		b.bufs[di] = ctx.CreateBuffer(size)
	}
	r.bufs = append(r.bufs, b)
	return b
}

// Release hands the run's storage — the host shadows and device copies that
// own their storage and the byte pool's scratch, each backing array once —
// to the process-wide free list the next run's buffers are drawn from
// (ocl.Recycle). A handed-over source stays its caller's. Call it when the
// simulation has stopped and the outputs have been read (EnqueueReadBuffer
// returns copies); it returns the storage whatever state the run ended in,
// Reports, Counters and Err stay readable, and any later buffer or kernel
// call panics, so a half-merged shadow of a failed run is never observable.
func (r *Runtime) Release() {
	if r.released {
		return
	}
	r.released = true
	run := r.bp.free
	r.bp.free = nil
	for _, b := range r.bufs {
		run = append(run, b.host.Detach())
		for _, db := range b.bufs {
			run = append(run, db.Detach())
		}
	}
	r.bufs = nil
	ocl.Recycle(run)
}

func (r *Runtime) mustBeLive() {
	if r.released {
		panic("core: use of a released Runtime")
	}
}

// EnqueueWriteBuffer writes host data to the buffer, handing data over as
// ocl's EnqueueWriteBuffer does: the caller must not change data until
// Release. The host shadow and device copies share a whole-buffer write
// until a write makes their storage their own; a shorter one is copied. The
// call returns at once. The twin enqueues it on every device (§4.1), and the
// in-order queues sequence it before any later kernel there; N-way books it
// as pending everywhere, sent when a device's chunks need it (nway.go). The
// write is the newest version, so it waits for an older one on its way home.
func (r *Runtime) EnqueueWriteBuffer(p *sim.Proc, b *Buffer, data []byte) {
	r.mustBeLive()
	if len(data) > b.Size {
		panic("core: write larger than buffer")
	}
	b.lag.await(p)
	b.host.Store(data)
	_, lazy := r.proto.(*nway)
	if b.src = nil; lazy && len(data) == b.Size {
		b.src = data
	}
	for di, q := range r.app {
		if lazy {
			b.pend[di].add(0, len(data))
			continue
		}
		q.EnqueueWriteBuffer(b.bufs[di], data)
		b.pend[di].subtractRange(0, len(data))
	}
}

// EnqueueReadBuffer returns the buffer's current contents once the host
// shadow holds them; when they already do, no transfer happens (§6.2).
func (r *Runtime) EnqueueReadBuffer(p *sim.Proc, b *Buffer) []byte {
	r.mustBeLive()
	r.proto.awaitHost(p, b)
	out := make([]byte, b.Size)
	b.host.ReadAt(out, 0)
	return out
}

// Finish drains all runtime queues.
func (r *Runtime) Finish(p *sim.Proc) {
	for _, q := range r.qs {
		q.Finish(p)
	}
}

// ---- programs and kernels ----

// Program is a FluidiCL program: the original source compiled once per
// device, each through the transformation pipeline its protocol role calls
// for.
type Program struct {
	rt      *Runtime
	Source  string
	info    *clc.ProgramInfo         // analysis of the original source
	Summary *analysis.ProgramSummary // static kernel analyzer results
	progs   []*ocl.Program           // per device
	plans   map[string]*planCache    // the transformEntry's, per kernel
	GPUSrc  string                   // abort-checked GPU transformation (for inspection)
	CPUSrc  string                   // range-guarded CPU transformation
}

// transformEntry is one cached run of the twin transformation pipelines:
// the original-source analysis plus the transformed GPU and CPU sources.
// All fields are immutable once built; plans maps every kernel to its
// (internally synchronized) launch-plan cache.
type transformEntry struct {
	info   *clc.ProgramInfo
	sum    *analysis.ProgramSummary
	gpuSrc string
	cpuSrc string
	plans  map[string]*planCache
}

// transformCache memoizes the pass pipeline by (source, GPU pass options).
// Harness sweeps rebuild the same handful of benchmark programs for every
// table cell; with this cache plus ocl's compile cache, each distinct
// (source, options) pair is parsed, transformed and compiled exactly once
// per process. Virtual time is unaffected — builds happen on the host.
var transformCache struct {
	sync.Mutex
	m map[transformKey]*transformEntry
}

type transformKey struct {
	src  string
	gopt passes.GPUOptions
}

func transformProgram(src string, gopt passes.GPUOptions) (*transformEntry, error) {
	key := transformKey{src: src, gopt: gopt}
	transformCache.Lock()
	defer transformCache.Unlock()
	if e, ok := transformCache.m[key]; ok {
		return e, nil
	}
	orig, err := clc.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := clc.Check(orig)
	if err != nil {
		return nil, err
	}
	sum := analysis.AnalyzeProgram(orig, "")

	gpuAST, err := clc.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, k := range gpuAST.Kernels {
		if _, err := passes.TransformGPU(k, gopt); err != nil {
			return nil, err
		}
	}

	cpuAST, err := clc.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, k := range cpuAST.Kernels {
		if err := passes.TransformCPUWithSummary(k, sum.Kernels[k.Name]); err != nil {
			return nil, err
		}
	}

	e := &transformEntry{info: info, sum: sum, gpuSrc: clc.Print(gpuAST), cpuSrc: clc.Print(cpuAST),
		plans: make(map[string]*planCache, len(info.Kernels))}
	for name := range info.Kernels {
		e.plans[name] = &planCache{}
	}
	if transformCache.m == nil {
		transformCache.m = map[transformKey]*transformEntry{}
	}
	transformCache.m[key] = e
	return e, nil
}

// BuildProgram compiles src for every device (§4.1: clBuildProgram results
// in kernel compilation for both devices), applying the GPU abort-check and
// CPU range-guard transformations. Transformation and compilation are
// memoized by (source, options) across runtimes.
func (r *Runtime) BuildProgram(src string) (*Program, error) {
	gopt := passes.GPUOptions{
		AbortInLoops: !r.opts.NoAbortInLoops,
		Unroll:       !r.opts.NoAbortInLoops && !r.opts.NoUnroll,
		UnrollFactor: r.opts.UnrollFactor,
	}
	e, err := transformProgram(src, gopt)
	if err != nil {
		return nil, err
	}
	p := &Program{rt: r, Source: src, info: e.info, Summary: e.sum, plans: e.plans, GPUSrc: e.gpuSrc, CPUSrc: e.cpuSrc}
	p.progs = make([]*ocl.Program, len(r.ctxs))
	for di, ctx := range r.ctxs {
		if p.progs[di], err = ctx.BuildProgram(r.proto.source(e, di)); err != nil {
			return nil, fmt.Errorf("core: build for device %d: %w", di, err)
		}
	}
	return p, nil
}

// Kernel is a FluidiCL kernel bound to every device, plus any alternate
// CPU implementations (§6.6).
type Kernel struct {
	prog *Program
	Name string
	Info *clc.KernelInfo         // original-source analysis (out/inout params)
	Sum  *analysis.KernelSummary // static analyzer summary of the original
	ks   []*ocl.Kernel           // per device
	// plans caches the kernel's launch plans process-wide (launch.go).
	plans *planCache
	// variants are the alternate CPU versions registered with AddCPUVariant;
	// the twin protocol numbers them from 1 (version 0 is the original).
	variants []*ocl.Kernel

	// splitOK gates CPU work-group splitting on analyzer facts (no
	// inter-work-item race findings) on top of the syntactic no-barrier /
	// no-__local rule.
	splitOK bool
	// chkRead / chkWrite are per-original-parameter access masks (bit i =
	// parameter i may be read / written) unioned over the original kernel's
	// summary and every registered CPU variant's summary. The VM's dynamic
	// access masks are validated against them after each execution.
	chkRead, chkWrite uint64

	profiled   bool
	bestCPUVar int
}

// CreateKernel creates a kernel object by name.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	info, ok := p.info.Kernels[name]
	if !ok {
		return nil, fmt.Errorf("core: kernel %q not found", name)
	}
	sum := p.Summary.Kernels[name]
	k := &Kernel{
		prog: p, Name: name, Info: info, Sum: sum, plans: p.plans[name],
		splitOK: passes.CanSplitWithSummary(info, sum),
	}
	k.chkRead, k.chkWrite = accessMasks(sum)
	k.ks = make([]*ocl.Kernel, len(p.progs))
	for di, prog := range p.progs {
		var err error
		if k.ks[di], err = prog.CreateKernel(name); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// accessMasks flattens a kernel summary's per-argument access facts to
// bitmasks over parameter indices (parameters past bit 63 are not tracked,
// matching vm.Stats).
func accessMasks(ks *analysis.KernelSummary) (read, write uint64) {
	if ks == nil {
		return 0, 0
	}
	for i := range ks.Args {
		a := &ks.Args[i]
		if a.Index >= 64 {
			continue
		}
		if a.Read {
			read |= 1 << uint(a.Index)
		}
		if a.Written {
			write |= 1 << uint(a.Index)
		}
	}
	return read, write
}

// MustKernel is CreateKernel for known-good names.
func (p *Program) MustKernel(name string) *Kernel {
	k, err := p.CreateKernel(name)
	if err != nil {
		panic(err)
	}
	return k
}

// Disasm returns the bytecode disassembly of device di's transformed kernel
// (a debugging aid for inspecting what the passes and compiler produced).
func (k *Kernel) Disasm(di int) string { return k.ks[di].VM.Disasm() }

// AddCPUVariant registers an alternate CPU implementation of the kernel
// (§6.6). The variant must take the same arguments and be functionally
// identical in terms of output buffers modified; this is validated against
// the original kernel's signature and access analysis. A protocol that runs
// the original kernel on every device (N-way) ignores variants: they are
// functionally identical by contract, so results never depend on them.
func (k *Kernel) AddCPUVariant(src, name string) error {
	ctx := k.prog.rt.proto.variantContext()
	if ctx == nil {
		return nil
	}
	vinfo, err := clc.FindKernelInfo(src, name)
	if err != nil {
		return err
	}
	if err := sameSignature(k.Info, vinfo); err != nil {
		return fmt.Errorf("core: CPU variant %q: %w", name, err)
	}
	ast, err := clc.Parse(src)
	if err != nil {
		return err
	}
	vk := ast.Kernel(name)
	// The variant gets its own analysis, of the checked parse (the fresh one
	// is only transformed): its guard-drop eligibility depends on its own
	// stores, and the dynamic access cross-check must accept any access
	// either implementation can perform.
	vsum := analysis.AnalyzeKernel(vinfo.Kernel, "")
	vr, vw := accessMasks(vsum)
	k.chkRead |= vr
	k.chkWrite |= vw
	k.splitOK = k.splitOK && passes.CanSplitWithSummary(vinfo, vsum)
	if err := passes.TransformCPUWithSummary(vk, vsum); err != nil {
		return err
	}
	prog, err := ctx.BuildProgram(clc.Print(ast))
	if err != nil {
		return err
	}
	ck, err := prog.CreateKernel(name)
	if err != nil {
		return err
	}
	k.variants = append(k.variants, ck)
	k.profiled = false
	return nil
}

func sameSignature(a, b *clc.KernelInfo) error {
	pa, pb := a.Kernel.Params, b.Kernel.Params
	if len(pa) != len(pb) {
		return fmt.Errorf("parameter count differs (%d vs %d)", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Ty != pb[i].Ty {
			return fmt.Errorf("parameter %d type differs (%s vs %s)", i, pa[i].Ty, pb[i].Ty)
		}
	}
	aw, bw := a.WrittenParams(), b.WrittenParams()
	if len(aw) != len(bw) {
		return fmt.Errorf("written-buffer sets differ")
	}
	for i := range aw {
		if pa[posOf(a, aw[i])].Ty != pb[posOf(b, bw[i])].Ty || aw[i] != bw[i] {
			return fmt.Errorf("written-buffer sets differ")
		}
	}
	return nil
}

func posOf(ki *clc.KernelInfo, name string) int {
	for i, p := range ki.Kernel.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// ---- kernel arguments ----

// ArgKind classifies FluidiCL kernel arguments.
type ArgKind int

// Argument kinds.
const (
	ArgBuf ArgKind = iota
	ArgInt
	ArgFloat
)

// Arg is a FluidiCL kernel argument.
type Arg struct {
	Kind ArgKind
	Buf  *Buffer
	I    int64
	F    float64
}

// BufArg makes a buffer argument.
func BufArg(b *Buffer) Arg { return Arg{Kind: ArgBuf, Buf: b} }

// IntArg makes an int argument.
func IntArg(v int64) Arg { return Arg{Kind: ArgInt, I: v} }

// FloatArg makes a float argument.
func FloatArg(v float64) Arg { return Arg{Kind: ArgFloat, F: v} }

// lower binds the argument to device di's copy of its buffer.
func (a Arg) lower(di int) ocl.Arg {
	switch a.Kind {
	case ArgBuf:
		return ocl.BufArg(a.Buf.bufs[di])
	case ArgInt:
		return ocl.IntArg(a.I)
	default:
		return ocl.FloatArg(a.F)
	}
}

// lowerChunkArgs appends to dst the arguments of a range-guarded subkernel
// over the flat work-groups [lo, hi] on device di: args bound to that
// device, then the two bound arguments the CPU transformation added.
func lowerChunkArgs(dst []ocl.Arg, args []Arg, di, lo, hi int) []ocl.Arg {
	for _, a := range args {
		dst = append(dst, a.lower(di))
	}
	return append(dst, ocl.IntArg(int64(lo)), ocl.IntArg(int64(hi)))
}

// The pre-unification names of the N-way types, kept so the bench/ module
// keeps compiling.
//
// Deprecated: use Runtime, Program, Kernel, Buffer and BufArg. The next
// benchmark PR drops these.
type (
	TopoRuntime = Runtime
	TopoProgram = Program
	TopoKernel  = Kernel
	TopoBuffer  = Buffer
)

// TopoBufArg is BufArg.
//
// Deprecated: see TopoRuntime.
func TopoBufArg(b *Buffer) Arg { return BufArg(b) }
