// Package ocl is a vendor-runtime-shaped host API over one simulated device:
// contexts, buffers, programs, kernels and in-order command queues, mirroring
// the OpenCL subset FluidiCL builds on (clCreateBuffer,
// clEnqueueWriteBuffer/ReadBuffer, clEnqueueNDRangeKernel, clFinish).
//
// FluidiCL (package core) sits on top of two ocl.Context values — one for
// the CPU OpenCL runtime, one for the GPU runtime — exactly as the paper's
// Figure 4 shows it sitting on top of two vendor runtimes.
package ocl

import (
	"fmt"
	"slices"
	"sync"

	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// Context owns one device's resources (a vendor runtime instance).
type Context struct {
	Env *sim.Env
	Dev *device.Device
}

// NewContext creates a context for dev.
func NewContext(env *sim.Env, dev *device.Device) *Context {
	return &Context{Env: env, Dev: dev}
}

// Buffer is a device-resident memory object. Its storage is in one of three
// states:
//
//   - none (no data): it reads as zeros and takes storage on first touch;
//   - shared: it holds the source of the last whole-buffer write, which the
//     caller handed over and will not change until the buffer is released;
//   - owned: it holds bytes of its own.
//
// Every path that writes device bytes — a launch of a kernel whose analysis
// marks the argument written, a partial or scatter write, the destination of
// a copy — first makes the storage owned, so a handed-over source is never
// written. Owned storage stays the same slice until a handed-over write
// replaces it or Detach takes it: a launch bound to it sees every later
// in-place write, as the twin GPU kernel's abort checks see status words
// land.
type Buffer struct {
	Ctx   *Context
	Size  int
	data  []byte
	owned bool
}

// CreateBuffer creates a device buffer of size bytes that reads as zeros. It
// takes no storage until first touch.
func (c *Context) CreateBuffer(size int) *Buffer {
	return &Buffer{Ctx: c, Size: size}
}

// Bytes exposes the device-resident backing store, taking zeroed storage on
// first touch. Host code must not use it; it exists for tests and for
// kernels and transfers to bind to. Writing through it is allowed only on
// owned storage: storage taken here, or by a kernel, partial write or copy
// since the buffer's last handed-over whole write. Otherwise the slice is
// that write's source.
func (b *Buffer) Bytes() []byte {
	if b.data == nil {
		b.own(true)
	}
	return b.data
}

// own gives the buffer storage of its own before a write and returns it.
// With keep, the storage holds what the buffer read as before; without, the
// caller overwrites every byte and the contents are unspecified.
func (b *Buffer) own(keep bool) []byte {
	if !b.owned {
		var s []byte
		switch {
		case !keep:
			s = TakeBytes(b.Size)
		case b.data == nil:
			s = ZeroBytes(b.Size)
		default:
			s = TakeBytes(b.Size)
			copy(s, b.data)
		}
		b.data, b.owned = s, true
	}
	return b.data
}

// readAt copies the bytes at [off, off+len(dst)) into dst.
func (b *Buffer) readAt(dst []byte, off int) {
	if b.data == nil {
		clear(dst)
		return
	}
	copy(dst, b.data[off:])
}

// Detach takes the buffer's own storage away from it, for Recycle; a shared
// source stays its caller's and is not returned. The buffer must not be used
// afterwards.
func (b *Buffer) Detach() []byte {
	data := b.data
	if !b.owned {
		data = nil
	}
	b.data, b.owned = nil, false
	return data
}

// Free hands the buffer's storage to the free list (clReleaseMemObject);
// the buffer must not be used afterwards. A pool that trims itself mid-run
// frees this way, and the same run's next first use of a buffer draws it
// back.
func (b *Buffer) Free() {
	if data := b.Detach(); cap(data) >= minRecycled {
		free.Lock()
		free.list = append(free.list, data)
		free.Unlock()
	}
}

// free is the process-wide free list of buffer storage, shared by every
// context, runtime and goroutine. It is kept small on purpose, because what
// it holds is resident: Recycle replaces it rather than adding to it, so it
// never retains more than the storage of the last finished run (plus what
// Free added since), and a request larger than every slice in it empties it
// — a run that needs more is not shaped like the run that filled the list,
// and the rest would only sit beside that run's own buffers. A smaller miss
// leaves it alone: device storage is taken at first use, after a run has
// asked for its small scratch. A sequence of same-sized runs thus allocates
// its buffers once; a growing sequence behaves as if there were no list.
var free struct {
	sync.Mutex
	list [][]byte
}

// minRecycled is the smallest slice the free list handles: below a page a
// fresh allocation costs no more than the search, and a small miss (the
// twin protocol's status buffer is 8 bytes) should not empty the list.
const minRecycled = 4096

// Recycle makes the storage of a finished run the free list, dropping
// whatever the list still held. The caller gives up every slice in run; a
// backing array listed twice would later back two buffers at once, so it
// panics.
func Recycle(run [][]byte) {
	run = slices.DeleteFunc(run, func(b []byte) bool { return cap(b) < minRecycled })
	seen := make(map[*byte]bool, len(run))
	for _, b := range run {
		p := &b[:1][0]
		if seen[p] {
			panic("ocl: Recycle given one backing array twice")
		}
		seen[p] = true
	}
	free.Lock()
	free.list = run
	free.Unlock()
}

// TakeBytes returns n bytes of unspecified contents for a caller that
// overwrites all of them: the smallest free-list slice that holds n bytes in
// at most 2n of capacity, or else a fresh one.
func TakeBytes(n int) []byte {
	b, _ := takeBytes(n)
	return b
}

// ZeroBytes returns n zero bytes; storage from the free list is cleared on
// reuse.
func ZeroBytes(n int) []byte {
	b, reused := takeBytes(n)
	if reused {
		clear(b)
	}
	return b
}

func takeBytes(n int) (b []byte, reused bool) {
	if n < minRecycled {
		return make([]byte, n), false
	}
	free.Lock()
	best, holds := -1, false
	for i, f := range free.list {
		holds = holds || cap(f) >= n
		if cap(f) >= n && cap(f) <= 2*n && (best < 0 || cap(f) < cap(free.list[best])) {
			best = i
		}
	}
	if best < 0 {
		if !holds {
			free.list = nil
		}
		free.Unlock()
		return make([]byte, n), false
	}
	last := len(free.list) - 1
	b = free.list[best]
	free.list[best], free.list[last] = free.list[last], nil
	free.list = free.list[:last]
	free.Unlock()
	return b[:n], true
}

// Program is a compiled translation unit for this context's device.
type Program struct {
	Ctx     *Context
	Source  string
	Prog    *clc.Program
	Info    *clc.ProgramInfo
	kernels map[string]*vm.Kernel
}

// buildEntry is one cached compilation: the immutable artifacts shared by
// every Program built from the same source.
type buildEntry struct {
	prog    *clc.Program
	info    *clc.ProgramInfo
	kernels map[string]*vm.Kernel
}

// buildCache memoizes compilation by exact source text. Compiled programs,
// program info and vm kernels are immutable after construction (a vm.Kernel's
// only mutable field is its internal scratch pool, which is concurrency-safe),
// so one compilation can back any number of contexts, simulations and
// goroutines. Simulated build cost is unaffected — compilation happens on the
// host, outside virtual time.
var buildCache struct {
	sync.Mutex
	m map[string]*buildEntry
}

// BuildProgram parses, checks and compiles MiniCL source for this device
// (clBuildProgram). Transformation passes, if any, must have been applied to
// the source already — this mirrors vendor runtimes compiling whatever
// source they are handed. Identical source compiles once per process; repeat
// builds are served from a cache.
func (c *Context) BuildProgram(src string) (*Program, error) {
	buildCache.Lock()
	defer buildCache.Unlock()
	if buildCache.m == nil {
		buildCache.m = map[string]*buildEntry{}
	}
	e, ok := buildCache.m[src]
	if !ok {
		prog, err := clc.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("ocl: build failed: %w", err)
		}
		info, err := clc.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("ocl: build failed: %w", err)
		}
		e = &buildEntry{prog: prog, info: info, kernels: map[string]*vm.Kernel{}}
		for name, ki := range info.Kernels {
			k, err := vm.Compile(ki)
			if err != nil {
				return nil, fmt.Errorf("ocl: compiling kernel %q: %w", name, err)
			}
			e.kernels[name] = k
		}
		buildCache.m[src] = e // failed builds are never cached
	}
	return &Program{Ctx: c, Source: src, Prog: e.prog, Info: e.info, kernels: e.kernels}, nil
}

// Kernel is a kernel object from a built program (clCreateKernel).
type Kernel struct {
	Name string
	VM   *vm.Kernel
	Info *clc.KernelInfo
	// written[i]: the analysis marks parameter i a buffer the kernel writes
	// (clc.ParamAccess, the paper's §4.1 out/inout classification). Every
	// global store the VM compiles goes through such a parameter, so a
	// launch may leave every other buffer argument shared.
	written []bool
}

// CreateKernel looks up a kernel by name.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	k, ok := p.kernels[name]
	if !ok {
		return nil, fmt.Errorf("ocl: kernel %q not found", name)
	}
	info := p.Info.Kernels[name]
	written := make([]bool, len(info.Kernel.Params))
	for i, param := range info.Kernel.Params {
		written[i] = param.Ty.Ptr && info.ParamAccess[param.Name].Written
	}
	return &Kernel{Name: name, VM: k, Info: info, written: written}, nil
}

// MustKernel is CreateKernel for known-good names.
func (p *Program) MustKernel(name string) *Kernel {
	k, err := p.CreateKernel(name)
	if err != nil {
		panic(err)
	}
	return k
}

// ArgKind classifies kernel arguments at the API level.
type ArgKind int

// Argument kinds.
const (
	ArgBuf ArgKind = iota
	ArgInt
	ArgFloat
)

// Arg is a host-level kernel argument; buffer arguments name Buffer objects
// and are bound to device bytes when the launch starts.
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

// bind lowers API args to VM args against this device's memory. A buffer the
// kernel writes gets storage of its own first — before any argument is
// lowered, so a buffer passed twice binds one slice — one it only reads may
// stay shared, and one without storage gets zeroed storage. A replayed
// launch learns which arguments stayed shared.
func (k *Kernel) bind(args []Arg, rp *device.Replay) []vm.Arg {
	for i, a := range args {
		if a.Kind == ArgBuf && (a.Buf.data == nil || (i < len(k.written) && k.written[i])) {
			a.Buf.own(true)
		}
	}
	out := make([]vm.Arg, len(args))
	for i, a := range args {
		switch a.Kind {
		case ArgBuf:
			if rp != nil && !a.Buf.owned {
				rp.Shared |= 1 << i
			}
			out[i] = vm.BufArg(a.Buf.data)
		case ArgInt:
			out[i] = vm.IntArg(a.I)
		default:
			out[i] = vm.FloatArg(a.F)
		}
	}
	return out
}

// CommandQueue is an in-order command queue (clCreateCommandQueue).
type CommandQueue struct {
	Ctx *Context
	q   *device.Queue
}

// CreateQueue creates a named in-order command queue.
func (c *Context) CreateQueue(name string) *CommandQueue {
	return &CommandQueue{Ctx: c, q: c.Dev.NewQueue(name)}
}

// EnqueueWriteBuffer writes host bytes into the device buffer
// (clEnqueueWriteBuffer), handing src over: the caller must not change src
// until the buffer is released. A write of the whole buffer then installs src
// by reference when the transfer completes — the device copy shares it until
// a write makes the storage the buffer's own — and a shorter one is copied.
// A caller whose source will change uses EnqueueWriteBufferAt, which copies.
func (q *CommandQueue) EnqueueWriteBuffer(b *Buffer, src []byte) *sim.Event {
	return q.EnqueueWriteBufferTagged(b, src, "write")
}

// EnqueueWriteBufferTagged is EnqueueWriteBuffer with a trace label naming
// the transfer's role (FluidiCL tags its stale-copy uploads "upload").
func (q *CommandQueue) EnqueueWriteBufferTagged(b *Buffer, src []byte, label string) *sim.Event {
	if len(src) > b.Size {
		panic(fmt.Sprintf("ocl: write of %d bytes into %d-byte buffer", len(src), b.Size))
	}
	t := &device.Transfer{
		Bytes: len(src),
		Apply: func() {
			if len(src) == b.Size {
				b.data, b.owned = src, false
			} else {
				copy(b.own(true), src)
			}
		},
		Label:    label,
		ToDevice: true,
	}
	q.q.Enqueue(t)
	return t.Done
}

// EnqueueWriteBufferAt copies host bytes into the device buffer starting at
// byte offset off (clEnqueueWriteBuffer with a non-zero offset); src is read
// at transfer-completion time. FluidiCL uses it to ship only the byte range a
// CPU subkernel provably wrote, and with offset 0 to write a whole buffer
// from a source that will change.
func (q *CommandQueue) EnqueueWriteBufferAt(b *Buffer, off int, src []byte) *sim.Event {
	return q.EnqueueWriteBufferAtTagged(b, off, src, "write")
}

// EnqueueWriteBufferAtTagged is EnqueueWriteBufferAt with a trace label
// naming the transfer's role (FluidiCL tags its CPU-to-GPU result ships
// "ship").
func (q *CommandQueue) EnqueueWriteBufferAtTagged(b *Buffer, off int, src []byte, label string) *sim.Event {
	if off < 0 || off+len(src) > b.Size {
		panic(fmt.Sprintf("ocl: write of %d bytes at offset %d into %d-byte buffer", len(src), off, b.Size))
	}
	t := &device.Transfer{
		Bytes:    len(src),
		Apply:    func() { copy(b.own(len(src) < b.Size)[off:], src) },
		Label:    label,
		ToDevice: true,
	}
	q.q.Enqueue(t)
	return t.Done
}

// Span is a half-open [Off, End) byte range of a buffer, used by scatter
// writes (EnqueueWriteBufferSpansTagged).
type Span struct {
	Off, End int
}

// EnqueueWriteBufferSpansTagged copies the given byte ranges of src — a host
// image indexed in buffer coordinates, so span [Off, End) of the buffer is
// filled from src[Off:End] — into the device buffer as ONE link transfer
// whose payload is the sum of the span lengths. This models a driver-batched
// scatter update: the whole delta pays a single link latency instead of one
// per range. The N-way delta-refresh planner uses it to bring a stale device
// copy current. Spans must be sorted, disjoint and in-range; both spans and
// src are read at transfer-completion time and must stay untouched until the
// returned event fires.
func (q *CommandQueue) EnqueueWriteBufferSpansTagged(b *Buffer, spans []Span, src []byte, label string) *sim.Event {
	total := 0
	prev := 0
	for _, s := range spans {
		if s.Off < prev || s.End > b.Size || s.End > len(src) || s.Off > s.End {
			panic(fmt.Sprintf("ocl: scatter write span [%d,%d) invalid for %d-byte buffer (prev end %d, src %d)",
				s.Off, s.End, b.Size, prev, len(src)))
		}
		total += s.End - s.Off
		prev = s.End
	}
	t := &device.Transfer{
		Bytes: total,
		Apply: func() {
			data := b.own(true)
			for _, s := range spans {
				copy(data[s.Off:s.End], src[s.Off:s.End])
			}
		},
		Label:    label,
		ToDevice: true,
	}
	q.q.Enqueue(t)
	return t.Done
}

// EnqueueReadBuffer copies the device buffer into host bytes
// (clEnqueueReadBuffer). dst is written at transfer-completion time.
func (q *CommandQueue) EnqueueReadBuffer(b *Buffer, dst []byte) *sim.Event {
	if len(dst) > b.Size {
		panic(fmt.Sprintf("ocl: read of %d bytes from %d-byte buffer", len(dst), b.Size))
	}
	t := &device.Transfer{
		Bytes: len(dst),
		Apply: func() { b.readAt(dst, 0) },
		Label: "read",
	}
	q.q.Enqueue(t)
	return t.Done
}

// EnqueueReadBufferAt copies the device buffer's byte range [off, off+len(dst))
// into host bytes (clEnqueueReadBuffer with a non-zero offset).
func (q *CommandQueue) EnqueueReadBufferAt(b *Buffer, off int, dst []byte) *sim.Event {
	return q.EnqueueReadBufferAtTagged(b, off, dst, "read")
}

// EnqueueReadBufferAtTagged is EnqueueReadBufferAt with a trace label naming
// the transfer's role (the N-way runtime tags its chunk-result reads "ship").
func (q *CommandQueue) EnqueueReadBufferAtTagged(b *Buffer, off int, dst []byte, label string) *sim.Event {
	if off < 0 || off+len(dst) > b.Size {
		panic(fmt.Sprintf("ocl: read of %d bytes at offset %d from %d-byte buffer", len(dst), off, b.Size))
	}
	t := &device.Transfer{
		Bytes: len(dst),
		Apply: func() { b.readAt(dst, off) },
		Label: label,
	}
	q.q.Enqueue(t)
	return t.Done
}

// EnqueueCopyBuffer copies src to dst within the device
// (clEnqueueCopyBuffer); it does not cross the host link.
func (q *CommandQueue) EnqueueCopyBuffer(src, dst *Buffer) *sim.Event {
	if src.Size > dst.Size {
		panic("ocl: copy source larger than destination")
	}
	if src == dst {
		panic("ocl: copy of a buffer onto itself")
	}
	n := src.Size
	c := &device.Call{
		Duration: q.Ctx.Dev.Cfg.CopyTime(n),
		Fn:       func() { src.readAt(dst.own(n < dst.Size)[:n], 0) },
		Label:    "copy",
	}
	q.q.Enqueue(c)
	return c.Done
}

// LaunchOpts carries FluidiCL-level execution options through to the device.
type LaunchOpts struct {
	Abort    device.AbortQuery
	MidAbort bool
	Split    bool
	// Backend selects the VM execution engine (vm.BackendAuto uses the
	// process default).
	Backend vm.Backend
	// Record, when set, is the launch's entry in a static sweep: the kernel
	// is range-guarded, its last two arguments the [lo, hi] flattened group
	// range, and its in-range groups replay from the record where they can
	// (device.LaunchRecord).
	Record *device.LaunchRecord
}

// EnqueueNDRangeKernel enqueues a kernel execution
// (clEnqueueNDRangeKernel). The returned result is populated when the
// event fires. args is read when the launch starts, where buffer arguments
// are bound to the storage the transfers queued ahead of it left; the caller
// must not change it before then.
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, nd vm.NDRange, args []Arg, opts LaunchOpts) (*sim.Event, *device.LaunchResult) {
	var rp *device.Replay
	if opts.Record != nil {
		rp = &device.Replay{Rec: opts.Record}
	}
	l := &device.Launch{
		Kernel:   k.VM,
		ND:       nd,
		Bind:     func() []vm.Arg { return k.bind(args, rp) },
		Replay:   rp,
		Abort:    opts.Abort,
		MidAbort: opts.MidAbort,
		Split:    opts.Split,
		Backend:  opts.Backend,
		Label:    k.Name,
	}
	q.q.Enqueue(l)
	return l.Done, l.Result
}

// EnqueueCall runs a host callback at this queue position (zero duration);
// the returned event fires after the callback runs.
func (q *CommandQueue) EnqueueCall(fn func()) *sim.Event {
	c := &device.Call{Fn: fn}
	q.q.Enqueue(c)
	return c.Done
}

// EnqueueMarker returns an event that fires when all previously enqueued
// commands have completed.
func (q *CommandQueue) EnqueueMarker() *sim.Event {
	c := &device.Call{}
	q.q.Enqueue(c)
	return c.Done
}

// Finish blocks the calling process until the queue drains (clFinish).
func (q *CommandQueue) Finish(p *sim.Proc) {
	p.Wait(q.EnqueueMarker())
}
