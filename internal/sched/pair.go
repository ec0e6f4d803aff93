package sched

import (
	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
)

// pair is the two-device host side static splits and the SOCL scheduler
// share: a context and an in-order queue per device, and the app's buffers
// with their locations; all lists every ocl.Buffer of bufs, for recycle.
type pair struct {
	cpuCtx, gpuCtx *ocl.Context
	cpuQ, gpuQ     *ocl.CommandQueue
	bufs           map[string]*sbuf
	all            []*ocl.Buffer
}

// sbuf is one app buffer of a pair: a copy per device, a host shadow (as
// FluidiCL's is), the GPU scratch a static split merges the buffer's CPU half
// with, and which device copies hold its current contents (neither: the host
// shadow does).
type sbuf struct {
	size          int
	cpu, gpu      *ocl.Buffer
	host          ocl.Buffer
	orig, cpuCopy *ocl.Buffer
	onCPU, onGPU  bool
}

// newPair creates machine m's two devices on env and the app's buffers on
// both, in name order.
func newPair(env *sim.Env, m Machine, app *App) *pair {
	d := &pair{
		cpuCtx: ocl.NewContext(env, device.New(env, m.CPU)),
		gpuCtx: ocl.NewContext(env, device.New(env, m.GPU)),
		bufs:   map[string]*sbuf{},
	}
	d.cpuQ, d.gpuQ = d.cpuCtx.CreateQueue("app"), d.gpuCtx.CreateQueue("app")
	for _, name := range sortedBufferNames(app.Buffers) {
		size := app.Buffers[name]
		b := &sbuf{size: size, cpu: d.cpuCtx.CreateBuffer(size), gpu: d.gpuCtx.CreateBuffer(size),
			host: ocl.Buffer{Size: size}, orig: d.gpuCtx.CreateBuffer(size), cpuCopy: d.gpuCtx.CreateBuffer(size)}
		d.bufs[name], d.all = b, append(d.all, b.cpu, b.gpu, &b.host, b.orig, b.cpuCopy)
	}
	return d
}

// dev returns b's GPU or CPU copy.
func (b *sbuf) dev(gpu bool) *ocl.Buffer {
	if gpu {
		return b.gpu
	}
	return b.cpu
}

// only records that b's GPU (or CPU) copy alone holds its contents.
func (b *sbuf) only(gpu bool) { b.onGPU, b.onCPU = gpu, !gpu }

// args lowers l's arguments for the GPU (or CPU) side, then appends extra.
func (d *pair) args(l Launch, gpu bool, extra ...ocl.Arg) []ocl.Arg {
	return lowerArgs(l, func(name string) ocl.Arg { return ocl.BufArg(d.bufs[name].dev(gpu)) }, ocl.IntArg, ocl.FloatArg, extra...)
}

// read copies b's contents into dst: from the GPU copy if it holds them,
// else from the CPU copy, else from the host shadow.
func (d *pair) read(p *sim.Proc, b *sbuf, dst []byte) {
	switch {
	case b.onGPU:
		p.Wait(d.gpuQ.EnqueueReadBuffer(b.gpu, dst))
	case b.onCPU:
		p.Wait(d.cpuQ.EnqueueReadBuffer(b.cpu, dst))
	default:
		b.host.ReadAt(dst, 0)
	}
}

// readOut is drive's read step: a copy of the named buffer's contents.
func (d *pair) readOut(p *sim.Proc, name string) []byte {
	b := d.bufs[name]
	out := make([]byte, b.size)
	d.read(p, b, out)
	return out
}

// ensure makes b's GPU (or CPU) copy hold its contents, moving them through
// the host shadow: a device copy that holds them comes home into storage the
// shadow owns, taken on first use (most buffers are inputs that never pass
// through the host). The shadow changes, so the upload copies it.
func (d *pair) ensure(p *sim.Proc, b *sbuf, gpu bool) {
	on, q := &b.onCPU, d.cpuQ
	if gpu {
		on, q = &b.onGPU, d.gpuQ
	}
	if *on {
		return
	}
	if b.onCPU || b.onGPU {
		d.read(p, b, b.host.Own(false))
	}
	p.Wait(q.EnqueueWriteBufferAtTagged(b.dev(gpu), 0, b.host.Bytes(), "write"))
	*on = true
}

// ensureArgs runs ensure on each given side for every buffer launch l reads
// or writes, buffer by buffer.
func (d *pair) ensureArgs(p *sim.Proc, ki *clc.KernelInfo, l Launch, sides ...bool) {
	for i, param := range ki.Kernel.Params {
		if acc := ki.ParamAccess[param.Name]; param.Ty.Ptr && (acc.Read || acc.Written) {
			for _, gpu := range sides {
				d.ensure(p, d.bufs[l.Args[i].Name], gpu)
			}
		}
	}
}

// writtenBufNames names the buffers launch l writes, in argument order.
func writtenBufNames(ki *clc.KernelInfo, l Launch) []string {
	var out []string
	for i, param := range ki.Kernel.Params {
		if param.Ty.Ptr && ki.ParamAccess[param.Name].Written {
			out = append(out, l.Args[i].Name)
		}
	}
	return out
}
