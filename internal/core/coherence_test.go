package core

import (
	"fmt"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// coherenceCase is one host program that drives a runtime over a CPU and a
// GPU and reports the first wrong word it finds ("" when every word is
// right). shape says whether the run reached the case the program is about
// on these devices ("" when it did): a timing-independence run, which
// changes the devices' speeds, checks the words alone.
type coherenceCase struct {
	name     string
	cpu, gpu func() device.Config
	run      func(t *testing.T, env *sim.Env, rt *Runtime) string
	shape    func(rt *Runtime) string
}

// coherenceCases are TestTwinCoherence's host programs.
func coherenceCases() []coherenceCase {
	return []coherenceCase{
		{"partial write after CPU-did-all", device.XeonW3550, slowLaunchGPU, partialWriteAfterCPUDidAll, cpuDidK1},
		{"write during D2H", device.XeonW3550, weakGPU, writeDuringD2H, merged},
		{"write-only kernel during D2H", device.XeonW3550, weakGPU, writeOnlyDuringD2H, func(*Runtime) string { return "" }},
	}
}

// TestTwinCoherence runs each host program under the twin protocol (New) and
// under N-way on the same two devices (NewTopo); the N-way rows are the
// referee. Each program reaches a case where a device copy or the host
// shadow can fall behind: a partial host write over a stale GPU copy, a host
// write racing the previous kernel's device-to-host transfer, and a kernel
// that only writes a buffer whose previous contents are still on their way
// to the CPU.
func TestTwinCoherence(t *testing.T) {
	for _, c := range coherenceCases() {
		for _, proto := range []string{"twin", "nway"} {
			t.Run(c.name+"/"+proto, func(t *testing.T) {
				env := sim.NewEnv()
				cpu, gpu := device.New(env, c.cpu()), device.New(env, c.gpu())
				var rt *Runtime
				var err error
				if proto == "twin" {
					rt, err = New(env, cpu, gpu, Options{})
				} else {
					rt, err = NewTopo(env, []*device.Device{cpu, gpu}, Options{})
				}
				if err != nil {
					t.Fatal(err)
				}
				if bad := c.run(t, env, rt); bad != "" {
					t.Fatal(bad)
				}
				if bad := c.shape(rt); bad != "" {
					t.Fatal(bad)
				}
				if err := rt.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// weakGPU is a GPU with two compute units, so the CPU takes a share of a
// heavy kernel and the twin protocol merges.
func weakGPU() device.Config {
	gpu := device.TeslaC2070()
	gpu.ComputeUnits = 2
	return gpu
}

// firstWrong returns the first word of out that differs from want(i).
func firstWrong(what string, out []byte, want func(i int) float32) string {
	for i := 0; i < len(out)/4; i++ {
		if got := f32at(out, i); got != want(i) {
			return fmt.Sprintf("%s[%d] = %v, want %v", what, i, got, want(i))
		}
	}
	return ""
}

// partialWriteAfterCPUDidAll: k1 writes the first sixteenth of b entirely on
// the CPU while the GPU is still starting its launch, so the GPU's copy of b
// is stale. The host then rewrites only the first 64 words of b; the rest of
// the GPU copy is still stale and must be brought current before k2, over
// the whole buffer, reads it there.
func partialWriteAfterCPUDidAll(t *testing.T, env *sim.Env, rt *Runtime) string {
	const n = 4096
	prog, err := rt.BuildProgram(twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := prog.MustKernel("k1"), prog.MustKernel("k2")
	a, head := make([]float32, n), make([]float32, 64)
	for i := range a {
		a[i] = 3
	}
	for i := range head {
		head[i] = 6
	}
	bufA, bufB, bufC := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		if err := rt.EnqueueNDRangeKernel(p, k1, vm.NewNDRange1D(n/16, 16),
			[]Arg{BufArg(bufA), BufArg(bufB), IntArg(n / 16)}); err != nil {
			t.Error(err)
			return
		}
		rt.Finish(p)
		rt.EnqueueWriteBuffer(p, bufB, f32buf(head...))
		if err := rt.EnqueueNDRangeKernel(p, k2, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufB), BufArg(bufC), IntArg(n)}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufC)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	return firstWrong("c", out, func(i int) float32 {
		if i < n/16 {
			return 7
		}
		return 1
	})
}

// cpuDidK1 is partialWriteAfterCPUDidAll's shape under the twin protocol: the
// CPU computed k1 alone and the GPU ran part of k2.
func cpuDidK1(rt *Runtime) string {
	if _, ok := rt.proto.(*twin); !ok {
		return ""
	}
	if rep := rt.Reports[0]; !rep.CPUDidAll {
		return fmt.Sprintf("k1 did not run entirely on the CPU: %+v", rep)
	}
	if rep := rt.Reports[1]; rep.GPUExecuted == 0 {
		return fmt.Sprintf("the GPU ran none of k2: %+v", rep)
	}
	return ""
}

// writeDuringD2H: the host rewrites scale's output as soon as the kernel
// call returns, while the merged result may still be on its way home. The
// write is the newer contents: after Finish, the host shadow and the CPU
// copy must hold it, not scale's result.
func writeDuringD2H(t *testing.T, env *sim.Env, rt *Runtime) string {
	const n, m = 1024, 1000 // scale gives 3 * 0.5 * 1000 = 1500
	prog, err := rt.BuildProgram(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("scale")
	a, w := make([]float32, n), make([]float32, n)
	for i := range a {
		a[i], w[i] = 3, 42
	}
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var host []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(n), IntArg(m)}); err != nil {
			t.Error(err)
			return
		}
		rt.EnqueueWriteBuffer(p, bufOut, f32buf(w...))
		rt.Finish(p)
		host = rt.EnqueueReadBuffer(p, bufOut)
	})
	env.Run()
	if host == nil {
		t.Fatal("app did not complete")
	}
	want := func(int) float32 { return 42 }
	if bad := firstWrong("host shadow", host, want); bad != "" {
		return bad
	}
	if bad := pendingInvariant(rt); bad != "" {
		return bad
	}
	if _, ok := rt.proto.(*twin); ok {
		// The twin writes to every device at once (§4.1), so its CPU copy
		// holds the write itself; N-way sends it when a chunk needs it.
		return firstWrong("CPU copy", bufOut.bufs[0].Bytes(), want)
	}
	return ""
}

// pendingInvariant checks the residency invariant of every buffer of rt
// with its queues drained: each device copy equals the host shadow outside
// its pending set. It returns the first byte that breaks it, or "".
func pendingInvariant(rt *Runtime) string {
	for bi, b := range rt.bufs {
		host, dev := make([]byte, b.Size), make([]byte, b.Size)
		b.host.ReadAt(host, 0)
		for di, db := range b.bufs {
			db.ReadAt(dev, 0)
			off := 0
			for i := 0; i <= len(b.pend[di].spans); i++ {
				end, next := b.Size, b.Size
				if i < len(b.pend[di].spans) {
					end, next = b.pend[di].spans[i].Off, b.pend[di].spans[i].End
				}
				for j := off; j < end; j++ {
					if dev[j] != host[j] {
						return fmt.Sprintf("buffer %d, device %d: byte %d = %#x outside the pending set %v, host shadow %#x",
							bi, di, j, dev[j], b.pend[di].spans, host[j])
					}
				}
				off = next
			}
		}
	}
	return ""
}

// merged is writeDuringD2H's shape: both devices computed part of scale.
func merged(rt *Runtime) string {
	if rep := rt.Reports[0]; rep.CPUWGs == 0 || rep.CPUDidAll {
		return fmt.Sprintf("scale did not merge the two devices' results: %+v", rep)
	}
	return ""
}

// fillSrc overwrites every word of its buffer without reading it.
const fillSrc = `
__kernel void fill(__global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = 2.0f; }
}
`

// writeOnlyDuringD2H: fill overwrites scale's output right after scale
// returns. fill never reads the buffer, but its CPU chunks must still run on
// a current CPU copy: scale's result, arriving later, must not land over
// fill's.
func writeOnlyDuringD2H(t *testing.T, env *sim.Env, rt *Runtime) string {
	const n, local, m = 65536, 64, 10
	prog, err := rt.BuildProgram(scaleSrc + fillSrc)
	if err != nil {
		t.Fatal(err)
	}
	scale, fill := prog.MustKernel("scale"), prog.MustKernel("fill")
	a := make([]float32, n)
	for i := range a {
		a[i] = 1
	}
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		nd := vm.NewNDRange1D(n, local)
		if err := rt.EnqueueNDRangeKernel(p, scale, nd,
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(n), IntArg(m)}); err != nil {
			t.Error(err)
			return
		}
		if err := rt.EnqueueNDRangeKernel(p, fill, nd, []Arg{BufArg(bufOut), IntArg(n)}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufOut)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	return firstWrong("out", out, func(int) float32 { return 2 })
}

// slowLaunchGPU is a GPU that takes 100 µs to start a kernel: long enough
// for the CPU to finish a 16-group kernel first, too short for a 256-group
// one.
func slowLaunchGPU() device.Config {
	gpu := device.TeslaC2070()
	gpu.KernelLaunchOverhead = 100e-6
	return gpu
}
