package core

import (
	"encoding/binary"
	"math"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

func f32buf(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func f32at(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

const scaleSrc = `
__kernel void scale(__global float* a, __global float* out, int n, int m) {
    int i = get_global_id(0);
    if (i < n) {
        float s = 0.0f;
        for (int k = 0; k < m; k++) {
            s += a[i] * 0.5f;
        }
        out[i] = s;
    }
}
`

// runScale executes the scale kernel through FluidiCL on the given device
// configs and returns the result plus the runtime (for reports).
func runScale(t *testing.T, cpuCfg, gpuCfg device.Config, n, m int, opts Options) ([]byte, *Runtime, sim.Time) {
	t.Helper()
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, cpuCfg), device.New(env, gpuCfg), opts)
	prog, err := rt.BuildProgram(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("scale")
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i%17) + 1
	}
	bufA := rt.CreateBuffer(4 * n)
	bufOut := rt.CreateBuffer(4 * n)
	var out []byte
	var end sim.Time
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n)), IntArg(int64(m))}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufOut)
		end = p.Now()
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	return out, rt, end
}

func checkScale(t *testing.T, out []byte, n, m int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := float32(i%17) + 1
		var want float32
		for k := 0; k < m; k++ {
			want += a * 0.5
		}
		if got := f32at(out, i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCooperativeExecutionCorrect(t *testing.T) {
	n, m := 512, 200
	out, rt, _ := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m, Options{})
	checkScale(t, out, n, m)
	rep := rt.Reports[0]
	if rep.TotalWGs != 32 {
		t.Fatalf("TotalWGs = %d", rep.TotalWGs)
	}
	covered := rep.GPUExecuted + rep.CPUWGs
	if covered < rep.TotalWGs {
		t.Fatalf("coverage: gpu=%d cpu=%d total=%d", rep.GPUExecuted, rep.CPUWGs, rep.TotalWGs)
	}
}

func TestBothDevicesParticipateWhenBalanced(t *testing.T) {
	// Equalize the devices so a split is profitable, with work-groups heavy
	// enough to outweigh transfer overheads.
	cpu := device.XeonW3550()
	gpu := device.TeslaC2070()
	gpu.ComputeUnits = 2 // weaken GPU so the CPU gets a meaningful share
	n, m := 1024, 3000
	out, rt, _ := runScale(t, cpu, gpu, n, m, Options{})
	checkScale(t, out, n, m)
	rep := rt.Reports[0]
	if rep.CPUWGs == 0 {
		t.Fatal("CPU executed nothing on a balanced machine")
	}
	if rep.GPUExecuted == 0 {
		t.Fatal("GPU executed nothing on a balanced machine")
	}
	if rep.Subkernels < 2 {
		t.Fatalf("subkernels = %d, want several", rep.Subkernels)
	}
}

func TestCPUDoesAllWhenGPUHopeless(t *testing.T) {
	gpu := device.TeslaC2070()
	gpu.ClockHz /= 5000
	gpu.MemBytesPerSec /= 5000
	gpu.KernelLaunchOverhead = 50e-3 // GPU takes forever to even start
	n, m := 256, 100
	out, rt, _ := runScale(t, device.XeonW3550(), gpu, n, m, Options{})
	checkScale(t, out, n, m)
	rep := rt.Reports[0]
	if !rep.CPUDidAll {
		t.Fatalf("expected CPU to complete everything: %+v", rep)
	}
}

func TestGPUDoesAllWhenCPUHopeless(t *testing.T) {
	cpu := device.XeonW3550()
	cpu.ClockHz /= 10000
	cpu.SeqBytesPerSec /= 10000
	cpu.RandBytesPerSec /= 10000
	cpu.KernelLaunchOverhead = 100e-3
	n, m := 256, 100
	out, rt, _ := runScale(t, cpu, device.TeslaC2070(), n, m, Options{})
	checkScale(t, out, n, m)
	rep := rt.Reports[0]
	if rep.CPUDidAll {
		t.Fatal("CPU cannot have done everything")
	}
	if rep.GPUExecuted < rep.TotalWGs-rep.CPUWGs {
		t.Fatalf("GPU under-covered: %+v", rep)
	}
}

const twoKernelSrc = `
__kernel void k1(__global float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) { b[i] = a[i] * 2.0f; }
}
__kernel void k2(__global float* b, __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = b[i] + 1.0f; }
}
`

func TestMultiKernelCoherence(t *testing.T) {
	// Kernel 2 consumes kernel 1's output; FluidiCL must keep the buffer
	// coherent across devices without programmer effort.
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, err := rt.BuildProgram(twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := prog.MustKernel("k1"), prog.MustKernel("k2")
	n := 256
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
	}
	bufA, bufB, bufC := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		nd := vm.NewNDRange1D(n, 16)
		if err := rt.EnqueueNDRangeKernel(p, k1, nd, []Arg{BufArg(bufA), BufArg(bufB), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		if err := rt.EnqueueNDRangeKernel(p, k2, nd, []Arg{BufArg(bufB), BufArg(bufC), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufC)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	for i := 0; i < n; i++ {
		want := float32(i)*2 + 1
		if got := f32at(out, i); got != want {
			t.Fatalf("c[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestMultiKernelAfterCPUDidAll(t *testing.T) {
	// First kernel completes entirely on the CPU (GPU crippled), leaving
	// the GPU stale; the second kernel must still see correct inputs.
	env := sim.NewEnv()
	gpu := device.TeslaC2070()
	gpu.KernelLaunchOverhead = 20e-3 // slow to start; CPU wins kernel 1
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, gpu), Options{})
	prog, err := rt.BuildProgram(twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := prog.MustKernel("k1"), prog.MustKernel("k2")
	n := 128
	a := make([]float32, n)
	for i := range a {
		a[i] = 3
	}
	bufA, bufB, bufC := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		nd := vm.NewNDRange1D(n, 16)
		if err := rt.EnqueueNDRangeKernel(p, k1, nd, []Arg{BufArg(bufA), BufArg(bufB), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		if err := rt.EnqueueNDRangeKernel(p, k2, nd, []Arg{BufArg(bufB), BufArg(bufC), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufC)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	if !rt.Reports[0].CPUDidAll {
		t.Skip("GPU unexpectedly won kernel 1; scenario not exercised")
	}
	for i := 0; i < n; i++ {
		if got := f32at(out, i); got != 7 {
			t.Fatalf("c[%d] = %v, want 7", i, got)
		}
	}
}

func TestReadAvoidsTransferWhenDataOnCPU(t *testing.T) {
	// After a kernel, the DH thread brings data home; a read then costs no
	// additional virtual time (§6.2).
	n, m := 256, 100
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, _ := rt.BuildProgram(scaleSrc)
	k := prog.MustKernel("scale")
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var tRead1, tRead2 sim.Time
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(make([]float32, n)...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n)), IntArg(int64(m))}); err != nil {
			t.Error(err)
			return
		}
		rt.EnqueueReadBuffer(p, bufOut) // waits for DH
		tRead1 = p.Now()
		rt.EnqueueReadBuffer(p, bufOut) // location-tracked: free
		tRead2 = p.Now()
	})
	env.Run()
	if tRead2 != tRead1 {
		t.Fatalf("second read cost %v, want 0 (location tracking)", tRead2-tRead1)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	// Repeated kernels reuse GPU scratch buffers instead of creating new
	// ones every launch (§6.1).
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, _ := rt.BuildProgram(scaleSrc)
	k := prog.MustKernel("scale")
	n := 256
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(make([]float32, n)...))
		for iter := 0; iter < 5; iter++ {
			if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
				[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n)), IntArg(100)}); err != nil {
				t.Error(err)
				return
			}
			rt.EnqueueReadBuffer(p, bufOut)
		}
	})
	env.Run()
	pool := rt.proto.(*twin).pool
	created, reused := pool.Created, pool.Reused
	// 5 kernels × 2 scratch buffers = 10 acquisitions; the pool must serve
	// most from reuse (releases land asynchronously, so up to two kernels'
	// worth of scratch can exist at once).
	if created > 4 {
		t.Fatalf("created %d scratch buffers, want <= 4", created)
	}
	if reused < 6 {
		t.Fatalf("reused only %d times across 5 kernels", reused)
	}
}

// TestBufferPoolTrimFreesTheDropped: a pool past its bound gives the oldest
// buffers up for good — their storage goes to the free list the next
// CreateBuffer draws from, and the pool keeps no reference to them.
func TestBufferPoolTrimFreesTheDropped(t *testing.T) {
	defer ocl.Recycle(nil)
	env := sim.NewEnv()
	pool := &bufferPool{ctx: ocl.NewContext(env, device.New(env, device.TeslaC2070()))}
	var bufs []*ocl.Buffer
	for i := 0; i < 20; i++ {
		bufs = append(bufs, pool.acquire(8192))
	}
	oldest := bufs[0].Bytes()
	for _, b := range bufs {
		pool.release(b)
	}
	if len(pool.free) != 16 || pool.free[0] != bufs[4] {
		t.Fatalf("pool holds %d buffers, want the newest 16", len(pool.free))
	}
	for i, b := range bufs[:4] {
		if b.Bytes() != nil {
			t.Errorf("dropped buffer %d kept its storage", i)
		}
	}
	for i, b := range pool.free[:cap(pool.free)][len(pool.free):] {
		if b != nil {
			t.Errorf("the pool's backing array still references a buffer past its end (slot %d)", i)
		}
	}
	var drawn bool
	for i := 0; i < 4; i++ {
		if nb := pool.ctx.CreateBuffer(8192).Bytes(); &nb[0] == &oldest[0] {
			drawn = true
		}
	}
	if !drawn {
		t.Error("the dropped buffers' storage did not reach the free list")
	}
}

const variantSrc = `
__kernel void work(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float s = 0.0f;
        for (int k = 0; k < n; k++) { s += a[k * n + i]; }
        out[i] = s;
    }
}
`

// cpuFriendlySrc computes the same result with row-sequential access.
const variantCPUSrc = `
__kernel void work_cpu(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float s = 0.0f;
        for (int k = 0; k < n; k++) { s += a[i + k * n]; }
        out[i] = s;
    }
}
`

func TestOnlineProfilingPicksFasterVariant(t *testing.T) {
	// Note: both variants compute identical sums; the "CPU variant" here is
	// textually different but accesses the same elements, so correctness is
	// trivially preserved; profiling must still pick the faster-measured one.
	env := sim.NewEnv()
	cpu := device.XeonW3550()
	rt := MustNew(env, device.New(env, cpu), device.New(env, device.TeslaC2070()), Options{OnlineProfiling: true})
	prog, err := rt.BuildProgram(variantSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("work")
	if err := k.AddCPUVariant(variantCPUSrc, "work_cpu"); err != nil {
		t.Fatal(err)
	}
	n := 128
	a := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i % 7)
	}
	bufA, bufOut := rt.CreateBuffer(4*n*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		for iter := 0; iter < 3; iter++ {
			if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 8),
				[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n))}); err != nil {
				t.Error(err)
				return
			}
		}
		out = rt.EnqueueReadBuffer(p, bufOut)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	for i := 0; i < n; i++ {
		var want float32
		for kk := 0; kk < n; kk++ {
			want += a[kk*n+i]
		}
		if got := f32at(out, i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	if !k.profiled {
		t.Skip("CPU saw too few subkernels to finish profiling in this configuration")
	}
}

func TestAddCPUVariantValidatesSignature(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, _ := rt.BuildProgram(variantSrc)
	k := prog.MustKernel("work")
	bad := `__kernel void b(__global float* a, int n) { a[0] = (float)n; }`
	if err := k.AddCPUVariant(bad, "b"); err == nil {
		t.Fatal("mismatched variant accepted")
	}
}

func TestKernelArgCountValidation(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, _ := rt.BuildProgram(scaleSrc)
	k := prog.MustKernel("scale")
	var gotErr error
	env.Go("app", func(p *sim.Proc) {
		gotErr = rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(16, 16), []Arg{IntArg(1)})
	})
	env.Run()
	if gotErr == nil {
		t.Fatal("arg count mismatch accepted")
	}
}

func TestVMErrorPropagates(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, err := rt.BuildProgram(`
__kernel void oob(__global float* a) { a[get_global_id(0) + 1000000] = 1.0f; }
`)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("oob")
	buf := rt.CreateBuffer(64)
	var gotErr error
	env.Go("app", func(p *sim.Proc) {
		gotErr = rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(16, 16), []Arg{BufArg(buf)})
	})
	env.Run()
	if gotErr == nil {
		t.Fatal("kernel fault not reported")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	n, m := 512, 300
	out1, rt1, end1 := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m, Options{})
	out2, rt2, end2 := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m, Options{})
	if string(out1) != string(out2) {
		t.Fatal("nondeterministic results")
	}
	if end1 != end2 {
		t.Fatalf("nondeterministic timing: %v vs %v", end1, end2)
	}
	if rt1.Reports[0].Subkernels != rt2.Reports[0].Subkernels {
		t.Fatal("nondeterministic scheduling")
	}
}

func TestTransformedSourcesExposed(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, err := rt.BuildProgram(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"fcl_status", "fcl_kid", "fcl_fgid"} {
		if !contains(prog.GPUSrc, frag) {
			t.Fatalf("GPU source missing %q:\n%s", frag, prog.GPUSrc)
		}
	}
	// scale writes out[] slot-exactly, so the analyzer lets TransformCPU
	// drop the range-guard prologue; the lo/hi parameters stay in the ABI.
	for _, frag := range []string{"fcl_lo", "fcl_hi"} {
		if !contains(prog.CPUSrc, frag) {
			t.Fatalf("CPU source missing %q:\n%s", frag, prog.CPUSrc)
		}
	}
	if contains(prog.CPUSrc, "fcl_fgid") {
		t.Fatalf("CPU source kept the range guard despite a slot-exact write-only summary:\n%s", prog.CPUSrc)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.InitialChunkPct != 2 || o.StepPct != 2 || o.UnrollFactor != 4 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestTwoDimensionalKernel(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, err := rt.BuildProgram(`
__kernel void mat(__global float* a, __global float* b, int n) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < n) { b[i * n + j] = a[i * n + j] * 3.0f; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("mat")
	n := 64
	a := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i % 13)
	}
	bufA, bufB := rt.CreateBuffer(4*n*n), rt.CreateBuffer(4*n*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange2D(n, n, 8, 8),
			[]Arg{BufArg(bufA), BufArg(bufB), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufB)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	for i := range a {
		if got := f32at(out, i); got != a[i]*3 {
			t.Fatalf("b[%d] = %v, want %v", i, got, a[i]*3)
		}
	}
}

func TestTraceTimelineInvariants(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	tr := rt.EnableTrace()
	prog, err := rt.BuildProgram(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("scale")
	n, m := 512, 300
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(make([]float32, n)...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n)), IntArg(int64(m))}); err != nil {
			t.Error(err)
			return
		}
		rt.EnqueueReadBuffer(p, bufOut)
	})
	env.Run()

	if len(tr.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Subkernel launches must strictly precede their status arrivals, and
	// status arrivals must be in decreasing done-from order.
	launches := tr.Find("CPU subkernel launch")
	statuses := tr.Find("status arrived")
	if len(launches) == 0 {
		t.Fatal("no CPU subkernels launched")
	}
	if len(statuses) > len(launches) {
		t.Fatalf("%d statuses for %d launches", len(statuses), len(launches))
	}
	for i, s := range statuses {
		if s.T <= launches[i].T {
			t.Fatalf("status %d at %v not after its subkernel launch at %v", i, s.T, launches[i].T)
		}
		if i > 0 && s.T < statuses[i-1].T {
			t.Fatal("status arrivals out of order")
		}
	}
	// The kernel-done event must exist and precede the call return.
	done := tr.Find("GPU kernel done")
	ret := tr.Find("kernel call returns")
	if len(done) != 1 || len(ret) != 1 {
		t.Fatalf("done=%d returns=%d, want 1/1\n%s", len(done), len(ret), tr)
	}
	if ret[0].T < done[0].T {
		t.Fatal("call returned before GPU kernel completed")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	n, m := 64, 10
	_, rt, _ := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m, Options{})
	if rt.trace != nil {
		t.Fatal("trace enabled without EnableTrace")
	}
}

func TestDisasmGPUMentionsTransforms(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, err := rt.BuildProgram(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("scale")
	d := k.Disasm(twinGPU)
	for _, frag := range []string{"kernel scale", "fcl_status", "ret"} {
		if !contains(d, frag) {
			t.Fatalf("disassembly missing %q:\n%s", frag, d)
		}
	}
}

func TestEarlyReturnWhenGPUStuckBehindUpload(t *testing.T) {
	// A GPU with a glacial host link never starts the kernel before the
	// CPU finishes everything; the blocking call must return without
	// waiting for the zombie GPU launch.
	gpu := device.TeslaC2070()
	gpu.Link.BytesPerSec = 1e6 // ~1 MB/s: the upload takes ages
	gpu.Link.LatencySec = 1e-3
	n, m := 256, 50
	out, rt, end := runScale(t, device.XeonW3550(), gpu, n, m, Options{})
	checkScale(t, out, n, m)
	rep := rt.Reports[0]
	if !rep.CPUDidAll {
		t.Fatalf("expected CPU-did-all: %+v", rep)
	}
	// The app must finish far sooner than the GPU upload alone (4*256
	// bytes at 1MB/s plus latency exceeds 1ms; CPU needs ~100us).
	if end > 1e-3 {
		t.Fatalf("app took %v: it waited for the stuck GPU", end)
	}
}

func TestZombieKernelDoesNotCorruptNextKernel(t *testing.T) {
	// After an early return, the abandoned GPU launch eventually runs and
	// writes stale data; the next kernel must still see correct inputs.
	gpu := device.TeslaC2070()
	gpu.Link.BytesPerSec = 2e7 // slow enough that the CPU wins kernel 1
	gpu.Link.LatencySec = 200e-6
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, gpu), Options{})
	prog, err := rt.BuildProgram(twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := prog.MustKernel("k1"), prog.MustKernel("k2")
	n := 128
	a := make([]float32, n)
	for i := range a {
		a[i] = 5
	}
	bufA, bufB, bufC := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var out []byte
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(a...))
		nd := vm.NewNDRange1D(n, 16)
		if err := rt.EnqueueNDRangeKernel(p, k1, nd, []Arg{BufArg(bufA), BufArg(bufB), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		if err := rt.EnqueueNDRangeKernel(p, k2, nd, []Arg{BufArg(bufB), BufArg(bufC), IntArg(int64(n))}); err != nil {
			t.Error(err)
			return
		}
		out = rt.EnqueueReadBuffer(p, bufC)
	})
	env.Run()
	if out == nil {
		t.Fatal("app did not complete")
	}
	for i := 0; i < n; i++ {
		if got := f32at(out, i); got != 11 {
			t.Fatalf("c[%d] = %v, want 11", i, got)
		}
	}
}

func TestFinishDrainsAllQueues(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, _ := rt.BuildProgram(scaleSrc)
	k := prog.MustKernel("scale")
	n := 256
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	var afterKernel, afterFinish sim.Time
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(make([]float32, n)...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n)), IntArg(200)}); err != nil {
			t.Error(err)
			return
		}
		afterKernel = p.Now()
		rt.Finish(p)
		afterFinish = p.Now()
	})
	env.Run()
	if afterFinish < afterKernel {
		t.Fatal("Finish went backwards")
	}
	// After Finish, the DH transfer must have completed: a read is free.
	if bufOut.twin().receivedVersion != bufOut.twin().expectedVersion {
		t.Fatal("Finish returned with DH still pending")
	}
}

func TestDeferredCPUErrorSurfaces(t *testing.T) {
	// A kernel whose CPU subkernel faults after the GPU already finished
	// must surface the error on the next runtime call.
	env := sim.NewEnv()
	cpu := device.XeonW3550()
	rt := MustNew(env, device.New(env, cpu), device.New(env, device.TeslaC2070()), Options{})
	// Out-of-bounds only for the top work-group (which the CPU claims
	// first); the GPU never reaches it because... it does — both fault.
	// Use an input-dependent fault instead: index i*stride with a stride
	// buffer the kernel reads; all work-items in the top groups fault.
	prog, err := rt.BuildProgram(`
__kernel void f(__global float* a, int n) {
    int i = get_global_id(0);
    if (i >= n - 16) {
        a[i + 1000000] = 1.0f; // top work-group faults
    } else {
        a[i] = 1.0f;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("f")
	n := 256
	buf := rt.CreateBuffer(4 * n)
	var err1 error
	env.Go("app", func(p *sim.Proc) {
		err1 = rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16), []Arg{BufArg(buf), IntArg(int64(n))})
	})
	env.Run()
	// Both devices eventually hit the faulting group; the error must
	// surface either directly or as a deferred error.
	if err1 == nil && rt.deferredErr == nil {
		t.Fatal("fault never surfaced")
	}
}

func TestOnlineProfilingProbesUseSmallAllocations(t *testing.T) {
	env := sim.NewEnv()
	cpu := device.XeonW3550()
	gpu := device.TeslaC2070()
	gpu.ComputeUnits = 2 // let the CPU run several subkernels
	rt := MustNew(env, device.New(env, cpu), device.New(env, gpu), Options{OnlineProfiling: true})
	tr := rt.EnableTrace()
	prog, err := rt.BuildProgram(variantSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("work")
	if err := k.AddCPUVariant(variantCPUSrc, "work_cpu"); err != nil {
		t.Fatal(err)
	}
	n := 128
	bufA, bufOut := rt.CreateBuffer(4*n*n), rt.CreateBuffer(4*n)
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(make([]float32, n*n)...))
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 8),
			[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(int64(n))}); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	launches := tr.Find("CPU subkernel launch")
	if len(launches) < 2 {
		t.Skip("not enough subkernels to observe probing")
	}
	// The first two launches are profiling probes over 2 work-groups each
	// (variant 0 then variant 1).
	if !contains(launches[0].What, "variant 0") {
		t.Fatalf("first probe = %q", launches[0].What)
	}
	if !contains(launches[1].What, "variant 1") {
		t.Fatalf("second probe = %q, want variant 1", launches[1].What)
	}
}

// TestCounterSnapshotWGBackend checks that the whole-work-group compilation
// counters surface through core.CounterSnapshot when a runtime executes
// under the wg backend: a certifiable kernel counts lockstep work-groups
// and compiled regions, while an uncertifiable scatter kernel shows up as
// fallbacks. (The strict zero-lockstep assertion for fallback kernels lives
// at the vm layer, where no runtime-internal merge launches can interfere.)
func TestCounterSnapshotWGBackend(t *testing.T) {
	n, m := 64, 4
	before := CounterSnapshot()
	out, _, _ := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m,
		Options{Backend: vm.BackendWG})
	checkScale(t, out, n, m)
	after := CounterSnapshot()
	d := after.Sub(before)
	if d.WGLoopWGs == 0 {
		t.Errorf("wg backend ran but WGLoopWGs stayed 0: %+v", d)
	}
	// WGKernels/WGRegions count compilations, which the two-layer compile
	// cache may have satisfied during earlier tests in this package — check
	// the absolute process-wide totals, not the delta.
	if after.WGKernels == 0 || after.WGRegions == 0 {
		t.Errorf("wg compilation counters stayed 0: %+v", after)
	}

	// A data-dependent scatter store cannot be certified noninterfering, so
	// every wg-backend dispatch of this kernel must fall back.
	const scatterSrc = `
__kernel void scatter(__global int* idx, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[idx[i]] = 1.0f;
    }
}
`
	before = CounterSnapshot()
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()),
		device.New(env, device.TeslaC2070()), Options{Backend: vm.BackendWG})
	prog, err := rt.BuildProgram(scatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("scatter")
	idx := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(idx[4*i:], uint32(i))
	}
	bufIdx, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufIdx, idx)
		if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufIdx), BufArg(bufOut), IntArg(int64(n))}); err != nil {
			t.Error(err)
		}
		rt.EnqueueReadBuffer(p, bufOut)
	})
	env.Run()
	d = CounterSnapshot().Sub(before)
	if d.WGFallbackWGs == 0 {
		t.Errorf("uncertifiable scatter kernel recorded no wg fallbacks: %+v", d)
	}
}
