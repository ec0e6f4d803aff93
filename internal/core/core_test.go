package core

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/passes"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// decisions returns the instants on rec's RuntimeTrack whose name contains
// substr, in record order, which is virtual-time order.
func decisions(rec *trace.Recorder, substr string) []trace.Event {
	track := slices.Index(rec.Tracks(), RuntimeTrack)
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Track == track && strings.Contains(e.Name, substr) {
			out = append(out, e)
		}
	}
	return out
}

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

// TestStatusWordsLandInPlace: the CPU's status messages are copied into the
// status buffer's own storage — the storage the GPU kernel was bound to when
// it started — so its abort checks read each status as it lands. A
// handed-over status write would give the buffer new storage the running
// kernel never sees.
func TestStatusWordsLandInPlace(t *testing.T) {
	gpu := device.TeslaC2070()
	gpu.ComputeUnits = 2
	n, m := 1024, 3000
	_, rt, _ := runScale(t, device.XeonW3550(), gpu, n, m, Options{})
	rep := rt.Reports[0]
	if rep.CPUWGs == 0 || rep.GPUExecuted == 0 {
		t.Fatalf("no status crossed a running GPU kernel: %+v", rep)
	}
	status := rt.proto.(*twin).statusBuf.Detach()
	if status == nil {
		t.Fatal("the status buffer does not own its storage")
	}
	kid := binary.LittleEndian.Uint32(status[4*passes.StatusKernelID:])
	from := int(binary.LittleEndian.Uint32(status[4*passes.StatusDoneFrom:]))
	if kid != 1 || from >= rep.TotalWGs {
		t.Fatalf("status storage holds kernel %d, done from %d: not the statuses that landed", kid, from)
	}
}

// TestRefreshCopiesTheShadow: the device-to-host thread refreshes the CPU's
// copy of a merged out buffer from the host shadow, which the next kernel's
// results overwrite, so the refresh copies it; a handed-over shadow would
// let later host-side changes reach the CPU copy.
func TestRefreshCopiesTheShadow(t *testing.T) {
	gpu := device.TeslaC2070()
	gpu.ComputeUnits = 2
	_, rt, _ := runScale(t, device.XeonW3550(), gpu, 1024, 3000, Options{})
	if rep := rt.Reports[0]; rep.CPUDidAll {
		t.Fatalf("the merge path did not run: %+v", rep)
	}
	out := rt.bufs[1]
	if cpu := out.bufs[twinCPU].Bytes(); &cpu[0] == &out.host.Bytes()[0] {
		t.Fatal("the CPU copy of the out buffer shares the host shadow")
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

// TestScratchFromBytePool: the twin's GPU merge scratch (two buffers per
// written buffer and its device-to-host snapshot) goes back to the runtime's
// byte pool when a kernel is done with it, and from the second of five
// kernels on it comes from there: the pool's buffer-sized slices after each
// later kernel are the ones it held after the first. Scratch that bypassed
// the pool would add new slices there, or leave fewer than three.
func TestScratchFromBytePool(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, _ := rt.BuildProgram(scaleSrc)
	k := prog.MustKernel("scale")
	const n = 4096
	bufA, bufOut := rt.CreateBuffer(4*n), rt.CreateBuffer(4*n)
	pooled := func() map[*byte]bool {
		m := map[*byte]bool{}
		for _, s := range rt.bp.free {
			if cap(s) >= 4*n {
				m[&s[:1][0]] = true
			}
		}
		return m
	}
	var first map[*byte]bool
	env.Go("app", func(p *sim.Proc) {
		rt.EnqueueWriteBuffer(p, bufA, f32buf(make([]float32, n)...))
		for iter := 0; iter < 5; iter++ {
			if err := rt.EnqueueNDRangeKernel(p, k, vm.NewNDRange1D(n, 64),
				[]Arg{BufArg(bufA), BufArg(bufOut), IntArg(n), IntArg(2)}); err != nil {
				t.Error(err)
				return
			}
			rt.Finish(p) // every scratch of this kernel released
			switch got := pooled(); {
			case iter == 0:
				if first = got; len(first) < 3 {
					t.Errorf("the pool holds %d buffer-sized slices after the first kernel, want its 3 scratches' at least", len(first))
				}
			case !maps.Equal(got, first):
				t.Errorf("kernel %d: the pool's buffer-sized slices are not the first kernel's", iter+1)
			}
		}
	})
	env.Run()
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

// TestCPUVariantAnalysedChecked: AddCPUVariant analyses the variant as
// clc.Check typed it. The store index below reaches the work-item's own
// slot through a plain assignment to an int, which the walker follows only
// on a typed identifier; then out is slot-exact and write-only, and the
// variant's subkernel range guard is dropped.
func TestCPUVariantAnalysedChecked(t *testing.T) {
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
	prog, err := rt.BuildProgram(variantSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("work")
	const slotSrc = `
__kernel void work_slot(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    int t = 0;
    t = 0 * n + i;
    if (i < n) {
        float s = 0.0f;
        for (int k = 0; k < n; k++) { s += a[t + k * n]; }
        out[t] = s;
    }
}
`
	if err := k.AddCPUVariant(slotSrc, "work_slot"); err != nil {
		t.Fatal(err)
	}
	if src := clc.PrintKernel(k.variants[0].Info.Kernel); strings.Contains(src, "fcl_fgid") {
		t.Errorf("the variant kept its range guard:\n%s", src)
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
	if err := k.AddCPUVariant(variantCPUSrc, "missing"); err == nil {
		t.Fatal("a variant name its source lacks accepted")
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
	rec := trace.NewRecorder()
	env.Trace = rec // before the devices, as for any recorder
	rt := MustNew(env, device.New(env, device.XeonW3550()), device.New(env, device.TeslaC2070()), Options{})
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

	if len(decisions(rec, "")) == 0 {
		t.Fatal("no decisions recorded")
	}
	// Subkernel launches must strictly precede their status arrivals, and
	// status arrivals must be in decreasing done-from order.
	launches := decisions(rec, "CPU subkernel launch")
	statuses := decisions(rec, "status arrived")
	if len(launches) == 0 {
		t.Fatal("no CPU subkernels launched")
	}
	if len(statuses) > len(launches) {
		t.Fatalf("%d statuses for %d launches", len(statuses), len(launches))
	}
	for i, s := range statuses {
		if s.Start <= launches[i].Start {
			t.Fatalf("status %d at %v not after its subkernel launch at %v", i, s.Start, launches[i].Start)
		}
		if i > 0 && s.Start < statuses[i-1].Start {
			t.Fatal("status arrivals out of order")
		}
	}
	// The kernel-done event must exist and precede the call return.
	done := decisions(rec, "GPU kernel done")
	ret := decisions(rec, "kernel call returns")
	if len(done) != 1 || len(ret) != 1 {
		t.Fatalf("done=%d returns=%d, want 1/1\n%v", len(done), len(ret), decisions(rec, ""))
	}
	if ret[0].Start < done[0].Start {
		t.Fatal("call returned before GPU kernel completed")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	n, m := 64, 10
	_, rt, _ := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m, Options{})
	if rt.Env.Trace != nil || rt.fclTrk != 0 {
		t.Fatal("decisions recorded without a recorder")
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
	if bufOut.lag.received != bufOut.lag.expected {
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
	rec := trace.NewRecorder()
	env.Trace = rec
	rt := MustNew(env, device.New(env, cpu), device.New(env, gpu), Options{OnlineProfiling: true})
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
	launches := decisions(rec, "CPU subkernel launch")
	if len(launches) < 2 {
		t.Skip("not enough subkernels to observe probing")
	}
	// The first two launches are profiling probes over 2 work-groups each
	// (variant 0 then variant 1).
	if !contains(launches[0].Name, "variant 0") {
		t.Fatalf("first probe = %q", launches[0].Name)
	}
	if !contains(launches[1].Name, "variant 1") {
		t.Fatalf("second probe = %q, want variant 1", launches[1].Name)
	}
}

// TestVMCountersWGBackend checks that the whole-work-group compilation
// counters move in vm.BackendSnapshot when a runtime executes under the wg
// backend: a certifiable kernel counts lockstep work-groups
// and compiled regions, while an uncertifiable scatter kernel shows up as
// groups run in one-lane sets. (The exact counts for rejected launches live
// at the vm layer, where no runtime-internal merge launches can interfere.)
func TestVMCountersWGBackend(t *testing.T) {
	defer vm.SetBackend(vm.DefaultBackend())
	vm.SetBackend(vm.BackendWG)
	n, m := 64, 4
	before := vm.BackendSnapshot()
	out, _, _ := runScale(t, device.XeonW3550(), device.TeslaC2070(), n, m, Options{})
	checkScale(t, out, n, m)
	after := vm.BackendSnapshot()
	if after.WGLoopWGs == before.WGLoopWGs {
		t.Errorf("wg backend ran but WGLoopWGs stayed %d", after.WGLoopWGs)
	}
	// WGKernels/WGRegions count compilations, which the two-layer compile
	// cache may have satisfied during earlier tests in this package — check
	// the absolute process-wide totals, not the delta.
	if after.WGKernels == 0 || after.WGRegions == 0 {
		t.Errorf("wg compilation counters stayed 0: %+v", after)
	}

	// A data-dependent scatter store cannot be certified noninterfering, so
	// every wg-backend dispatch of this kernel runs in one-lane sets.
	const scatterSrc = `
__kernel void scatter(__global int* idx, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[idx[i]] = 1.0f;
    }
}
`
	before = vm.BackendSnapshot()
	env := sim.NewEnv()
	rt := MustNew(env, device.New(env, device.XeonW3550()),
		device.New(env, device.TeslaC2070()), Options{})
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
	if vm.BackendSnapshot().WGFallbackWGs == before.WGFallbackWGs {
		t.Error("uncertifiable scatter kernel recorded no one-lane groups")
	}
}
