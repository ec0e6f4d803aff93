package passes

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/device"
	"fluidicl/internal/vm"
)

const testKernelSrc = `
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

func compileTransformed(t *testing.T, src, name string, gpu bool, opt GPUOptions) *vm.Kernel {
	t.Helper()
	prog, err := clc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel(name)
	if gpu {
		if _, err := TransformGPU(k, opt); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := TransformCPU(k); err != nil {
			t.Fatal(err)
		}
	}
	ki, err := clc.CheckKernel(k)
	if err != nil {
		t.Fatalf("transformed kernel does not type-check: %v\n%s", err, clc.PrintKernel(k))
	}
	ck, err := vm.Compile(ki)
	if err != nil {
		t.Fatal(err)
	}
	return ck
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

func statusBuf(kid, doneFrom int32) []byte {
	b := make([]byte, 4*StatusWords)
	binary.LittleEndian.PutUint32(b[4*StatusKernelID:], uint32(kid))
	binary.LittleEndian.PutUint32(b[4*StatusDoneFrom:], uint32(doneFrom))
	return b
}

func TestTransformCPURangeGuard(t *testing.T) {
	ck := compileTransformed(t, testKernelSrc, "scale", false, GPUOptions{})
	n := 64 // 8 groups of 8
	a := make([]float32, n)
	for i := range a {
		a[i] = 2
	}
	ab := f32buf(a...)
	out := make([]byte, 4*n)
	nd := vm.NewNDRange1D(n, 8)
	// Only groups 3..5 (work-items 24..47) should execute.
	args := []vm.Arg{
		vm.BufArg(ab), vm.BufArg(out), vm.IntArg(int64(n)), vm.IntArg(4),
		vm.IntArg(3), vm.IntArg(5),
	}
	if _, err := ck.ExecLaunch(nd, args, vm.ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := f32at(out, i)
		g := i / 8
		if g >= 3 && g <= 5 {
			if got != 4 {
				t.Fatalf("out[%d] = %v, want 4 (in range)", i, got)
			}
		} else if got != 0 {
			t.Fatalf("out[%d] = %v, want 0 (outside range)", i, got)
		}
	}
}

func TestTransformGPUEntryAbort(t *testing.T) {
	ck := compileTransformed(t, testKernelSrc, "scale", true, GPUOptions{})
	n := 64
	ab := f32buf(make([]float32, n)...)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(ab[4*i:], math.Float32bits(2))
	}
	out := make([]byte, 4*n)
	nd := vm.NewNDRange1D(n, 8)
	kid := int32(7)
	// CPU has completed groups >= 5.
	status := statusBuf(kid, 5)
	args := []vm.Arg{
		vm.BufArg(ab), vm.BufArg(out), vm.IntArg(int64(n)), vm.IntArg(4),
		vm.BufArg(status), vm.IntArg(int64(kid)),
	}
	if _, err := ck.ExecLaunch(nd, args, vm.ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := f32at(out, i)
		if i/8 < 5 {
			if got != 4 {
				t.Fatalf("out[%d] = %v, want 4 (GPU executes)", i, got)
			}
		} else if got != 0 {
			t.Fatalf("out[%d] = %v, want 0 (aborted: CPU completed)", i, got)
		}
	}
}

func TestTransformGPUStaleStatusIgnored(t *testing.T) {
	ck := compileTransformed(t, testKernelSrc, "scale", true, GPUOptions{})
	n := 16
	ab := f32buf(make([]float32, n)...)
	out := make([]byte, 4*n)
	nd := vm.NewNDRange1D(n, 8)
	// Status belongs to a previous kernel (kid mismatch) — must be ignored.
	status := statusBuf(3, 0)
	args := []vm.Arg{
		vm.BufArg(ab), vm.BufArg(out), vm.IntArg(int64(n)), vm.IntArg(1),
		vm.BufArg(status), vm.IntArg(9),
	}
	st, err := ck.ExecLaunch(nd, args, vm.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.GlobalStores != int64(n) {
		t.Fatalf("stores = %d, want %d (stale status must not abort)", st.GlobalStores, n)
	}
}

func TestSemanticsPreservedByGPUTransform(t *testing.T) {
	// With an invalid status, all transform variants must produce results
	// identical to the original kernel.
	variants := []GPUOptions{
		{},
		{AbortInLoops: true},
		{AbortInLoops: true, Unroll: true},
		{AbortInLoops: true, Unroll: true, UnrollFactor: 3},
	}
	n, m := 32, 7
	mkInput := func() []byte {
		a := make([]float32, n)
		for i := range a {
			a[i] = float32(i)*0.25 + 1
		}
		return f32buf(a...)
	}
	ref := vm.MustCompile(testKernelSrc, "scale")
	refOut := make([]byte, 4*n)
	nd := vm.NewNDRange1D(n, 8)
	if _, err := ref.ExecLaunch(nd, []vm.Arg{vm.BufArg(mkInput()), vm.BufArg(refOut), vm.IntArg(int64(n)), vm.IntArg(int64(m))}, vm.ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for vi, opt := range variants {
		ck := compileTransformed(t, testKernelSrc, "scale", true, opt)
		out := make([]byte, 4*n)
		status := statusBuf(-1, NoCPUWork)
		args := []vm.Arg{
			vm.BufArg(mkInput()), vm.BufArg(out), vm.IntArg(int64(n)), vm.IntArg(int64(m)),
			vm.BufArg(status), vm.IntArg(1),
		}
		if _, err := ck.ExecLaunch(nd, args, vm.ExecOpts{}); err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		if string(out) != string(refOut) {
			t.Fatalf("variant %d (%+v): results differ from reference", vi, opt)
		}
	}
}

func TestInLoopAbortReducesWork(t *testing.T) {
	// With status marking every group complete, the entry check returns
	// before any loop work; compare FloatOps against an untouched status.
	ck := compileTransformed(t, testKernelSrc, "scale", true, GPUOptions{AbortInLoops: true})
	n, m := 32, 1000
	nd := vm.NewNDRange1D(n, 8)
	run := func(doneFrom int32) vm.Stats {
		out := make([]byte, 4*n)
		args := []vm.Arg{
			vm.BufArg(f32buf(make([]float32, n)...)), vm.BufArg(out),
			vm.IntArg(int64(n)), vm.IntArg(int64(m)),
			vm.BufArg(statusBuf(1, doneFrom)), vm.IntArg(1),
		}
		st, err := ck.ExecLaunch(nd, args, vm.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := run(NoCPUWork)
	aborted := run(0)
	if aborted.FloatOps*10 > full.FloatOps {
		t.Fatalf("aborted FloatOps=%d vs full=%d; abort saves no work", aborted.FloatOps, full.FloatOps)
	}
}

func TestUnrollReducesCheckLoads(t *testing.T) {
	// The abort check reads fcl_status; with unrolling the in-loop check
	// runs once per UnrollFactor iterations, so global loads drop.
	n, m := 8, 64
	nd := vm.NewNDRange1D(n, 8)
	run := func(opt GPUOptions) vm.Stats {
		ck := compileTransformed(t, testKernelSrc, "scale", true, opt)
		out := make([]byte, 4*n)
		args := []vm.Arg{
			vm.BufArg(f32buf(make([]float32, n)...)), vm.BufArg(out),
			vm.IntArg(int64(n)), vm.IntArg(int64(m)),
			vm.BufArg(statusBuf(-1, NoCPUWork)), vm.IntArg(1),
		}
		st, err := ck.ExecLaunch(nd, args, vm.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	noUnroll := run(GPUOptions{AbortInLoops: true})
	unrolled := run(GPUOptions{AbortInLoops: true, Unroll: true, UnrollFactor: 4})
	if unrolled.GlobalLoads >= noUnroll.GlobalLoads {
		t.Fatalf("unrolled loads=%d, no-unroll loads=%d; unroll should reduce check loads",
			unrolled.GlobalLoads, noUnroll.GlobalLoads)
	}
}

func TestLoopCheckCountsInnermostOnly(t *testing.T) {
	src := `
__kernel void nested(__global float* a, int n) {
    int i = get_global_id(0);
    for (int x = 0; x < n; x++) {
        for (int y = 0; y < n; y++) {
            a[i] += 1.0f;
        }
    }
    for (int z = 0; z < n; z++) { a[i] += 2.0f; }
}
`
	prog := clc.MustParse(src)
	k := prog.Kernel("nested")
	checks, err := TransformGPU(k, GPUOptions{AbortInLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if checks != 2 {
		t.Fatalf("loop checks = %d, want 2 (innermost loops only)", checks)
	}
}

func TestWhileLoopGetsCheck(t *testing.T) {
	src := `
__kernel void w(__global float* a, int n) {
    int i = 0;
    while (i < n) { a[0] += 1.0f; i++; }
}
`
	prog := clc.MustParse(src)
	k := prog.Kernel("w")
	checks, err := TransformGPU(k, GPUOptions{AbortInLoops: true, Unroll: true})
	if err != nil {
		t.Fatal(err)
	}
	if checks != 1 {
		t.Fatalf("checks = %d, want 1", checks)
	}
}

func TestBreakingLoopNotUnrolledButStillChecked(t *testing.T) {
	src := `
__kernel void b(__global float* a, int n) {
    for (int i = 0; i < n; i++) {
        if (a[i] > 100.0f) { break; }
        a[i] += 1.0f;
    }
}
`
	prog := clc.MustParse(src)
	k := prog.Kernel("b")
	checks, err := TransformGPU(k, GPUOptions{AbortInLoops: true, Unroll: true})
	if err != nil {
		t.Fatal(err)
	}
	if checks != 1 {
		t.Fatalf("checks = %d, want 1", checks)
	}
	// Kernel must still compile and behave identically with inert status.
	ki, err := clc.CheckKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := vm.Compile(ki)
	if err != nil {
		t.Fatal(err)
	}
	buf := f32buf(1, 200, 3, 4)
	args := []vm.Arg{vm.BufArg(buf), vm.IntArg(4), vm.BufArg(statusBuf(-1, NoCPUWork)), vm.IntArg(1)}
	if _, err := ck.ExecLaunch(vm.NewNDRange1D(1, 1), args, vm.ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	if f32at(buf, 0) != 2 || f32at(buf, 1) != 200 || f32at(buf, 2) != 3 {
		t.Fatalf("break semantics broken: %v %v %v", f32at(buf, 0), f32at(buf, 1), f32at(buf, 2))
	}
}

func TestNamespaceCollision(t *testing.T) {
	src := `__kernel void f(__global float* fcl_status) { fcl_status[0] = 1.0f; }`
	prog := clc.MustParse(src)
	if _, err := TransformGPU(prog.Kernels[0], GPUOptions{}); err == nil {
		t.Fatal("fcl_ collision not detected")
	}
	prog2 := clc.MustParse(src)
	if err := TransformCPU(prog2.Kernels[0]); err == nil {
		t.Fatal("fcl_ collision not detected (CPU)")
	}
}

// mergePaths runs a merge launch over args on each path a runtime takes:
// the VM running MergeKernelSource, and the built-in body ocl.EnqueueMerge
// launches it with (device.MergeGroup), group by group. Each path gets its own copy of the
// GPU buffer, which check inspects.
func mergePaths(t *testing.T, nd vm.NDRange, args []vm.Arg, check func(path string, gpu []byte)) {
	t.Helper()
	mk := vm.MustCompile(MergeKernelSource, MergeKernelName)
	withGPU := func() []vm.Arg {
		a := slices.Clone(args)
		a[1] = vm.BufArg(slices.Clone(args[1].Buf))
		return a
	}
	a := withGPU()
	if _, err := mk.ExecLaunch(nd, a, vm.ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	check("vm", a[1].Buf)
	a = withGPU()
	for g := 0; g < nd.TotalGroups(); g++ {
		if _, ok := device.MergeGroup(nd, nd.GroupFromFlat(g), a); !ok {
			t.Fatalf("the built-in merge declined group %d", g)
		}
	}
	check("built-in", a[1].Buf)
}

func TestMergeKernel(t *testing.T) {
	// orig = [1 2 3 4]; CPU computed elements 2,3 (values 30, 40); GPU
	// computed elements 0,1 (values 10, 20). After merge the GPU buffer
	// holds [10 20 30 40].
	orig := f32buf(1, 2, 3, 4)
	cpu := f32buf(1, 2, 30, 40)
	gpu := f32buf(10, 20, 3, 4)
	args := []vm.Arg{vm.BufArg(cpu), vm.BufArg(gpu), vm.BufArg(orig), vm.IntArg(4), vm.IntArg(0)}
	mergePaths(t, vm.NewNDRange1D(4, 4), args, func(path string, gpu []byte) {
		want := []float32{10, 20, 30, 40}
		for i, w := range want {
			if got := f32at(gpu, i); got != w {
				t.Fatalf("%s: gpu[%d] = %v, want %v", path, i, got, w)
			}
		}
	})
}

func TestMergeKernelHandlesNaN(t *testing.T) {
	nan := float32(math.NaN())
	orig := f32buf(nan, 1)
	cpu := f32buf(nan, 5) // element 0 unchanged (still NaN), element 1 computed
	gpu := f32buf(nan, 1)
	args := []vm.Arg{vm.BufArg(cpu), vm.BufArg(gpu), vm.BufArg(orig), vm.IntArg(2), vm.IntArg(0)}
	mergePaths(t, vm.NewNDRange1D(2, 2), args, func(path string, gpu []byte) {
		if got := f32at(gpu, 1); got != 5 {
			t.Fatalf("%s: gpu[1] = %v, want 5", path, got)
		}
		// Word-wise comparison: identical NaN bits compare equal, so element 0
		// is (correctly) treated as unmodified.
		if !math.IsNaN(float64(f32at(gpu, 0))) {
			t.Fatalf("%s: gpu[0] = %v, want NaN preserved", path, f32at(gpu, 0))
		}
	})
}

func TestCanSplit(t *testing.T) {
	plain, err := clc.FindKernelInfo(`__kernel void f(__global float* a) { a[0] = 1.0f; }`, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !CanSplit(plain) {
		t.Fatal("plain kernel should be splittable")
	}
	barr, err := clc.FindKernelInfo(`__kernel void f(__global float* a) { barrier(); a[0] = 1.0f; }`, "f")
	if err != nil {
		t.Fatal(err)
	}
	if CanSplit(barr) {
		t.Fatal("kernel with barrier must not be splittable")
	}
	loc, err := clc.FindKernelInfo(`__kernel void f(__global float* a) { __local float t[8]; t[0] = 1.0f; a[0] = t[0]; }`, "f")
	if err != nil {
		t.Fatal(err)
	}
	if CanSplit(loc) {
		t.Fatal("kernel with __local data must not be splittable")
	}
}

func TestTransformedSourcePrintsAndReparses(t *testing.T) {
	prog := clc.MustParse(testKernelSrc)
	k := prog.Kernel("scale")
	if _, err := TransformGPU(k, GPUOptions{AbortInLoops: true, Unroll: true}); err != nil {
		t.Fatal(err)
	}
	src := clc.PrintKernel(k)
	prog2, err := clc.Parse(src)
	if err != nil {
		t.Fatalf("transformed source does not re-parse: %v\n%s", err, src)
	}
	if _, err := clc.Check(prog2); err != nil {
		t.Fatalf("transformed source does not re-check: %v\n%s", err, src)
	}
}
