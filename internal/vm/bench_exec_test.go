// Backend microbenchmarks over real Polybench kernels (external test
// package: polybench imports sched, which imports vm, so these cannot live
// in package vm).
package vm_test

import (
	"fmt"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// benchLaunch is one compiled kernel enqueue with its arguments resolved
// against a concrete buffer set.
type benchLaunch struct {
	k    *vm.Kernel
	nd   vm.NDRange
	args []vm.Arg
}

// benchApp lowers a quick-scale Polybench app to direct vm.ExecLaunch calls,
// bypassing the device/scheduler layers so the benchmark isolates work-group
// execution itself. With gpuVar it compiles what the twin protocol's GPU
// device runs instead of the programmer's source: the passes.TransformGPU
// output, with an abort buffer that is present but never fires.
func benchApp(b testing.TB, name string, gpuVar bool) []benchLaunch {
	b.Helper()
	bm, err := polybench.ByNameQuick(name)
	if err != nil {
		b.Fatal(err)
	}
	return benchLower(b, bm.App, gpuVar)
}

// benchLower is benchApp for an app of any size.
func benchLower(b testing.TB, app *sched.App, gpuVar bool) []benchLaunch {
	b.Helper()
	src := app.Source
	var extra []vm.Arg
	if gpuVar {
		var err error
		if src, _, err = vm.TransformedSources(src); err != nil {
			b.Fatal(err)
		}
		extra = vm.GPUAbortArgs(1, passes.NoCPUWork)
	}
	bufs := make(map[string][]byte, len(app.Buffers))
	for bn, size := range app.Buffers {
		buf := make([]byte, size)
		copy(buf, app.Inputs[bn])
		bufs[bn] = buf
	}
	kernels := make(map[string]*vm.Kernel)
	var launches []benchLaunch
	for _, l := range app.Launches {
		k, ok := kernels[l.Kernel]
		if !ok {
			k = benchKernel(b, src, l.Kernel)
			kernels[l.Kernel] = k
		}
		args := make([]vm.Arg, len(l.Args), len(l.Args)+len(extra))
		for i, a := range l.Args {
			switch a.Kind {
			case sched.ArgBuf:
				args[i] = vm.BufArg(bufs[a.Name])
			case sched.ArgInt:
				args[i] = vm.IntArg(a.I)
			default:
				args[i] = vm.FloatArg(a.F)
			}
		}
		launches = append(launches, benchLaunch{k: k, nd: l.ND, args: append(args, extra...)})
	}
	return launches
}

// benchKernel compiles one kernel of src.
func benchKernel(b testing.TB, src, name string) *vm.Kernel {
	b.Helper()
	ki, err := clc.FindKernelInfo(src, name)
	if err != nil {
		b.Fatal(err)
	}
	k, err := vm.Compile(ki)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// benchScatter builds an adversarial strided-scatter launch: every store
// walks a whole column of a row-major matrix, so consecutive loop
// iterations touch offsets a full row apart (worst case for the locality
// tracker) while adjacent work-items touch consecutive columns. The body
// runs on banked steps (it had a jam of its own until that was measured not
// to pay, DESIGN.md S20), making this the stress case for per-step store
// accounting.
func benchScatter(b *testing.B) []benchLaunch {
	b.Helper()
	const src = `
__kernel void scatter_columns(__global float* out, int n, int rows) {
    int g = get_global_id(0);
    for (int r = 0; r < rows; r++) {
        out[r * n + g] = 1.0f;
    }
}
`
	const n, rows = 1024, 64
	return []benchLaunch{{
		k:    benchKernel(b, src, "scatter_columns"),
		nd:   vm.NewNDRange1D(n, 64),
		args: []vm.Arg{vm.BufArg(make([]byte, n*rows*4)), vm.IntArg(n), vm.IntArg(rows)},
	}}
}

// benchStream is the guarded one-word-per-work-item body bench/'s
// stream-chunks workload runs (scale, axpy): no loop and no jam shape, so the
// wg engine executes it on banked steps alone — the layer-level number for the
// per-step tier, next to SCATTER's store loop.
func benchStream(b *testing.B) []benchLaunch {
	b.Helper()
	const src = `
__kernel void stream(__global float* x, __global float* y, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a * x[i] + y[i];
    }
}
`
	const n = 1 << 16
	buf := func() vm.Arg { return vm.BufArg(make([]byte, 4*n)) }
	return []benchLaunch{{
		k:    benchKernel(b, src, "stream"),
		nd:   vm.NewNDRange1D(n, 256),
		args: []vm.Arg{buf(), buf(), buf(), vm.FloatArg(0.75), vm.IntArg(n)},
	}}
}

// benchTrips is the GPU variant of SYRK (the jam's pair arity) or SYR2K (its
// generic arity) at the quick-scale NDRange with the inner dimension — the
// reduction loop's trip count — set to m, so that the wg engine's cost per
// loop entry (uniformity precheck, skeleton walk set-up, write-back) and per
// trip can be read apart.
func benchTrips(b testing.TB, name string, m int) []benchLaunch {
	launches := benchApp(b, name, true)
	for _, l := range launches {
		// syrk_kernel(A, C, n, m, ...), syr2k_kernel(A, B, C, n, m, ...): the
		// buffers before C are n x m.
		at := 2
		if name == "SYR2K" {
			at = 3
		}
		for i := 0; i < at-1; i++ {
			l.args[i] = vm.BufArg(make([]byte, 4*l.args[at].I*int64(m)))
		}
		l.args[at+1] = vm.IntArg(int64(m))
	}
	return launches
}

// macs counts the multiply-accumulates one pass over the launches executes,
// from the kernels' size arguments; 0 for an app whose kernels are not all
// reduction loops (CORR) or have none (SCATTER, STREAM).
func macs(launches []benchLaunch) int64 {
	var total int64
	for _, l := range launches {
		a := l.args
		switch l.k.Name {
		case "syrk_kernel":
			total += a[2].I * a[2].I * a[3].I
		case "syr2k_kernel":
			total += 2 * a[3].I * a[3].I * a[4].I
		case "gesummv":
			total += 2 * a[4].I * a[4].I
		case "bicgKernel1", "bicgKernel2":
			total += a[3].I * a[3].I
		case "mm2_kernel1", "mm2_kernel2":
			total += a[3].I * a[4].I * a[5].I
		default:
			return 0
		}
	}
	return total
}

// BenchmarkExecLaunch runs quick-scale Polybench apps end to end on each
// backend. The NAME/gpuvar/BACKEND rows run the GPU-transformed
// kernels (see benchApp) next to the original-source ones, the
// NAME/gpuvar/m=M rows the trip-count sweep (see benchTrips), the BICG rows
// the app at its default size. Rows whose kernels are all reduction loops
// also report ns/mac.
func BenchmarkExecLaunch(b *testing.B) {
	type row struct {
		name     string
		launches []benchLaunch
	}
	var rows []row
	for _, name := range []string{"SYRK", "SYR2K", "GESUMMV", "2MM", "CORR"} {
		rows = append(rows, row{name, benchApp(b, name, false)}, row{name + "/gpuvar", benchApp(b, name, true)})
	}
	for _, m := range []int{4, 64, 1024} {
		rows = append(rows, row{fmt.Sprintf("SYRK/gpuvar/m=%d", m), benchTrips(b, "SYRK", m)})
	}
	rows = append(rows, row{"SYR2K/gpuvar/m=1024", benchTrips(b, "SYR2K", 1024)})
	// BICG at the paper's size: 768 trips in groups of 16 lanes, the shape
	// where a trip's control costs more than its multiply-accumulates.
	bicg := polybench.Bicg(768).App
	rows = append(rows, row{"BICG", benchLower(b, bicg, false)}, row{"BICG/gpuvar", benchLower(b, bicg, true)})
	rows = append(rows, row{"SCATTER", benchScatter(b)}, row{"STREAM", benchStream(b)})
	for _, r := range rows {
		launches := r.launches
		for _, be := range []vm.Backend{vm.BackendInterp, vm.BackendWG} {
			b.Run(r.name+"/"+be.String(), func(b *testing.B) {
				b.ReportAllocs()
				// Warm the scratch/engine pools before measuring.
				for _, l := range launches {
					if _, err := l.k.ExecLaunch(l.nd, l.args, vm.ExecOpts{Backend: be}); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, l := range launches {
						if _, err := l.k.ExecLaunch(l.nd, l.args, vm.ExecOpts{Backend: be}); err != nil {
							b.Fatal(err)
						}
					}
				}
				if n := macs(launches); n > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/mac")
				}
			})
		}
	}
}
