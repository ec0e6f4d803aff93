package vm_test

import (
	"fmt"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
	"fluidicl/internal/vm"
)

// TestWGFuseColdScratchStats guards against a regression where the fused
// jams took several columnar-log subslices before filling them: a later
// reservation could grow (reallocate) the log, orphaning the earlier
// subslices, so their offsets replayed as zeros and the Seq/Rand/WarpTx
// classification drifted. The bug only fired while the log's backing array
// was still growing — i.e. on the first work-group a fresh scratch machine
// executes — so this test compiles a fresh kernel per backend order and
// runs the fused pass FIRST, before any unfused pass can warm the pool.
// SYR2K's body is the widest case (four columns reserved at once), and the
// GPU-transformed variants are what the twin protocol's GPU runs.
func TestWGFuseColdScratchStats(t *testing.T) {
	defer vm.SetWGFuse(true)
	for _, name := range []string{"SYRK", "SYR2K", "GESUMMV", "2MM"} {
		for _, gpuVar := range []bool{false, true} {
			// Each run compiles its own kernels (benchApp) so the per-kernel
			// scratch pools start cold, exactly like a scheduler strategy's
			// first work-group.
			run := func(fuse bool) []vm.Stats {
				vm.SetWGFuse(fuse)
				var out []vm.Stats
				for _, l := range benchApp(t, name, gpuVar) {
					for g := 0; g < l.nd.LaunchGroups(); g++ {
						st, err := l.k.ExecWorkGroup(l.nd, l.nd.GroupAt(g), l.args, vm.ExecOpts{Backend: vm.BackendWG})
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, st)
					}
				}
				return out
			}
			before := vm.BackendSnapshot().WGFusedInstrsDyn
			stF := run(true)
			if vm.BackendSnapshot().WGFusedInstrsDyn == before {
				t.Errorf("%s gpuvar=%v: the fused pass ran no fused closure", name, gpuVar)
			}
			stU := run(false)
			for g := range stF {
				if stF[g] != stU[g] {
					t.Errorf("%s gpuvar=%v group %d stats diverge on cold scratch:\n  fused   %+v\n  unfused %+v",
						name, gpuVar, g, stF[g], stU[g])
				}
			}
		}
	}
}

// coldLoopSrc polls a status buffer inside its loop, in the shape
// passes.TransformGPU gives the twin GPU's kernels, but loads nothing before
// the loop: a work-group's only access columns are the uniform loads of the
// loop's control skeleton (one or two per four trips), which the loop
// closure fills while it walks the skeleton.
const coldLoopSrc = `
__kernel void cold(__global float* out, __global float* in, __global int* st, int m) {
    int g = get_global_id(0);
    float acc = 0.5f;
    int p = 0;
    for (int k = 0; (k < m); )
    {
        if (((st[p] == 1) && (k >= st[1])))
        {
            return;
        }
        p = (p + %s);
        for (int u = 0; (u < 4); u = (u + 1))
        {
            if ((!(k < m)))
            {
                break;
            }
            acc += in[g * m + k] * in[k];
            k = (k + 1);
        }
    }
    out[g] = acc;
}`

// TestWGLoopColdScratchUniformLoads is the cold-scratch guard for the loop
// closure: the first work-group a fresh scratch machine executes grows the
// column log from nothing, one skeleton load at a time, while the closure
// holds no other column — for a few trips and for enough of them that the
// log reallocates several times. With step 0 both polled words stay put, so
// each site logs one broadcast run however many trips there are; with step 1
// the first poll walks up the status buffer, a new run per poll. The
// original source and its GPU variant (which polls fcl_status besides) must
// match the interpreter's Stats.
func TestWGLoopColdScratchUniformLoads(t *testing.T) {
	const n = 64
	nd := vm.NewNDRange1D(n, 32)
	type variant struct {
		name, src string
		extra     []vm.Arg
	}
	var variants []variant
	for _, step := range []string{"0", "1"} {
		src := fmt.Sprintf(coldLoopSrc, step)
		gpu, _, err := vm.TransformedSources(src)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{"step " + step, src, nil},
			variant{"step " + step + ", gpu variant", gpu, vm.GPUAbortArgs(1, passes.NoCPUWork)})
	}
	for _, v := range variants {
		for _, m := range []int{3, 40, 1000} {
			run := func(be vm.Backend) vm.Stats {
				ki, err := clc.FindKernelInfo(v.src, "cold")
				if err != nil {
					t.Fatal(err)
				}
				k, err := vm.Compile(ki) // a fresh kernel: cold scratch pool
				if err != nil {
					t.Fatal(err)
				}
				status := make([]byte, 4*(2+m/4))
				status[0] = 1 // st[0] == 1 sends the first check on to st[1] = 1<<24, which k never reaches
				status[7] = 1
				args := append([]vm.Arg{vm.BufArg(make([]byte, 4*n)), vm.BufArg(make([]byte, 4*n*m)), vm.BufArg(status), vm.IntArg(int64(m))}, v.extra...)
				st, err := k.ExecLaunch(nd, args, vm.ExecOpts{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			before := vm.BackendSnapshot().WGLoopBatchesDyn
			stW := run(vm.BackendWG)
			if vm.BackendSnapshot().WGLoopBatchesDyn == before {
				t.Errorf("%s, m=%d: the wg pass ran no loop closure", v.name, m)
			}
			if stI := run(vm.BackendInterp); stW != stI {
				t.Errorf("%s, m=%d: stats diverge on cold scratch:\n  wg     %+v\n  interp %+v", v.name, m, stW, stI)
			}
		}
	}
}
