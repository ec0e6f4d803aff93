package polybench

import (
	"fmt"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

const bicgSrc = `
// BICG: q = A * p  and  s = A^T * r.
// Kernel 1 walks a row per work-item (uncoalesced on the GPU, sequential on
// the CPU); kernel 2 reads A down a column per work-item, which adjacent
// work-items access coalesced. The two kernels prefer different devices —
// the paper's Table 1 scenario.
__kernel void bicgKernel1(__global float* A, __global float* p, __global float* q, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        for (int j = 0; j < n; j++) {
            acc += A[i * n + j] * p[j];
        }
        q[i] = acc;
    }
}

__kernel void bicgKernel2(__global float* A, __global float* r, __global float* s, int n)
{
    int j = get_global_id(0);
    if (j < n) {
        float acc = 0.0f;
        for (int i = 0; i < n; i++) {
            acc += r[i] * A[i * n + j];
        }
        s[j] = acc;
    }
}
`

// Bicg builds the BICG benchmark over an n x n matrix.
func Bicg(n int) *Benchmark {
	A := newGen(11).slice(n * n)
	p := newGen(12).slice(n)
	r := newGen(13).slice(n)

	q := make([]float32, n)
	for i := 0; i < n; i++ {
		var acc float32
		for j := 0; j < n; j++ {
			acc += float32(A[i*n+j] * p[j])
		}
		q[i] = acc
	}
	s := make([]float32, n)
	for j := 0; j < n; j++ {
		var acc float32
		for i := 0; i < n; i++ {
			acc += float32(r[i] * A[i*n+j])
		}
		s[j] = acc
	}

	local := 16
	nd := vm.NewNDRange1D(roundUp(n, local), local)
	app := &sched.App{
		Name:   "BICG",
		Source: bicgSrc,
		Buffers: map[string]int{
			"A": 4 * n * n, "p": 4 * n, "r": 4 * n, "q": 4 * n, "s": 4 * n,
		},
		Inputs: map[string][]byte{
			"A": f32enc(A), "p": f32enc(p), "r": f32enc(r),
		},
		Launches: []sched.Launch{
			{Kernel: "bicgKernel1", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("p"), sched.Buf("q"), sched.Int(int64(n)),
			}},
			{Kernel: "bicgKernel2", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("r"), sched.Buf("s"), sched.Int(int64(n)),
			}},
		},
		Outputs: []string{"q", "s"},
	}
	return &Benchmark{
		Name:      "BICG",
		App:       app,
		Expected:  map[string][]byte{"q": f32enc(q), "s": f32enc(s)},
		InputDesc: fmt.Sprintf("(%d, %d)", n, n),
	}
}
