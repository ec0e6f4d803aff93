package polybench

import (
	"fmt"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

const syrkSrc = `
// SYRK: C = alpha * A * A^T + beta * C over an n x n output with inner
// dimension m. The A[i*m+k] read broadcasts across a warp while A[j*m+k]
// is uncoalesced, so the GPU is memory-bound here while the CPU streams
// both rows — neither device dominates, and cooperative splits win
// (paper Figures 2-3).
__kernel void syrk_kernel(__global float* A, __global float* C, int n, int m,
                          float alpha, float beta)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < n) {
        float acc = C[i * n + j] * beta;
        for (int k = 0; k < m; k++) {
            acc += alpha * A[i * m + k] * A[j * m + k];
        }
        C[i * n + j] = acc;
    }
}
`

// Syrk builds the SYRK benchmark with an n x n output and inner dimension m.
func Syrk(n, m int) *Benchmark {
	alpha, beta := float32(1.5), float32(1.2)
	A := newGen(41).slice(n * m)
	C0 := newGen(42).slice(n * n)

	C := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := C0[i*n+j] * beta
			for k := 0; k < m; k++ {
				acc += float32(alpha * A[i*m+k] * A[j*m+k])
			}
			C[i*n+j] = acc
		}
	}

	local := 8
	nd := vm.NewNDRange2D(roundUp(n, local), roundUp(n, local), local, local)
	app := &sched.App{
		Name:   "SYRK",
		Source: syrkSrc,
		Buffers: map[string]int{
			"A": 4 * n * m, "C": 4 * n * n,
		},
		Inputs: map[string][]byte{
			"A": f32enc(A), "C": f32enc(C0),
		},
		Launches: []sched.Launch{
			{Kernel: "syrk_kernel", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("C"), sched.Int(int64(n)), sched.Int(int64(m)),
				sched.Float(float64(alpha)), sched.Float(float64(beta)),
			}},
		},
		Outputs: []string{"C"},
	}
	return &Benchmark{
		Name:      "SYRK",
		App:       app,
		Expected:  map[string][]byte{"C": f32enc(C)},
		InputDesc: fmt.Sprintf("(%d, %d)", n, m),
	}
}
