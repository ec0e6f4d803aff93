package polybench

import (
	"fmt"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

const syr2kSrc = `
// SYR2K: C = alpha * (A * B^T + B * A^T) + beta * C — like SYRK but with
// twice the memory traffic per iteration.
__kernel void syr2k_kernel(__global float* A, __global float* B, __global float* C,
                           int n, int m, float alpha, float beta)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < n) {
        float acc = C[i * n + j] * beta;
        for (int k = 0; k < m; k++) {
            acc += alpha * A[i * m + k] * B[j * m + k];
            acc += alpha * B[i * m + k] * A[j * m + k];
        }
        C[i * n + j] = acc;
    }
}
`

// Syr2k builds the SYR2K benchmark with an n x n output and inner dimension m.
func Syr2k(n, m int) *Benchmark {
	alpha, beta := float32(1.5), float32(1.2)
	A := newGen(51).slice(n * m)
	B := newGen(52).slice(n * m)
	C0 := newGen(53).slice(n * n)

	C := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := C0[i*n+j] * beta
			for k := 0; k < m; k++ {
				acc += float32(alpha * A[i*m+k] * B[j*m+k])
				acc += float32(alpha * B[i*m+k] * A[j*m+k])
			}
			C[i*n+j] = acc
		}
	}

	local := 8
	nd := vm.NewNDRange2D(roundUp(n, local), roundUp(n, local), local, local)
	app := &sched.App{
		Name:   "SYR2K",
		Source: syr2kSrc,
		Buffers: map[string]int{
			"A": 4 * n * m, "B": 4 * n * m, "C": 4 * n * n,
		},
		Inputs: map[string][]byte{
			"A": f32enc(A), "B": f32enc(B), "C": f32enc(C0),
		},
		Launches: []sched.Launch{
			{Kernel: "syr2k_kernel", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("B"), sched.Buf("C"),
				sched.Int(int64(n)), sched.Int(int64(m)),
				sched.Float(float64(alpha)), sched.Float(float64(beta)),
			}},
		},
		Outputs: []string{"C"},
	}
	return &Benchmark{
		Name:      "SYR2K",
		App:       app,
		Expected:  map[string][]byte{"C": f32enc(C)},
		InputDesc: fmt.Sprintf("(%d, %d)", n, m),
	}
}
