package polybench

import (
	"fmt"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

const twommSrc = `
// 2MM: tmp = alpha * A * B;  D = beta * tmp * C
// Both kernels read their right-hand matrix coalesced across adjacent
// work-items, so the GPU runs them well.
__kernel void mm2_kernel1(__global float* A, __global float* B, __global float* tmp,
                          int ni, int nj, int nk, float alpha)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < ni && j < nj) {
        float acc = 0.0f;
        for (int k = 0; k < nk; k++) {
            acc += alpha * A[i * nk + k] * B[k * nj + j];
        }
        tmp[i * nj + j] = acc;
    }
}

__kernel void mm2_kernel2(__global float* tmp, __global float* C, __global float* D,
                          int ni, int nj, int nl, float beta)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < ni && j < nl) {
        float acc = 0.0f;
        for (int k = 0; k < nj; k++) {
            acc += beta * tmp[i * nj + k] * C[k * nl + j];
        }
        D[i * nl + j] = acc;
    }
}
`

// TwoMM builds the 2MM benchmark: two chained matrix multiplications
// (ni x nk) * (nk x nj) then (ni x nj) * (nj x nl), with nl = nj.
func TwoMM(ni, nj, nk int) *Benchmark {
	nl := nj
	alpha, beta := float32(1.5), float32(1.2)
	A := newGen(1).slice(ni * nk)
	B := newGen(2).slice(nk * nj)
	C := newGen(3).slice(nj * nl)

	// Reference, mirroring the kernels' float32 operation order.
	tmp := make([]float32, ni*nj)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			var acc float32
			for k := 0; k < nk; k++ {
				acc += float32(alpha * A[i*nk+k] * B[k*nj+j])
			}
			tmp[i*nj+j] = acc
		}
	}
	D := make([]float32, ni*nl)
	for i := 0; i < ni; i++ {
		for j := 0; j < nl; j++ {
			var acc float32
			for k := 0; k < nj; k++ {
				acc += float32(beta * tmp[i*nj+k] * C[k*nl+j])
			}
			D[i*nl+j] = acc
		}
	}

	local := 8
	nd1 := vm.NewNDRange2D(roundUp(nj, local), roundUp(ni, local), local, local)
	nd2 := vm.NewNDRange2D(roundUp(nl, local), roundUp(ni, local), local, local)
	app := &sched.App{
		Name:   "2MM",
		Source: twommSrc,
		Buffers: map[string]int{
			"A": 4 * ni * nk, "B": 4 * nk * nj, "C": 4 * nj * nl,
			"tmp": 4 * ni * nj, "D": 4 * ni * nl,
		},
		Inputs: map[string][]byte{
			"A": f32enc(A), "B": f32enc(B), "C": f32enc(C),
		},
		Launches: []sched.Launch{
			{Kernel: "mm2_kernel1", ND: nd1, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("B"), sched.Buf("tmp"),
				sched.Int(int64(ni)), sched.Int(int64(nj)), sched.Int(int64(nk)),
				sched.Float(float64(alpha)),
			}},
			{Kernel: "mm2_kernel2", ND: nd2, Args: []sched.ArgSpec{
				sched.Buf("tmp"), sched.Buf("C"), sched.Buf("D"),
				sched.Int(int64(ni)), sched.Int(int64(nj)), sched.Int(int64(nl)),
				sched.Float(float64(beta)),
			}},
		},
		Outputs: []string{"D"},
	}
	return &Benchmark{
		Name:      "2MM",
		App:       app,
		Expected:  map[string][]byte{"D": f32enc(D)},
		InputDesc: fmt.Sprintf("(%d, %d, %d)", ni, nj, nk),
	}
}

func roundUp(n, m int) int { return ((n + m - 1) / m) * m }
