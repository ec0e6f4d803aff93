package polybench

import (
	"fmt"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

const gesummvSrc = `
// GESUMMV: y = alpha * A * x + beta * B * x, one row per work-item.
// Row-major row walks are sequential for the CPU cache but uncoalesced
// across GPU work-items: this benchmark runs best on the CPU (paper §9.1).
__kernel void gesummv(__global float* A, __global float* B, __global float* x,
                      __global float* y, int n, float alpha, float beta)
{
    int i = get_global_id(0);
    if (i < n) {
        float t = 0.0f;
        float yv = 0.0f;
        for (int j = 0; j < n; j++) {
            t += A[i * n + j] * x[j];
            yv += B[i * n + j] * x[j];
        }
        y[i] = alpha * t + beta * yv;
    }
}
`

// Gesummv builds the GESUMMV benchmark over n x n matrices.
func Gesummv(n int) *Benchmark {
	alpha, beta := float32(1.5), float32(1.2)
	A := newGen(31).slice(n * n)
	B := newGen(32).slice(n * n)
	x := newGen(33).slice(n)

	y := make([]float32, n)
	for i := 0; i < n; i++ {
		var t, yv float32
		for j := 0; j < n; j++ {
			t += float32(A[i*n+j] * x[j])
			yv += float32(B[i*n+j] * x[j])
		}
		y[i] = float32(alpha*t) + float32(beta*yv)
	}

	local := 16
	nd := vm.NewNDRange1D(roundUp(n, local), local)
	app := &sched.App{
		Name:   "GESUMMV",
		Source: gesummvSrc,
		Buffers: map[string]int{
			"A": 4 * n * n, "B": 4 * n * n, "x": 4 * n, "y": 4 * n,
		},
		Inputs: map[string][]byte{
			"A": f32enc(A), "B": f32enc(B), "x": f32enc(x),
		},
		Launches: []sched.Launch{
			{Kernel: "gesummv", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("B"), sched.Buf("x"), sched.Buf("y"),
				sched.Int(int64(n)), sched.Float(float64(alpha)), sched.Float(float64(beta)),
			}},
		},
		Outputs: []string{"y"},
	}
	return &Benchmark{
		Name:      "GESUMMV",
		App:       app,
		Expected:  map[string][]byte{"y": f32enc(y)},
		InputDesc: fmt.Sprintf("(%d)", n),
	}
}
