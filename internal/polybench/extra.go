package polybench

import (
	"fmt"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// Extra benchmarks beyond the paper's six, exercising the same FluidiCL API
// on further Polybench kernels (the paper's §1 motivation — more programs
// become portable across devices — invites a broader suite). They are not
// part of the Table 2 set; `fluidibench run <name>` and the test suite use
// them.

// Extras returns the additional benchmarks.
func Extras() []*Benchmark {
	return []*Benchmark{
		Atax(512),
		Mvt(512),
		Gemm(96, 96, 96),
		TwoDConv(192),
	}
}

// AllWithExtras returns the paper's six plus the extras.
func AllWithExtras() []*Benchmark {
	return append(All(), Extras()...)
}

const ataxSrc = `
// ATAX: y = A^T (A x). Kernel 1 walks rows (CPU-friendly); kernel 2 reads
// columns across adjacent work-items (GPU-friendly).
__kernel void atax_kernel1(__global float* A, __global float* x, __global float* tmp, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        for (int j = 0; j < n; j++) {
            acc += A[i * n + j] * x[j];
        }
        tmp[i] = acc;
    }
}

__kernel void atax_kernel2(__global float* A, __global float* tmp, __global float* y, int n)
{
    int j = get_global_id(0);
    if (j < n) {
        float acc = 0.0f;
        for (int i = 0; i < n; i++) {
            acc += A[i * n + j] * tmp[i];
        }
        y[j] = acc;
    }
}
`

// Atax builds the ATAX benchmark over an n x n matrix.
func Atax(n int) *Benchmark {
	A := newGen(61).slice(n * n)
	x := newGen(62).slice(n)

	tmp := make([]float32, n)
	for i := 0; i < n; i++ {
		var acc float32
		for j := 0; j < n; j++ {
			acc += float32(A[i*n+j] * x[j])
		}
		tmp[i] = acc
	}
	y := make([]float32, n)
	for j := 0; j < n; j++ {
		var acc float32
		for i := 0; i < n; i++ {
			acc += float32(A[i*n+j] * tmp[i])
		}
		y[j] = acc
	}

	local := 16
	nd := vm.NewNDRange1D(roundUp(n, local), local)
	app := &sched.App{
		Name:   "ATAX",
		Source: ataxSrc,
		Buffers: map[string]int{
			"A": 4 * n * n, "x": 4 * n, "tmp": 4 * n, "y": 4 * n,
		},
		Inputs: map[string][]byte{"A": f32enc(A), "x": f32enc(x)},
		Launches: []sched.Launch{
			{Kernel: "atax_kernel1", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("x"), sched.Buf("tmp"), sched.Int(int64(n)),
			}},
			{Kernel: "atax_kernel2", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("tmp"), sched.Buf("y"), sched.Int(int64(n)),
			}},
		},
		Outputs: []string{"y"},
	}
	return &Benchmark{
		Name:      "ATAX",
		App:       app,
		Expected:  map[string][]byte{"y": f32enc(y)},
		InputDesc: fmt.Sprintf("(%d, %d)", n, n),
	}
}

const mvtSrc = `
// MVT: x1 = x1 + A y1;  x2 = x2 + A^T y2. Independent kernels with opposite
// access patterns — a scheduler-friendliness stress.
__kernel void mvt_kernel1(__global float* A, __global float* x1, __global float* y1, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = x1[i];
        for (int j = 0; j < n; j++) {
            acc += A[i * n + j] * y1[j];
        }
        x1[i] = acc;
    }
}

__kernel void mvt_kernel2(__global float* A, __global float* x2, __global float* y2, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = x2[i];
        for (int j = 0; j < n; j++) {
            acc += A[j * n + i] * y2[j];
        }
        x2[i] = acc;
    }
}
`

// Mvt builds the MVT benchmark over an n x n matrix.
func Mvt(n int) *Benchmark {
	A := newGen(71).slice(n * n)
	x1 := newGen(72).slice(n)
	x2 := newGen(73).slice(n)
	y1 := newGen(74).slice(n)
	y2 := newGen(75).slice(n)

	rx1 := make([]float32, n)
	for i := 0; i < n; i++ {
		acc := x1[i]
		for j := 0; j < n; j++ {
			acc += float32(A[i*n+j] * y1[j])
		}
		rx1[i] = acc
	}
	rx2 := make([]float32, n)
	for i := 0; i < n; i++ {
		acc := x2[i]
		for j := 0; j < n; j++ {
			acc += float32(A[j*n+i] * y2[j])
		}
		rx2[i] = acc
	}

	local := 16
	nd := vm.NewNDRange1D(roundUp(n, local), local)
	app := &sched.App{
		Name:   "MVT",
		Source: mvtSrc,
		Buffers: map[string]int{
			"A": 4 * n * n, "x1": 4 * n, "x2": 4 * n, "y1": 4 * n, "y2": 4 * n,
		},
		Inputs: map[string][]byte{
			"A": f32enc(A), "x1": f32enc(x1), "x2": f32enc(x2),
			"y1": f32enc(y1), "y2": f32enc(y2),
		},
		Launches: []sched.Launch{
			{Kernel: "mvt_kernel1", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("x1"), sched.Buf("y1"), sched.Int(int64(n)),
			}},
			{Kernel: "mvt_kernel2", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("x2"), sched.Buf("y2"), sched.Int(int64(n)),
			}},
		},
		Outputs: []string{"x1", "x2"},
	}
	return &Benchmark{
		Name:      "MVT",
		App:       app,
		Expected:  map[string][]byte{"x1": f32enc(rx1), "x2": f32enc(rx2)},
		InputDesc: fmt.Sprintf("(%d, %d)", n, n),
	}
}

const gemmSrc = `
// GEMM: C = alpha * A * B + beta * C.
__kernel void gemm_kernel(__global float* A, __global float* B, __global float* C,
                          int ni, int nj, int nk, float alpha, float beta)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < ni && j < nj) {
        float acc = C[i * nj + j] * beta;
        for (int k = 0; k < nk; k++) {
            acc += alpha * A[i * nk + k] * B[k * nj + j];
        }
        C[i * nj + j] = acc;
    }
}
`

// Gemm builds the GEMM benchmark: (ni x nk) * (nk x nj).
func Gemm(ni, nj, nk int) *Benchmark {
	alpha, beta := float32(1.5), float32(1.2)
	A := newGen(81).slice(ni * nk)
	B := newGen(82).slice(nk * nj)
	C0 := newGen(83).slice(ni * nj)

	C := make([]float32, ni*nj)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			acc := C0[i*nj+j] * beta
			for k := 0; k < nk; k++ {
				acc += float32(alpha * A[i*nk+k] * B[k*nj+j])
			}
			C[i*nj+j] = acc
		}
	}

	local := 8
	nd := vm.NewNDRange2D(roundUp(nj, local), roundUp(ni, local), local, local)
	app := &sched.App{
		Name:   "GEMM",
		Source: gemmSrc,
		Buffers: map[string]int{
			"A": 4 * ni * nk, "B": 4 * nk * nj, "C": 4 * ni * nj,
		},
		Inputs: map[string][]byte{"A": f32enc(A), "B": f32enc(B), "C": f32enc(C0)},
		Launches: []sched.Launch{
			{Kernel: "gemm_kernel", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("B"), sched.Buf("C"),
				sched.Int(int64(ni)), sched.Int(int64(nj)), sched.Int(int64(nk)),
				sched.Float(float64(alpha)), sched.Float(float64(beta)),
			}},
		},
		Outputs: []string{"C"},
	}
	return &Benchmark{
		Name:      "GEMM",
		App:       app,
		Expected:  map[string][]byte{"C": f32enc(C)},
		InputDesc: fmt.Sprintf("(%d, %d, %d)", ni, nj, nk),
	}
}

const twoDConvSrc = `
// 2DCONV: 3x3 stencil over an n x n image (interior points only).
__kernel void conv2d_kernel(__global float* A, __global float* B, int n)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i > 0 && i < n - 1 && j > 0 && j < n - 1) {
        float c11 = 0.2f;  float c12 = -0.3f; float c13 = 0.4f;
        float c21 = -0.5f; float c22 = 0.6f;  float c23 = -0.7f;
        float c31 = 0.8f;  float c32 = -0.9f; float c33 = 0.1f;
        B[i * n + j] = c11 * A[(i - 1) * n + (j - 1)] + c12 * A[(i - 1) * n + j]
                     + c13 * A[(i - 1) * n + (j + 1)] + c21 * A[i * n + (j - 1)]
                     + c22 * A[i * n + j]             + c23 * A[i * n + (j + 1)]
                     + c31 * A[(i + 1) * n + (j - 1)] + c32 * A[(i + 1) * n + j]
                     + c33 * A[(i + 1) * n + (j + 1)];
    }
}
`

// TwoDConv builds a 3x3 convolution over an n x n image.
func TwoDConv(n int) *Benchmark {
	A := newGen(91).slice(n * n)
	B := make([]float32, n*n)
	c := []float32{0.2, -0.3, 0.4, -0.5, 0.6, -0.7, 0.8, -0.9, 0.1}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			B[i*n+j] = float32(c[0]*A[(i-1)*n+(j-1)]) + float32(c[1]*A[(i-1)*n+j]) +
				float32(c[2]*A[(i-1)*n+(j+1)]) + float32(c[3]*A[i*n+(j-1)]) +
				float32(c[4]*A[i*n+j]) + float32(c[5]*A[i*n+(j+1)]) +
				float32(c[6]*A[(i+1)*n+(j-1)]) + float32(c[7]*A[(i+1)*n+j]) +
				float32(c[8]*A[(i+1)*n+(j+1)])
		}
	}

	local := 8
	nd := vm.NewNDRange2D(roundUp(n, local), roundUp(n, local), local, local)
	app := &sched.App{
		Name:    "2DCONV",
		Source:  twoDConvSrc,
		Buffers: map[string]int{"A": 4 * n * n, "B": 4 * n * n},
		Inputs:  map[string][]byte{"A": f32enc(A)},
		Launches: []sched.Launch{
			{Kernel: "conv2d_kernel", ND: nd, Args: []sched.ArgSpec{
				sched.Buf("A"), sched.Buf("B"), sched.Int(int64(n)),
			}},
		},
		Outputs: []string{"B"},
	}
	return &Benchmark{
		Name:      "2DCONV",
		App:       app,
		Expected:  map[string][]byte{"B": f32enc(B)},
		InputDesc: fmt.Sprintf("(%d, %d)", n, n),
	}
}
