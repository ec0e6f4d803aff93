package polybench

import (
	"fmt"
	"math"

	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

const corrSrc = `
// CORR: Pearson correlation matrix of an n x m data set, in four kernels
// (column means, column standard deviations, normalization, correlation).
__kernel void corr_mean(__global float* data, __global float* mean, int m, int n)
{
    int j = get_global_id(0);
    if (j < m) {
        float acc = 0.0f;
        for (int i = 0; i < n; i++) {
            acc += data[i * m + j];
        }
        mean[j] = acc / (float)n;
    }
}

__kernel void corr_std(__global float* data, __global float* mean, __global float* std,
                       int m, int n)
{
    int j = get_global_id(0);
    if (j < m) {
        float acc = 0.0f;
        for (int i = 0; i < n; i++) {
            float v = data[i * m + j] - mean[j];
            acc += v * v;
        }
        float s = sqrt(acc / (float)n);
        if (s <= 0.005f) {
            s = 1.0f;
        }
        std[j] = s;
    }
}

__kernel void corr_reduce(__global float* data, __global float* mean, __global float* std,
                          int m, int n, float sqrtn)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < m) {
        data[i * m + j] = (data[i * m + j] - mean[j]) / (sqrtn * std[j]);
    }
}

__kernel void corr_kernel4(__global float* data, __global float* symmat, int m, int n)
{
    int j1 = get_global_id(0);
    if (j1 < m) {
        symmat[j1 * m + j1] = 1.0f;
        for (int j2 = j1 + 1; j2 < m; j2++) {
            float acc = 0.0f;
            for (int i = 0; i < n; i++) {
                acc += data[i * m + j1] * data[i * m + j2];
            }
            symmat[j1 * m + j2] = acc;
            symmat[j2 * m + j1] = acc;
        }
    }
}
`

// CorrCPUVariantSrc is the hand-optimized CPU version of the correlation
// kernel used for the online-profiling experiment (paper §9.3, Table 3):
// its loops are interchanged for cache locality, accumulating a row of
// partial sums per work-item so the inner loop walks data sequentially.
// It is bit-identical in results to corr_kernel4 (the per-pair accumulation
// order over i is unchanged).
const CorrCPUVariantSrc = `
__kernel void corr_kernel4_cpu(__global float* data, __global float* symmat, int m, int n)
{
    int j1 = get_global_id(0);
    if (j1 < m) {
        float acc[256];
        for (int j2 = j1 + 1; j2 < m; j2++) {
            acc[j2] = 0.0f;
        }
        for (int i = 0; i < n; i++) {
            float d1 = data[i * m + j1];
            for (int j2 = j1 + 1; j2 < m; j2++) {
                acc[j2] += d1 * data[i * m + j2];
            }
        }
        symmat[j1 * m + j1] = 1.0f;
        for (int j2 = j1 + 1; j2 < m; j2++) {
            symmat[j1 * m + j2] = acc[j2];
            symmat[j2 * m + j1] = acc[j2];
        }
    }
}
`

// Corr builds the CORR benchmark over an n-point, m-feature data set
// (m <= 256; the CPU-variant kernel carries a 256-slot accumulator).
func Corr(m, n int) *Benchmark {
	if m > 256 {
		panic("polybench: Corr requires m <= 256")
	}
	data := newGen(21).slice(n * m)

	// Reference, mirroring kernel float32 op order exactly.
	mean := make([]float32, m)
	for j := 0; j < m; j++ {
		var acc float32
		for i := 0; i < n; i++ {
			acc += data[i*m+j]
		}
		mean[j] = acc / float32(n)
	}
	std := make([]float32, m)
	for j := 0; j < m; j++ {
		var acc float32
		for i := 0; i < n; i++ {
			v := data[i*m+j] - mean[j]
			acc += float32(v * v)
		}
		s := float32(math.Sqrt(float64(acc / float32(n))))
		if s <= 0.005 {
			s = 1.0
		}
		std[j] = s
	}
	sqrtn := float32(math.Sqrt(float64(float32(n))))
	norm := make([]float32, len(data))
	copy(norm, data)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			norm[i*m+j] = (norm[i*m+j] - mean[j]) / (sqrtn * std[j])
		}
	}
	symmat := make([]float32, m*m)
	for j1 := 0; j1 < m; j1++ {
		symmat[j1*m+j1] = 1.0
		for j2 := j1 + 1; j2 < m; j2++ {
			var acc float32
			for i := 0; i < n; i++ {
				acc += float32(norm[i*m+j1] * norm[i*m+j2])
			}
			symmat[j1*m+j2] = acc
			symmat[j2*m+j1] = acc
		}
	}

	local1 := 8
	nd1 := vm.NewNDRange1D(roundUp(m, local1), local1)
	nd2 := vm.NewNDRange2D(roundUp(m, 8), roundUp(n, 8), 8, 8)
	app := &sched.App{
		Name:   "CORR",
		Source: corrSrc,
		Buffers: map[string]int{
			"data": 4 * n * m, "mean": 4 * m, "std": 4 * m, "symmat": 4 * m * m,
		},
		Inputs: map[string][]byte{"data": f32enc(data)},
		Launches: []sched.Launch{
			{Kernel: "corr_mean", ND: nd1, Args: []sched.ArgSpec{
				sched.Buf("data"), sched.Buf("mean"), sched.Int(int64(m)), sched.Int(int64(n)),
			}},
			{Kernel: "corr_std", ND: nd1, Args: []sched.ArgSpec{
				sched.Buf("data"), sched.Buf("mean"), sched.Buf("std"), sched.Int(int64(m)), sched.Int(int64(n)),
			}},
			{Kernel: "corr_reduce", ND: nd2, Args: []sched.ArgSpec{
				sched.Buf("data"), sched.Buf("mean"), sched.Buf("std"),
				sched.Int(int64(m)), sched.Int(int64(n)), sched.Float(float64(sqrtn)),
			}},
			{Kernel: "corr_kernel4", ND: nd1, Args: []sched.ArgSpec{
				sched.Buf("data"), sched.Buf("symmat"), sched.Int(int64(m)), sched.Int(int64(n)),
			}},
		},
		Outputs: []string{"symmat"},
	}
	return &Benchmark{
		Name:      "CORR",
		App:       app,
		Expected:  map[string][]byte{"symmat": f32enc(symmat)},
		InputDesc: fmt.Sprintf("(%d, %d)", m, n),
	}
}

// CorrWithVariant returns CORR with the hand-optimized CPU kernel
// registered as an alternate version of corr_kernel4 (for §9.3/Table 3).
func CorrWithVariant(m, n int) *Benchmark {
	b := Corr(m, n)
	b.App.Variants = append(b.App.Variants, sched.Variant{
		Kernel: "corr_kernel4",
		Source: CorrCPUVariantSrc,
		Name:   "corr_kernel4_cpu",
	})
	return b
}
