package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// The stream apps are the benchmark's own: large buffers and a handful of VM
// operations per work-item, the opposite of the Polybench kernels, so the
// runtime's byte-moving layers (transfer planning, diff-merge, ship
// narrowing, allocation) carry the host time instead of the interpreter.
const (
	StreamN     = 1 << 19 // floats per buffer (2 MiB)
	StreamLocal = 256     // work-items per group: 2048 groups per launch
)

const streamSrc = `
// out = a * in, one word per work-item.
__kernel void scale(__global float* in, __global float* out, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a * in[i];
    }
}

// y = a * x + y, in place.
__kernel void axpy(__global float* x, __global float* y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
`

// streamInputs draws n floats in [0.25, 1.25) and a scale factor in
// [0.5, 1.0) from the seed; the products stay well inside float32 range.
func streamInputs(seed uint64, n int) (a float32, x, y []float32) {
	r := rand.New(rand.NewSource(int64(seed)))
	a = 0.5 + r.Float32()/2
	x = make([]float32, n)
	y = make([]float32, n)
	for i := range x {
		x[i] = 0.25 + r.Float32()
		y[i] = 0.25 + r.Float32()
	}
	return a, x, y
}

func f32bytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

func streamLaunch(kernel, a, b string, alpha float32, n, local int) sched.Launch {
	return sched.Launch{
		Kernel: kernel,
		ND:     vm.NewNDRange1D(n, local),
		Args: []sched.ArgSpec{
			sched.Buf(a), sched.Buf(b), sched.Float(float64(alpha)), sched.Int(int64(n)),
		},
	}
}

// StreamOut is y = a*x; z = a*y; w = a*z: three launches that each fill a
// write-only buffer. The reference is a plain float32 loop.
func StreamOut(seed uint64, n, local int) *polybench.Benchmark {
	a, x, _ := streamInputs(seed, n)
	y := make([]float32, n)
	z := make([]float32, n)
	w := make([]float32, n)
	for i := range x {
		y[i] = a * x[i]
		z[i] = a * y[i]
		w[i] = a * z[i]
	}
	app := &sched.App{
		Name:    "stream-out",
		Source:  streamSrc,
		Buffers: map[string]int{"x": 4 * n, "y": 4 * n, "z": 4 * n, "w": 4 * n},
		Inputs:  map[string][]byte{"x": f32bytes(x)},
		Launches: []sched.Launch{
			streamLaunch("scale", "x", "y", a, n, local),
			streamLaunch("scale", "y", "z", a, n, local),
			streamLaunch("scale", "z", "w", a, n, local),
		},
		Outputs: []string{"y", "z", "w"},
	}
	return &polybench.Benchmark{
		Name:      app.Name,
		App:       app,
		Expected:  map[string][]byte{"y": f32bytes(y), "z": f32bytes(z), "w": f32bytes(w)},
		InputDesc: fmt.Sprintf("(%d)", n),
	}
}

// StreamInOut is y = a*x + y; z = a*y; y = a*z + y: the first and last
// launches update a read-write buffer in place. Every operation is rounded to
// float32 on its own, as the VM does (the conversions forbid a fused
// multiply-add).
func StreamInOut(seed uint64, n, local int) *polybench.Benchmark {
	a, x, y0 := streamInputs(seed, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		y[i] = float32(a*x[i]) + y0[i]
		z[i] = a * y[i]
		y[i] = float32(a*z[i]) + y[i]
	}
	app := &sched.App{
		Name:    "stream-inout",
		Source:  streamSrc,
		Buffers: map[string]int{"x": 4 * n, "y": 4 * n, "z": 4 * n},
		Inputs:  map[string][]byte{"x": f32bytes(x), "y": f32bytes(y0)},
		Launches: []sched.Launch{
			streamLaunch("axpy", "x", "y", a, n, local),
			streamLaunch("scale", "y", "z", a, n, local),
			streamLaunch("axpy", "z", "y", a, n, local),
		},
		Outputs: []string{"y", "z"},
	}
	return &polybench.Benchmark{
		Name:      app.Name,
		App:       app,
		Expected:  map[string][]byte{"y": f32bytes(y), "z": f32bytes(z)},
		InputDesc: fmt.Sprintf("(%d)", n),
	}
}
