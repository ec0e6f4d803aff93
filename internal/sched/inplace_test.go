package sched_test

import (
	"encoding/binary"
	"math"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

// TestTwinInPlaceUpdate: `scale` writes y, then `axpy` updates the same y
// in place while scale's device-to-host transfer may still be in flight.
// The D2H thread of the first kernel must fire the readiness event created
// for ITS kernel and must not publish its (older) version once the second
// kernel has claimed the buffer; otherwise a reader returns the first
// kernel's data for the second kernel's version, and the second kernel's CPU
// scheduler waits forever on an event nobody fires.
func TestTwinInPlaceUpdate(t *testing.T) {
	const n, local = 8192, 256
	const a = float32(0.75)
	x := make([]float32, n)
	xb := make([]byte, 4*n)
	for i := range x {
		x[i] = 0.25 + float32(i%97)/97
		binary.LittleEndian.PutUint32(xb[4*i:], math.Float32bits(x[i]))
	}
	launch := func(kernel string) sched.Launch {
		return sched.Launch{
			Kernel: kernel,
			ND:     vm.NewNDRange1D(n, local),
			Args:   []sched.ArgSpec{sched.Buf("x"), sched.Buf("y"), sched.Float(float64(a)), sched.Int(n)},
		}
	}
	app := &sched.App{
		Name: "inplace",
		Source: `
__kernel void scale(__global float* in, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a * in[i]; }
}
__kernel void axpy(__global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { y[i] = a * x[i] + y[i]; }
}
`,
		Buffers:  map[string]int{"x": 4 * n, "y": 4 * n},
		Inputs:   map[string][]byte{"x": xb},
		Launches: []sched.Launch{launch("scale"), launch("axpy")},
		Outputs:  []string{"y"},
	}
	res, err := sched.RunFluidiCL(sched.DefaultMachine(), app, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := res.Outputs["y"]
	wrong := 0
	for i := range x {
		// Each operation rounds to float32 on its own, as the VM does.
		s := a * x[i]
		want := float32(a*x[i]) + s
		if got := math.Float32frombits(binary.LittleEndian.Uint32(y[4*i:])); got != want {
			if wrong == 0 {
				t.Errorf("y[%d] = %v, want %v (scale alone gives %v)", i, got, want, s)
			}
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d words wrong: the in-place update was lost", wrong, n)
	}
}
