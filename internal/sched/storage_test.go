package sched

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// tailApp has testApp's buffer sizes, so its run draws the storage a
// testApp run released. It gives input for the first half of a only and
// reads all of it: c = a + d + 1 is right only where the unwritten half of
// a — host shadow and every device copy, which own storage drawn from that
// run's — and all of the input-only d, whose host shadow and device copies
// share the zero slab, read zero.
func tailApp(n int) *App {
	a := make([]byte, 4*(n/2))
	for i := 0; i < n/2; i++ {
		binary.LittleEndian.PutUint32(a[4*i:], math.Float32bits(float32(i)))
	}
	return &App{
		Name: "tail",
		Source: `
__kernel void inc(__global float* b, __global float* d, __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = b[i] + d[i] + 1.0f; }
}
`,
		Buffers: map[string]int{"a": 4 * n, "b": 4 * n, "c": 4 * n, "d": 4 * n},
		Inputs:  map[string][]byte{"a": a},
		Launches: []Launch{
			{Kernel: "inc", ND: vm.NewNDRange1D(n, 16), Args: []ArgSpec{Buf("a"), Buf("d"), Buf("c"), Int(int64(n))}},
		},
		Outputs: []string{"a", "b", "c", "d"},
	}
}

func checkTail(t *testing.T, res *Result, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := float32(0)
		if i < n/2 {
			a = float32(i)
		}
		for name, want := range map[string]float32{"a": a, "b": 0, "c": a + 1, "d": 0} {
			if got := math.Float32frombits(binary.LittleEndian.Uint32(res.Outputs[name][4*i:])); got != want {
				t.Fatalf("%s: %s[%d] = %v, want %v: recycled storage was not cleared", label, name, i, got, want)
			}
		}
	}
}

// failingApp fills its buffers like testApp and then fails: its second
// kernel stores past the end of c.
func failingApp(n int) *App {
	app := testApp(n)
	app.Name = "failing"
	app.Source += `
__kernel void oob(__global float* b, __global float* c, int n) {
    int i = get_global_id(0);
    c[i + n] = b[i];
}
`
	app.Launches[1].Kernel = "oob"
	return app
}

// TestRunStorageRecycled: a run draws the storage of the run before it and
// sees none of its bytes, under every strategy (EveryStrategy). Each run
// hands each backing array to ocl.Recycle once (Recycle panics otherwise;
// the Polybench apps are TestReleaseRecyclesEachArrayOnce's, as polybench
// imports sched) and none of its inputs.
func TestRunStorageRecycled(t *testing.T) {
	const n = 2048 // 8 KiB buffers: above ocl's recycling floor
	for _, s := range EveryStrategy() {
		// Run A leaves non-zero bytes in every buffer it releases.
		appA := testApp(n)
		resA, err := s.Run(appA)
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, resA, n, s.Name+" run A")
		keptA := bytes.Clone(resA.Outputs["c"])
		if ocl.Listed(appA.Inputs["a"]) {
			t.Errorf("%s: run A put its input on the free list", s.Name)
		}

		// Run B is built on A's storage and must see none of it.
		resB, err := s.Run(tailApp(n))
		if err != nil {
			t.Fatal(err)
		}
		checkTail(t, resB, n, s.Name+" run B")
		if !bytes.Equal(resA.Outputs["c"], keptA) {
			t.Errorf("%s: run B changed run A's outputs: they alias recycled storage", s.Name)
		}

		// A run that fails half-way returns its storage all the same.
		if _, err := s.Run(failingApp(n)); err == nil {
			t.Fatalf("%s: the out-of-bounds store went unnoticed", s.Name)
		}
		resC, err := s.Run(tailApp(n))
		if err != nil {
			t.Fatal(err)
		}
		checkTail(t, resC, n, s.Name+" run after a failed one")
	}
}

func TestUseAfterReleasePanics(t *testing.T) {
	m := DefaultMachine()
	env := sim.NewEnv()
	rt := core.MustNew(env, device.New(env, m.CPU), device.New(env, m.GPU), core.Options{})
	prog, err := rt.BuildProgram(testApp(16).Source)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("dbl")
	b := rt.CreateBuffer(64)
	rt.Release()
	rt.Release() // a second Release is a no-op
	for name, call := range map[string]func(){
		"CreateBuffer":       func() { rt.CreateBuffer(64) },
		"EnqueueWriteBuffer": func() { rt.EnqueueWriteBuffer(nil, b, make([]byte, 64)) },
		"EnqueueReadBuffer":  func() { rt.EnqueueReadBuffer(nil, b) },
		"EnqueueNDRangeKernel": func() {
			_ = rt.EnqueueNDRangeKernel(nil, k, vm.NewNDRange1D(16, 16), []core.Arg{core.BufArg(b), core.BufArg(b), core.IntArg(16)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released runtime did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestNilInputsShareZeroSlab: buffers without input start from one shared
// slab of zeros, handed to each as a view capped at the buffer's size.
// TestHandedOverInputsNeverWritten holds every strategy to never writing
// through it, nor through any other input.
func TestNilInputsShareZeroSlab(t *testing.T) {
	const n = 256
	app := testApp(n)
	b, c := app.input("b"), app.input("c")
	if &b[0] != &c[0] || len(b) != 4*n || cap(b) != len(b) {
		t.Fatalf("nil inputs are not capped views of one slab: len %d cap %d", len(b), cap(b))
	}
}
