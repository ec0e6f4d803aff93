// Package polybench provides the six benchmarks the paper evaluates
// FluidiCL on (§8, Table 2): 2MM, BICG, CORR, GESUMMV, SYRK and SYR2K from
// the Polybench suite, written in MiniCL with deterministic inputs and
// bit-exact float32 reference implementations.
//
// The OCR of the paper garbles the first benchmark's name; by kernel count
// (two) and behaviour (runs best entirely on the GPU) we take it to be 2MM.
// Default sizes are scaled down from the paper's (kernels here run on an
// interpreter); every experiment records the sizes it used.
//
// Access-pattern notes (these drive which device wins, as in the paper):
//   - 2MM's matmul kernels read B/tmp coalesced across adjacent work-items:
//     GPU-friendly.
//   - BICG's first kernel walks rows per work-item (uncoalesced on GPU,
//     cache-friendly on CPU); its second kernel reads columns across
//     work-items (coalesced): the two kernels prefer different devices
//     (Table 1).
//   - GESUMMV is row-per-work-item matrix-vector: CPU-friendly.
//   - SYRK/SYR2K mix a broadcast row with an uncoalesced row: both devices
//     are mediocre, so cooperative splits win.
package polybench

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"fluidicl/internal/sched"
)

// Benchmark couples an application with its reference outputs.
type Benchmark struct {
	Name      string
	App       *sched.App
	Expected  map[string][]byte
	InputDesc string
}

// Verify compares a run's outputs with the reference, bit-exactly.
func (b *Benchmark) Verify(outputs map[string][]byte) error {
	for name, want := range b.Expected {
		got, ok := outputs[name]
		if !ok {
			return fmt.Errorf("%s: output %q missing", b.Name, name)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s: output %q has %d bytes, want %d", b.Name, name, len(got), len(want))
		}
		for i := 0; i < len(want); i += 4 {
			if binary.LittleEndian.Uint32(got[i:]) != binary.LittleEndian.Uint32(want[i:]) {
				return fmt.Errorf("%s: output %q differs at word %d: got %v, want %v",
					b.Name, name, i/4, f32dec(got, i/4), f32dec(want, i/4))
			}
		}
	}
	return nil
}

// All returns the six default benchmarks in the paper's Table 2 order.
func All() []*Benchmark {
	return []*Benchmark{
		TwoMM(128, 128, 128),
		Bicg(768),
		Corr(160, 160),
		Gesummv(768),
		Syrk(128, 128),
		Syr2k(128, 128),
	}
}

// AllQuick returns reduced-scale variants of every benchmark (the paper's
// six plus the extras), matching the harness quick scale: same kernels and
// schedules, small enough for fast gates.
func AllQuick() []*Benchmark {
	return []*Benchmark{
		TwoMM(48, 48, 48),
		Bicg(192),
		Corr(64, 64),
		Gesummv(192),
		Syrk(64, 64),
		Syr2k(48, 48),
		Atax(192),
		Mvt(192),
		Gemm(48, 48, 48),
		TwoDConv(64),
	}
}

// ByName returns the default-size benchmark with the given name (the
// paper's six plus the extras), matched case-insensitively.
func ByName(name string) (*Benchmark, error) {
	for _, b := range AllWithExtras() {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("polybench: unknown benchmark %q", name)
}

// ByNameQuick returns the reduced-scale variant with the given name.
func ByNameQuick(name string) (*Benchmark, error) {
	for _, b := range AllQuick() {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("polybench: unknown benchmark %q", name)
}

// ---- deterministic input data ----

// dataGen is a small LCG producing reproducible float32 values in [0.25, 1.25).
type dataGen struct{ state uint32 }

func newGen(seed uint32) *dataGen { return &dataGen{state: seed*2654435761 + 1} }

func (g *dataGen) next() float32 {
	g.state = g.state*1664525 + 1013904223
	return 0.25 + float32(g.state>>16)/65536.0
}

func (g *dataGen) slice(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// ---- float32 <-> bytes ----

func f32enc(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func f32dec(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}
