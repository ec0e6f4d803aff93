package analysis_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/polybench"
	"fluidicl/internal/vm"
	"fluidicl/internal/vmref"
)

// Differential validation of the static analyzer against the VM's dynamic
// access stats: for random generated kernels, every parameter the VM
// observed being read (written) must be marked readable (writable) in the
// static summary, a store outside a slot-exact argument's slot range
// disproves the slot-exact claim, and a store outside the launch hull of a
// fully summarized argument disproves its refs. The static side may over-approximate;
// the dynamic side must never escape it — that soundness direction is what
// the runtime's transfer/merge elisions rely on.
func TestDynamicAccessWithinStaticSummary(t *testing.T) {
	const trials = 120
	n := 32
	for seed := 0; seed < trials; seed++ {
		src := vmref.GenProgram(rand.New(rand.NewSource(int64(2000 + seed))))

		ps, err := analysis.AnalyzeSource(src, "gen")
		if err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
		ks := ps.Kernels["diff"]
		if ks == nil {
			t.Fatalf("seed %d: no summary for kernel diff", seed)
		}

		ki, err := clc.FindKernelInfo(src, "diff")
		if err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, src)
		}
		k, err := vm.Compile(ki)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}

		fb := make([]byte, 4*n)
		ib := make([]byte, 4*n)
		r := rand.New(rand.NewSource(int64(seed) * 11))
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(fb[4*i:], math.Float32bits(float32(r.Float64()*16-8)))
			binary.LittleEndian.PutUint32(ib[4*i:], uint32(int32(r.Intn(41)-20)))
		}
		nd := vm.NewNDRange1D(n, 16)
		p1 := int64(seed%13 - 6)
		args := []vm.Arg{
			vm.BufArg(fb), vm.BufArg(ib),
			vm.IntArg(int64(n)), vm.IntArg(p1), vm.FloatArg(float64(seed%17)/3 - 2),
		}
		sh := analysis.LaunchShape{Dims: 1, Local: [3]int64{16, 1, 1},
			NumGroups: [3]int64{int64(n) / 16, 1, 1}, Count: [3]int64{int64(n) / 16, 1, 1}}
		st, err := k.ExecLaunch(nd, args, vm.ExecOpts{})
		if err != nil {
			t.Fatalf("seed %d: exec: %v\n%s", seed, err, src)
		}

		for ai := range ks.Args {
			sa := &ks.Args[ai]
			slot := uint(sa.Index)
			if st.ParamReadMask&(1<<slot) != 0 && !sa.Read {
				t.Errorf("seed %d: VM read param %q but summary says %s\n%s",
					seed, sa.Name, ks, src)
			}
			if st.ParamWriteMask&(1<<slot) != 0 && !sa.Written {
				t.Errorf("seed %d: VM wrote param %q but summary says %s\n%s",
					seed, sa.Name, ks, src)
			}
			if sa.SlotExact && sa.Index < len(st.WrLo) && st.ParamWriteMask&(1<<slot) != 0 {
				items := nd.TotalGroups() * nd.WorkItemsPerGroup()
				if st.WrLo[sa.Index] < 0 || int(st.WrHi[sa.Index]) > 4*items {
					t.Errorf("seed %d: slot-exact param %q wrote bytes [%d,%d) outside [0,%d)\n%s",
						seed, sa.Name, st.WrLo[sa.Index], st.WrHi[sa.Index], 4*items, src)
				}
			}
			if sa.WritesComplete() && sa.Index < len(st.WrLo) && st.ParamWriteMask&(1<<slot) != 0 {
				aw, ok := ks.EvalArgWrites(ai, sh, []int64{0, 0, int64(n), p1, 0}, int64(n), 1<<20)
				if !ok {
					t.Fatalf("seed %d: EvalArgWrites failed on %q\n%s", seed, sa.Name, src)
				}
				if int64(st.WrLo[sa.Index]) < 4*aw.Hull.Lo || int64(st.WrHi[sa.Index]) > 4*aw.Hull.Hi {
					t.Errorf("seed %d: param %q wrote bytes [%d,%d) outside the launch hull [%d,%d)\n%s\n%s",
						seed, sa.Name, st.WrLo[sa.Index], st.WrHi[sa.Index], 4*aw.Hull.Lo, 4*aw.Hull.Hi, ks, src)
				}
			}
		}
	}
}

// TestPolybenchDynamicAgreement executes every Polybench kernel once on the
// VM with benchmark-shaped arguments and checks the dynamic access masks
// against the analyzer's classification of each __global argument — the
// acceptance bar for the summaries the runtime trusts.
func TestPolybenchDynamicAgreement(t *testing.T) {
	type launch struct {
		name   string
		src    string
		kernel string
		nd     vm.NDRange
		// words per buffer argument, scalars given literally
		mk func(n int) []vm.Arg
		n  int
	}
	// A small representative size; local sizes mirror the benchmarks'.
	const n = 64
	bicgSrc := sourceOf(t, "BICG")
	gesummvSrc := sourceOf(t, "GESUMMV")
	ataxSrc := sourceOf(t, "ATAX")
	mvtSrc := sourceOf(t, "MVT")
	gemmSrc := sourceOf(t, "GEMM")
	convSrc := sourceOf(t, "2DCONV")
	syrkSrc := sourceOf(t, "SYRK")
	buf := func(words int) vm.Arg { return vm.BufArg(randBytes(4 * words)) }
	cases := []launch{
		{"bicg1", bicgSrc, "bicgKernel1", vm.NewNDRange1D(n, 16), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n), buf(n), vm.IntArg(int64(n))}
		}, n},
		{"bicg2", bicgSrc, "bicgKernel2", vm.NewNDRange1D(n, 16), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n), buf(n), vm.IntArg(int64(n))}
		}, n},
		{"gesummv", gesummvSrc, "gesummv", vm.NewNDRange1D(n, 16), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n * n), buf(n), buf(n), vm.IntArg(int64(n)), vm.FloatArg(1.5), vm.FloatArg(0.5)}
		}, n},
		{"atax1", ataxSrc, "atax_kernel1", vm.NewNDRange1D(n, 16), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n), buf(n), vm.IntArg(int64(n))}
		}, n},
		{"atax2", ataxSrc, "atax_kernel2", vm.NewNDRange1D(n, 16), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n), buf(n), vm.IntArg(int64(n))}
		}, n},
		{"mvt1", mvtSrc, "mvt_kernel1", vm.NewNDRange1D(n, 16), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n), buf(n), vm.IntArg(int64(n))}
		}, n},
		{"gemm", gemmSrc, "gemm_kernel", vm.NewNDRange2D(n, n, 8, 8), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n * n), buf(n * n),
				vm.IntArg(int64(n)), vm.IntArg(int64(n)), vm.IntArg(int64(n)),
				vm.FloatArg(1.5), vm.FloatArg(0.5)}
		}, n},
		{"conv", convSrc, "conv2d_kernel", vm.NewNDRange2D(n, n, 8, 8), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n * n), vm.IntArg(int64(n))}
		}, n},
		{"syrk", syrkSrc, "syrk_kernel", vm.NewNDRange2D(n, n, 8, 8), func(n int) []vm.Arg {
			return []vm.Arg{buf(n * n), buf(n * n), vm.IntArg(int64(n)), vm.IntArg(int64(n)),
				vm.FloatArg(1.5), vm.FloatArg(0.5)}
		}, n},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps, err := analysis.AnalyzeSource(c.src, c.name)
			if err != nil {
				t.Fatal(err)
			}
			ks := ps.Kernels[c.kernel]
			if ks == nil {
				t.Fatalf("no summary for %s", c.kernel)
			}
			ki, err := clc.FindKernelInfo(c.src, c.kernel)
			if err != nil {
				t.Fatal(err)
			}
			k, err := vm.Compile(ki)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.ExecLaunch(c.nd, c.mk(c.n), vm.ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for ai := range ks.Args {
				sa := &ks.Args[ai]
				slot := uint(sa.Index)
				dynR := st.ParamReadMask&(1<<slot) != 0
				dynW := st.ParamWriteMask&(1<<slot) != 0
				if dynR && !sa.Read {
					t.Errorf("%s: VM read %q but summary classifies it %s", c.kernel, sa.Name, ks)
				}
				if dynW && !sa.Written {
					t.Errorf("%s: VM wrote %q but summary classifies it %s", c.kernel, sa.Name, ks)
				}
				// The benchmarks exercise every access their kernels contain,
				// so the static classification must also not claim accesses
				// that never happen: the summaries are exact here, which is
				// what "classifies every __global argument correctly" means.
				if sa.Read && !dynR {
					t.Errorf("%s: summary says %q is read but the VM never read it", c.kernel, sa.Name)
				}
				if sa.Written && !dynW {
					t.Errorf("%s: summary says %q is written but the VM never wrote it", c.kernel, sa.Name)
				}
			}
		})
	}
}

func sourceOf(t *testing.T, name string) string {
	t.Helper()
	for _, s := range polybench.Sources() {
		if s.Name == name {
			return s.Src
		}
	}
	t.Fatalf("no shipped source named %q", name)
	return ""
}

func randBytes(n int) []byte {
	b := make([]byte, n)
	r := rand.New(rand.NewSource(42))
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(float32(r.Float64()*2-1)))
	}
	return b
}
