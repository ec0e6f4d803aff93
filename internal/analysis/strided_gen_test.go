package analysis_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
	"fluidicl/internal/vm"
)

// Generative differential validation of the strided summaries: random
// strided/scatter kernels with a known ground-truth access model are
// analyzed, executed, and brute-forced. Three properties are checked per
// kernel:
//
//  1. soundness of the hulls — the VM's dynamic write range stays inside
//     the launch-level hull EvalArgWrites computes (the property core's
//     transfer narrowing relies on), and every brute-force written word is
//     covered by the per-item may-footprint;
//  2. soundness of the disjointness verdict — when CertifyGroupDisjoint
//     says OK, the brute-force per-item footprints really are pairwise
//     disjoint within every group (the property the wg admission
//     certificate relies on);
//  3. exactness on the clean subclass — for unguarded kernels whose
//     per-item footprints evaluate as exact interval sets, the verdict
//     agrees with brute force in BOTH directions: truly disjoint footprints
//     must be certified, not just rejected conservatively.
//
// Each kernel also runs under the wg backend and must produce the same
// bytes and Stats as the interpreter, whether the certificate admits it to
// whole-group sets or rejects it to one-lane sets — as generated and after
// passes.TransformGPU, the form the twin protocol's GPU executes. The
// generated kernels open with a multiply-accumulate loop over the read-only
// input, so the wg engine's reduction jam (one inc per body as generated,
// two once the GPU pass has unrolled the loop) and its loop closure — whole
// loops where the control is lane-uniform, one trip per dispatch where the
// generator made it lane-varying — run whether the certificate takes its
// fast path, the pairwise test, or rejects the kernel.

const (
	genGlobal = 32 // 1-D launch: 4 groups of 8
	genLocal  = 8
	genWords  = 2048
)

// genTerm is base + cg*gid + cl*lid + cgr*grp (+ ci*i inside a loop).
type genTerm struct {
	base, cg, cl, cgr, ci int64
}

func (t genTerm) at(g, i int64) int64 {
	lid, grp := g%genLocal, g/genLocal
	return t.base + t.cg*g + t.cl*lid + t.cgr*grp + t.ci*i
}

// expr renders the index expression in MiniCL.
func (t genTerm) expr(withLoop bool) string {
	parts := []string{fmt.Sprintf("%d", t.base)}
	if t.cg != 0 {
		parts = append(parts, fmt.Sprintf("%d*g", t.cg))
	}
	if t.cl != 0 {
		parts = append(parts, fmt.Sprintf("%d*l", t.cl))
	}
	if t.cgr != 0 {
		parts = append(parts, fmt.Sprintf("%d*w", t.cgr))
	}
	if withLoop && t.ci != 0 {
		parts = append(parts, fmt.Sprintf("%d*i", t.ci))
	}
	return strings.Join(parts, " + ")
}

// genLoop is for (int i = lo0+lo1*g; i < hi0+hi1*g; i += step).
type genLoop struct {
	lo0, lo1, hi0, hi1, step int64
}

type genStore struct {
	idx  genTerm
	loop *genLoop // nil: single store
}

type genKernel struct {
	src      string
	gpuSrc   string // src after passes.TransformGPU
	stores   []genStore
	outReads []genTerm // reads of out (unguarded, g-affine)
	guarded  bool
	gcut     int64
}

// genStrided builds one random strided/scatter kernel plus its ground-truth
// access model. Coefficient ranges keep every index inside [0, genWords).
func genStrided(r *rand.Rand) genKernel {
	var k genKernel
	nStores := 1 + r.Intn(2)
	for s := 0; s < nStores; s++ {
		t := genTerm{base: 130 + int64(r.Intn(256))}
		if r.Intn(2) == 0 {
			t.cg = int64(r.Intn(13) - 4) // [-4, 8]
		} else {
			t.cl = int64(r.Intn(9))  // [0, 8]
			t.cgr = int64(r.Intn(9)) // [0, 8]
		}
		st := genStore{idx: t}
		if r.Intn(2) == 0 {
			st.idx.ci = 1 + int64(r.Intn(6))
			st.loop = &genLoop{
				lo0:  int64(r.Intn(4)),
				lo1:  int64(r.Intn(2)),
				hi0:  8 + int64(r.Intn(8)),
				hi1:  int64(r.Intn(2)),
				step: 1 + int64(r.Intn(3)),
			}
		}
		k.stores = append(k.stores, st)
	}
	if r.Intn(3) == 0 {
		k.outReads = append(k.outReads, genTerm{base: int64(r.Intn(64)), cg: int64(r.Intn(9))})
	}
	if r.Intn(3) == 0 {
		k.guarded = true
		k.gcut = int64(4 + r.Intn(genGlobal))
	}
	// The reduction loop reads only in[], below word 32*16+9, so it leaves
	// the ground-truth access model of out[] alone.
	redStride, redTrip, redTwoTerms := 8+r.Intn(9), 3+r.Intn(7), r.Intn(2) == 0
	// Against the wg engine's loop closure: trip counts 0 and 1, a start or a
	// bound that varies from lane to lane (the uniformity precheck fails and
	// the lanes leave the loop at different trips; k stays below 10), and a
	// second induction variable that only feeds an index.
	redStart, redBound := "0", fmt.Sprint(redTrip)
	switch r.Intn(8) {
	case 0:
		redBound = "0"
	case 1:
		redBound = "1"
	case 2:
		redStart = "l % 3"
	case 3:
		redBound = "l + 3"
	}
	redSecondIV := r.Intn(3) == 0

	var b strings.Builder
	b.WriteString("__kernel void gen(__global float* out, __global float* in, int n) {\n")
	b.WriteString("    int g = get_global_id(0);\n")
	b.WriteString("    int l = get_local_id(0);\n")
	b.WriteString("    int w = get_group_id(0);\n")
	b.WriteString("    float acc = in[g];\n")
	fmt.Fprintf(&b, "    int rs = %d;\n", redStride)
	b.WriteString("    int p = g;\n")
	fmt.Fprintf(&b, "    for (int k = %s; k < %s; k++) {\n", redStart, redBound)
	b.WriteString("        acc += in[g * rs + k] * in[k];\n")
	if redTwoTerms {
		b.WriteString("        acc += in[k * rs + l];\n")
	}
	if redSecondIV {
		b.WriteString("        acc += in[p];\n        p = p + 3;\n")
	}
	b.WriteString("    }\n")
	for _, rd := range k.outReads {
		fmt.Fprintf(&b, "    acc = acc + out[%s];\n", rd.expr(false))
	}
	if k.guarded {
		fmt.Fprintf(&b, "    if (g < %d) {\n", k.gcut)
	}
	for _, st := range k.stores {
		if st.loop == nil {
			fmt.Fprintf(&b, "    out[%s] = acc + 1.0f;\n", st.idx.expr(false))
			continue
		}
		lo := fmt.Sprintf("%d", st.loop.lo0)
		if st.loop.lo1 != 0 {
			lo += fmt.Sprintf(" + %d*g", st.loop.lo1)
		}
		hi := fmt.Sprintf("%d", st.loop.hi0)
		if st.loop.hi1 != 0 {
			hi += fmt.Sprintf(" + %d*g", st.loop.hi1)
		}
		fmt.Fprintf(&b, "    for (int i = %s; i < %s; i += %d) {\n", lo, hi, st.loop.step)
		fmt.Fprintf(&b, "        out[%s] = acc * 0.5f;\n", st.idx.expr(true))
		b.WriteString("    }\n")
	}
	if k.guarded {
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	k.src = b.String()

	prog, err := clc.Parse(k.src)
	if err != nil {
		panic(err)
	}
	if _, err := passes.TransformGPU(prog.Kernels[0], passes.GPUOptions{AbortInLoops: true, Unroll: true}); err != nil {
		panic(err)
	}
	k.gpuSrc = clc.Print(prog)
	return k
}

// bruteWrites returns the exact set of words item g writes.
func (k *genKernel) bruteWrites(g int64) map[int64]bool {
	w := map[int64]bool{}
	if k.guarded && g >= k.gcut {
		return w
	}
	for _, st := range k.stores {
		if st.loop == nil {
			w[st.idx.at(g, 0)] = true
			continue
		}
		lo := st.loop.lo0 + st.loop.lo1*g
		hi := st.loop.hi0 + st.loop.hi1*g
		for i := lo; i < hi; i += st.loop.step {
			w[st.idx.at(g, i)] = true
		}
	}
	return w
}

// bruteReads returns the exact set of out-words item g reads.
func (k *genKernel) bruteReads(g int64) map[int64]bool {
	r := map[int64]bool{}
	for _, rd := range k.outReads {
		r[rd.at(g, 0)] = true
	}
	return r
}

// bruteGroupDisjoint reports whether, within every group, distinct items'
// writes are pairwise disjoint from each other and from the others' reads.
func (k *genKernel) bruteGroupDisjoint() bool {
	for grp := int64(0); grp < genGlobal/genLocal; grp++ {
		base := grp * genLocal
		for t := int64(0); t < genLocal; t++ {
			wt := k.bruteWrites(base + t)
			for u := t + 1; u < genLocal; u++ {
				wu := k.bruteWrites(base + u)
				ru := k.bruteReads(base + u)
				rt := k.bruteReads(base + t)
				for word := range wt {
					if wu[word] || ru[word] {
						return false
					}
				}
				for word := range wu {
					if rt[word] {
						return false
					}
				}
			}
		}
	}
	return true
}

func genShape() analysis.LaunchShape {
	return analysis.LaunchShape{
		Dims:      1,
		Local:     [3]int64{genLocal, 1, 1},
		NumGroups: [3]int64{genGlobal / genLocal, 1, 1},
		Count:     [3]int64{genGlobal / genLocal, 1, 1},
	}
}

func TestGenerativeStridedDifferential(t *testing.T) {
	const trials = 200
	params := []int64{0, 0, genWords}
	sh := genShape()
	exactAgreed, fastAdmitted := 0, 0
	before := vm.BackendSnapshot()
	for seed := 0; seed < trials; seed++ {
		r := rand.New(rand.NewSource(int64(7000 + seed)))
		gk := genStrided(r)

		ps, err := analysis.AnalyzeSource(gk.src, "gen")
		if err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, gk.src)
		}
		ks := ps.Kernels["gen"]
		outArg := ks.Arg("out")
		if outArg == nil || !outArg.WritesComplete() {
			t.Fatalf("seed %d: out's affine stores were not fully summarized\n%s\n%s", seed, gk.src, ks)
		}

		// Per-item may-footprints must cover the brute-force writes; exact
		// footprints must equal them.
		ctx := sh.Ctx(params)
		allExact := true
		for g := int64(0); g < genGlobal; g++ {
			it := analysis.ItemCtx{
				Gid: [3]int64{g, 0, 0},
				Lid: [3]int64{g % genLocal, 0, 0},
				Grp: [3]int64{g / genLocal, 0, 0},
			}
			covered := map[int64]bool{}
			for ri := range outArg.Refs {
				ref := &outArg.Refs[ri]
				if !ref.Store {
					continue
				}
				psenum, ok := ref.Footprint(ctx, it)
				if !ok {
					t.Fatalf("seed %d: footprint evaluation failed\n%s", seed, gk.src)
				}
				if !psenum.Exact {
					allExact = false
				}
				for _, p := range psenum.Progs {
					for j := int64(0); j < p.N; j++ {
						covered[p.Lo+j*p.Stride] = true
					}
				}
			}
			brute := gk.bruteWrites(g)
			for word := range brute {
				if !covered[word] {
					t.Fatalf("seed %d: item %d writes word %d outside its may-footprint\n%s\n%s",
						seed, g, word, gk.src, ks)
				}
			}
			// Unguarded single-item footprints that claim exactness must not
			// over-cover either (loops with dynamically empty ranges aside:
			// the footprint clamps to empty exactly like the brute force).
			if !gk.guarded && allExact {
				for word := range covered {
					if !brute[word] {
						t.Fatalf("seed %d: item %d: exact footprint claims word %d the kernel never writes\n%s\n%s",
							seed, g, word, gk.src, ks)
					}
				}
			}
		}

		// Launch-level hull vs the VM's dynamic write range.
		aw, ok := ks.EvalArgWrites(ks.ArgIndex("out"), sh, params, genWords, 1<<22)
		if !ok {
			t.Fatalf("seed %d: EvalArgWrites failed\n%s", seed, gk.src)
		}
		ki, err := clc.FindKernelInfo(gk.src, "gen")
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, gk.src)
		}
		kc, err := vm.Compile(ki)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, gk.src)
		}
		mkArgs := func() []vm.Arg {
			out := make([]byte, 4*genWords)
			in := make([]byte, 4*genWords)
			for i := 0; i < genWords; i++ {
				binary.LittleEndian.PutUint32(in[4*i:], math.Float32bits(float32(i%19)*0.5-4))
				binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(i%7)))
			}
			return []vm.Arg{vm.BufArg(out), vm.BufArg(in), vm.IntArg(genWords)}
		}
		nd := vm.NewNDRange1D(genGlobal, genLocal)
		argsI := mkArgs()
		stI, err := kc.ExecLaunch(nd, argsI, vm.ExecOpts{Backend: vm.BackendInterp})
		if err != nil {
			t.Fatalf("seed %d: exec: %v\n%s", seed, err, gk.src)
		}
		if stI.ParamWriteMask&1 != 0 {
			if int64(stI.WrLo[0]) < 4*aw.Hull.Lo || int64(stI.WrHi[0]) > 4*aw.Hull.Hi {
				t.Fatalf("seed %d: dynamic writes [%d,%d) escape the launch hull [%d,%d)\n%s",
					seed, stI.WrLo[0], stI.WrHi[0], 4*aw.Hull.Lo, 4*aw.Hull.Hi, gk.src)
			}
		}

		// Disjointness verdict vs brute force. At budget 0 only the one-slot
		// fast path can admit (the pairwise test needs budget for 8-item
		// groups), so an admission there is the fast path's, held to brute
		// force on its own.
		brute := gk.bruteGroupDisjoint()
		v := ks.CertifyGroupDisjoint(sh, params, 1<<22)
		if v.OK && !brute {
			t.Fatalf("seed %d: certificate claims disjoint but brute force found an overlap\n%s\n%s",
				seed, gk.src, ks)
		}
		if v0 := ks.CertifyGroupDisjoint(sh, params, 0); v0.OK {
			fastAdmitted++
			if !brute {
				t.Fatalf("seed %d: the fast path claims disjoint but brute force found an overlap\n%s\n%s",
					seed, gk.src, ks)
			}
		}
		if !gk.guarded && allExact && len(gk.outReads) == 0 {
			// Clean subclass: unguarded, exact footprints, no out reads —
			// the verdict must be exact, not merely conservative.
			if v.OK != brute {
				t.Fatalf("seed %d: exact-subclass verdict %v (reason %q) disagrees with brute force %v\n%s\n%s",
					seed, v.OK, v.Reason, brute, gk.src, ks)
			}
			if v.OK == brute {
				exactAgreed++
			}
		}

		// Backend parity: wg (certified or fallen back) must match interp,
		// with region fusion on (the default; runs first, so the fused jams
		// see the kernel's cold scratch state) and off. The interpreter is
		// the referee: both wg modes must reproduce its bytes and Stats
		// exactly, which also pins fused vs unfused against each other. The
		// GPU-transformed kernel, its abort buffer present but never firing,
		// must write the same bytes as the original.
		gpuKI, err := clc.FindKernelInfo(gk.gpuSrc, "gen")
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, gk.gpuSrc)
		}
		gpuKC, err := vm.Compile(gpuKI)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, gk.gpuSrc)
		}
		status := make([]byte, 4*passes.StatusWords)
		binary.LittleEndian.PutUint32(status[4*passes.StatusKernelID:], 1)
		binary.LittleEndian.PutUint32(status[4*passes.StatusDoneFrom:], uint32(passes.NoCPUWork))
		for _, v := range []struct {
			name  string
			k     *vm.Kernel
			extra []vm.Arg
		}{{"original", kc, nil}, {"gpu variant", gpuKC, []vm.Arg{vm.BufArg(status), vm.IntArg(1)}}} {
			var ref vm.Stats
			for i, mode := range []struct {
				be   vm.Backend
				fuse bool
			}{{vm.BackendInterp, true}, {vm.BackendWG, true}, {vm.BackendWG, false}} {
				args := append(mkArgs(), v.extra...)
				vm.SetWGFuse(mode.fuse)
				st, err := v.k.ExecLaunch(nd, args, vm.ExecOpts{Backend: mode.be})
				vm.SetWGFuse(true)
				if err != nil {
					t.Fatalf("seed %d: %s, %v fuse=%v: %v\n%s", seed, v.name, mode.be, mode.fuse, err, gk.src)
				}
				if !bytes.Equal(argsI[0].Buf, args[0].Buf) {
					t.Fatalf("seed %d: %s, %v fuse=%v produced different bytes\n%s", seed, v.name, mode.be, mode.fuse, gk.src)
				}
				if i == 0 {
					ref = st
				} else if st != ref {
					t.Fatalf("seed %d: %s, %v fuse=%v produced different Stats\n  interp %+v\n  got    %+v\n%s",
						seed, v.name, mode.be, mode.fuse, ref, st, gk.src)
				}
			}
		}
	}
	if exactAgreed == 0 {
		t.Error("no trial exercised the exact subclass; generator drifted")
	}
	if fastAdmitted == 0 {
		t.Error("no trial was admitted by the one-slot fast path; generator drifted")
	}
	t.Logf("%d of %d kernels admitted by the one-slot fast path", fastAdmitted, trials)
	after := vm.BackendSnapshot()
	if after.WGFusedInstrsDyn == before.WGFusedInstrsDyn {
		t.Error("no trial ran a fused closure; generator drifted")
	}
	if after.WGLoopBatchesDyn == before.WGLoopBatchesDyn || after.WGLoopNonuniformDyn == before.WGLoopNonuniformDyn {
		t.Errorf("loop closure: %d whole-loop dispatches, %d failed uniformity prechecks; want both; generator drifted",
			after.WGLoopBatchesDyn-before.WGLoopBatchesDyn, after.WGLoopNonuniformDyn-before.WGLoopNonuniformDyn)
	}
}
