package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fluidicl/internal/clc"
)

// The differential suite of diff_test.go, run on what the twin protocol's
// GPU device actually executes: kernels after passes.TransformGPU (abort
// check at entry and inside innermost loops, those loops unrolled by four
// around the check) with a live abort buffer, so some work-groups return at
// the check and the rest run to completion. Four executors — the AST
// reference, the switch interpreter, and the lockstep engine with region
// fusion on and off — must agree bit for bit on every buffer; the three VM
// executors also on Stats and on undo-log rollback.

// diffExec runs every group of the launch on one executor and returns the
// concatenated buffer arguments and the summed Stats. With undo set every
// group logs its stores and is rolled back, which must restore the buffers;
// the returned bytes are then the buffers as they were before each rollback.
func diffExec(t *testing.T, label string, k *Kernel, nd NDRange, args []Arg, be Backend, fuse, undo bool) (string, Stats, error) {
	t.Helper()
	defer SetWGFuse(true)
	SetWGFuse(fuse)
	snap := func() string {
		var s string
		for _, a := range args {
			if a.Kind == ArgBuffer {
				s += string(a.Buf)
			}
		}
		return s
	}
	var total Stats
	var applied string
	for g := 0; g < nd.LaunchGroups(); g++ {
		opts := ExecOpts{Backend: be}
		before := snap()
		var log UndoLog
		if undo {
			opts.Undo = &log
		}
		st, err := k.ExecWorkGroup(nd, nd.GroupAt(g), args, opts)
		total.Add(st)
		if err != nil {
			return "", total, err
		}
		if undo {
			applied += snap()
			log.Rollback()
			if snap() != before {
				t.Fatalf("%s (%v fuse=%v): rollback of group %d did not restore the buffers", label, be, fuse, g)
			}
		}
	}
	if !undo {
		applied = snap()
	}
	return applied, total, nil
}

// diffFiveWay holds one launch of src's kernel to the agreement described
// at the top of the file. mkArgs must return fresh, identical arguments on
// every call.
func diffFiveWay(t *testing.T, label, src, name string, nd NDRange, mkArgs func() []Arg) {
	t.Helper()
	ki, err := clc.FindKernelInfo(src, name)
	if err != nil {
		t.Fatalf("%s: transformed program does not check: %v\n%s", label, err, src)
	}
	k, err := Compile(ki)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", label, err, src)
	}
	ref, err := NewRefExec(ki)
	if err != nil {
		t.Fatal(err)
	}
	refArgs := mkArgs()
	var refErr error
	for g := 0; g < nd.LaunchGroups() && refErr == nil; g++ {
		refErr = ref.ExecWorkGroup(nd, nd.GroupAt(g), refArgs)
	}
	var refBufs string
	for _, a := range refArgs {
		if a.Kind == ArgBuffer {
			refBufs += string(a.Buf)
		}
	}

	type exec struct {
		be   Backend
		fuse bool
	}
	execs := []exec{{BackendInterp, true}, {BackendWG, true}, {BackendWG, false}}
	for _, undo := range []bool{false, true} {
		var bufs0 string
		var st0 Stats
		for i, e := range execs {
			bufs, st, err := diffExec(t, label, k, nd, mkArgs(), e.be, e.fuse, undo)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s undo=%v: error disagreement: %v fuse=%v: %v, ref: %v\n%s", label, undo, e.be, e.fuse, err, refErr, src)
			}
			if err != nil {
				continue
			}
			if i == 0 {
				bufs0, st0 = bufs, st
				if !undo && bufs != refBufs {
					t.Fatalf("%s undo=%v: interpreter buffers differ from the AST reference\n%s", label, undo, src)
				}
				continue
			}
			if bufs != bufs0 {
				t.Fatalf("%s undo=%v: %v fuse=%v buffers differ from the interpreter\n%s", label, undo, e.be, e.fuse, src)
			}
			if st != st0 {
				t.Fatalf("%s undo=%v: Stats diverge\ninterp:        %+v\n%v fuse=%v: %+v\n%s", label, undo, st0, e.be, e.fuse, st, src)
			}
		}
	}
}

func TestDifferentialGPUVariant(t *testing.T) {
	before := BackendSnapshot()
	// Four groups; the CPU "has completed" groups 2 and 3, so they abort at
	// the entry check while 0 and 1 poll the buffer in their loops and run on.
	abort := func() []Arg { return GPUAbortArgs(7, 2) }

	const n = 32
	for seed := 0; seed < 40; seed++ {
		src, _, err := TransformedSources(GenProgram(rand.New(rand.NewSource(int64(5000 + seed)))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		diffFiveWay(t, fmt.Sprintf("GenProgram seed %d", seed), src, "diff", NewNDRange1D(n, 8), func() []Arg {
			fb := make([]byte, 4*n)
			ib := make([]byte, 4*n)
			r := rand.New(rand.NewSource(int64(seed) * 7))
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(fb[4*i:], math.Float32bits(float32(r.Float64()*16-8)))
				binary.LittleEndian.PutUint32(ib[4*i:], uint32(int32(r.Intn(41)-20)))
			}
			return append([]Arg{BufArg(fb), BufArg(ib), IntArg(n), IntArg(int64(seed%13 - 6)), FloatArg(float64(seed%17)/3 - 2)}, abort()...)
		})
	}
	mid := BackendSnapshot()

	// Reduction chains, both as written (one inc per body — also what the
	// CPU variant's body looks like) and GPU-transformed (two).
	var leaves [3]int // accumulators per leaf: wgDot1, wgDot2, wgChain
	for seed := 0; seed < 60; seed++ {
		r := rand.New(rand.NewSource(int64(6000 + seed)))
		orig := GenReduction(r)
		gpu, _, err := TransformedSources(orig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, n := range MustCompile(gpu, "red").WGLeaves() {
			leaves[i] += n
		}
		m := 5 + r.Intn(8) // mostly not a multiple of the unroll factor: the break path runs
		mkArgs := func() []Arg {
			fr := rand.New(rand.NewSource(int64(seed) * 13))
			mk := func() []byte { return floatBuf(n*m, func(int) float32 { return float32(fr.Float64()*4 - 2) }) }
			return []Arg{BufArg(make([]byte, 4*2*n)), BufArg(mk()), BufArg(mk()), IntArg(n), IntArg(int64(m)), FloatArg(1.25)}
		}
		diffFiveWay(t, fmt.Sprintf("GenReduction seed %d", seed), orig, "red", NewNDRange1D(n, 8), mkArgs)
		diffFiveWay(t, fmt.Sprintf("GenReduction seed %d (gpu)", seed), gpu, "red", NewNDRange1D(n, 8),
			func() []Arg { return append(mkArgs(), abort()...) })
	}
	after := BackendSnapshot()
	if after.WGFusedInstrsDyn == mid.WGFusedInstrsDyn {
		t.Error("no generated reduction ran through a fused closure")
	}
	// Every launch above runs full groups, so what fused ran on its leaf.
	if leaves[0] == 0 || leaves[1] == 0 || leaves[2] == 0 {
		t.Errorf("generated reductions ran %v accumulators on wgDot1, wgDot2, wgChain; want all three; generator drifted", leaves)
	}
	if after.WGFuseRejects[WGFuseRejCap] == before.WGFuseRejects[WGFuseRejCap] {
		t.Error("no generated reduction crossed the jam's plan capacity; generator drifted")
	}

	// Loops built against the loop closure (wgloop.go), as written and
	// GPU-transformed. Every sixth seed's inputs end inside the last
	// work-items' rows: where an index then leaves its buffer at a trip
	// j > 0, every executor, the AST reference included, must fail.
	for seed := 0; seed < 90; seed++ {
		r := rand.New(rand.NewSource(int64(8000 + seed)))
		orig := genLoopAdversary(r)
		gpu, _, err := TransformedSources(orig)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, orig)
		}
		m := 5 + r.Intn(8)
		words := 1024
		if seed%6 == 5 {
			words = n*m - 2
		}
		mkArgs := func() []Arg {
			fr := rand.New(rand.NewSource(int64(seed) * 17))
			mk := func() []byte { return floatBuf(words, func(int) float32 { return float32(fr.Float64()*4 - 2) }) }
			return []Arg{BufArg(make([]byte, 4*2*n)), BufArg(mk()), BufArg(mk()), IntArg(n), IntArg(int64(m)), FloatArg(0.75)}
		}
		diffFiveWay(t, fmt.Sprintf("genLoopAdversary seed %d", seed), orig, "red", NewNDRange1D(n, 8), mkArgs)
		diffFiveWay(t, fmt.Sprintf("genLoopAdversary seed %d (gpu)", seed), gpu, "red", NewNDRange1D(n, 8),
			func() []Arg { return append(mkArgs(), abort()...) })
	}
	adv := BackendSnapshot()
	if adv.WGLoopBatchesDyn == after.WGLoopBatchesDyn || adv.WGLoopNonuniformDyn == after.WGLoopNonuniformDyn {
		t.Errorf("adversarial loops: %d whole-loop dispatches, %d failed prechecks; want both",
			adv.WGLoopBatchesDyn-after.WGLoopBatchesDyn, adv.WGLoopNonuniformDyn-after.WGLoopNonuniformDyn)
	}
	for r := WGLoopRejNone; int(r) < wgLoopRejCount; r++ {
		if r != WGLoopRejNoCycle && adv.WGLoopVerdicts[r] == after.WGLoopVerdicts[r] {
			t.Errorf("no adversarial loop compiled with loop verdict %v; generator drifted", r)
		}
	}
}

// genLoopAdversary returns a multiply-accumulate kernel named "red" over
// GenReduction's signature whose loop is picked to stress the wg engine's
// loop closure: starts and bounds that vary from lane to lane (the
// uniformity precheck fails and the lanes leave at different trips), trip
// counts 0 and 1, a second induction variable p used only in an index, an
// index whose two factors both count (k * q), and, under an int-only outer
// loop the control skeleton swallows, indices that read the outer counter
// or the inner one the skeleton resets. Every index stays below 1024.
func genLoopAdversary(r *rand.Rand) string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	nested := r.Intn(4) == 0
	idx := []string{"i * m + k", "k * n + i", "k", "p", "k * q + i", "q * n + i"}
	if nested {
		idx = append(idx, "o * m + k", "o")
	}
	var b strings.Builder
	b.WriteString("__kernel void red(__global float* out, __global float* a, __global float* b, int n, int m, float alpha) {\n")
	b.WriteString("    int i = get_global_id(0);\n    int l = get_local_id(0);\n")
	b.WriteString("    if (i < n) {\n        float acc = 0.5f;\n")
	fmt.Fprintf(&b, "        int p = %s;\n        int q = 1;\n", pick("i", "l", "0"))
	if nested {
		b.WriteString("        for (int o = 0; o < 2; o++) {\n")
	}
	fmt.Fprintf(&b, "        for (int k = %s; k < %s; k++) {\n", pick("0", "0", "l", "l % 3"), pick("m", "m", "l + 3", "0", "1", "min(m, l + 2)"))
	for t, nt := 0, 1+r.Intn(2); t < nt; t++ {
		var fs []string
		if r.Intn(2) == 0 {
			fs = append(fs, "alpha")
		}
		for f, nf := 0, 1+r.Intn(2); f < nf; f++ {
			fs = append(fs, fmt.Sprintf("%s[%s]", pick("a", "b"), idx[r.Intn(len(idx))]))
		}
		fmt.Fprintf(&b, "            acc += %s;\n", strings.Join(fs, " * "))
	}
	if r.Intn(2) == 0 {
		b.WriteString("            p = p + 2;\n")
	}
	if r.Intn(2) == 0 {
		b.WriteString("            q = q + 1;\n")
	}
	b.WriteString("        }\n")
	if nested {
		b.WriteString("        }\n")
	}
	b.WriteString("        out[i] = acc;\n        out[n + i] = (float)(p + q);\n    }\n}\n")
	return b.String()
}
