package vm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"fluidicl/internal/passes"
)

// Tests for the reduction-chain jam's admission checks (wgfuse.go): bodies
// whose opcodes spell a reduction chain but whose operands do not must stay
// per-step, say why, and still compute what the interpreter computes.

// redTestSrc has a two-term seeded body with a direct second index. After
// TransformGPU its loop body is, relative to the block start,
//
//	 0     fmov  p, alpha
//	 1..5  aff; 6 ldgf v; 7 fmul p, p, v
//	 8     imov (direct index); 9 ldgf v; 10 fmul p, p, v; 11 fadd acc, acc, p
//	12..23 the second term, same layout
//	24..27 inc k; 28..31 inc fcl_u0; 32 jmp
const redTestSrc = `
__kernel void red2(__global float* A, __global float* B, __global float* C, float alpha, int m, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float acc = C[i];
        for (int k = 0; k < m; k++) {
            acc += alpha * A[i*m + k] * B[k];
            acc += alpha * B[i*m + k] * A[k];
        }
        C[i] = acc;
    }
}
`

// recompiled clones k with mutate applied to its bytecode and register
// counts, then re-runs the wg lowering on the result.
func recompiled(k *Kernel, mutate func(k2 *Kernel)) *Kernel {
	k2 := &Kernel{
		Name: k.Name, Params: k.Params, Code: append([]Instr(nil), k.Code...),
		NumI: k.NumI, NumF: k.NumF, NumMemOps: k.NumMemOps, Info: k.Info, sum: k.sum,
	}
	mutate(k2)
	k2.buildWG()
	return k2
}

func TestWGFuseMalformedWiringFallsBack(t *testing.T) {
	gpuSrc, _, err := TransformedSources(redTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := MustCompile(gpuSrc, "red2")
	bodies := k.ReductionBodies()
	if len(bodies) != 1 {
		t.Fatalf("%d reduction bodies, want 1\n%s", len(bodies), k.Disasm())
	}
	b := bodies[0]
	code := k.Code
	for off, op := range map[int]Op{0: opFMOV, 6: opLDGF, 7: opFMUL, 8: opIMOV, 9: opLDGF, 10: opFMUL, 11: opFADD,
		12: opFMOV, 24: opIMOV, 27: opIMOV, 28: opIMOV, 31: opIMOV, 32: opJMP} {
		if code[b+off].Op != op {
			t.Fatalf("body layout drifted: op %v at +%d\n%s", code[b+off].Op, off, k.Disasm())
		}
	}
	seed, acc, prod, loaded := code[b].B, code[b+11].A, code[b+7].A, code[b+6].A
	ctr := code[b+27].A
	verdict := func(k2 *Kernel) string {
		for _, s := range k2.wg.fused {
			if s.Start == b {
				return "fused"
			}
		}
		for _, s := range k2.wg.nofuse {
			if s.Start == b {
				return s.Name
			}
		}
		return "no verdict"
	}
	if got := verdict(k); got != "fused" {
		t.Fatalf("unmutated body: %s, want fused\n%s", got, k.Disasm())
	}

	cases := []struct {
		name   string
		mutate func(k2 *Kernel)
		want   string
		noExec bool
	}{
		{"seed redefined mid-term", func(k2 *Kernel) {
			k2.Code[b+6].A, k2.Code[b+7].C = seed, seed
		}, "wiring @" + strconv.Itoa(b+6), false},
		{"accumulator aliased with a scratch", func(k2 *Kernel) {
			k2.Code[b+9].A, k2.Code[b+10].C = acc, acc
		}, "wiring @" + strconv.Itoa(b+11), false},
		{"running product clobbered by a load", func(k2 *Kernel) {
			k2.Code[b+9].A, k2.Code[b+10].C = prod, prod
		}, "wiring @" + strconv.Itoa(b+9), false},
		{"scratch index read by a later factor", func(k2 *Kernel) {
			k2.Code[b+8].B = k2.Code[b+5].A
		}, "wiring @" + strconv.Itoa(b+8), false},
		{"counter read by a later inc", func(k2 *Kernel) {
			k2.Code[b+28].B, k2.Code[b+31].A = ctr, ctr
		}, "wiring @" + strconv.Itoa(b+28), false},
		{"counter read by a later factor", func(k2 *Kernel) {
			// term, inc k, term, inc fcl_u0: the grammar wants every inc last.
			body := append([]Instr(nil), k2.Code[b:b+32]...)
			copy(k2.Code[b+12:], body[24:28])
			copy(k2.Code[b+16:], body[12:24])
		}, "shape", false},
		{"scratch live at the block exit", func(k2 *Kernel) {
			for pc := b + 33; pc < len(k2.Code); pc++ {
				if in := &k2.Code[pc]; in.Op == opFMOV && in.B == acc {
					in.B = loaded // the store after the loop now reads the load scratch
					return
				}
			}
			t.Fatal("no read of the accumulator after the loop")
		}, "live-scratch f" + strconv.Itoa(int(loaded)), false},
		{"register file wider than the liveness masks", func(k2 *Kernel) {
			k2.NumI = 65
		}, "wide-regs", false},
		{"conditional terminator", func(k2 *Kernel) {
			k2.Code[b+32] = Instr{Op: opJNZ, A: k2.Code[b+32].A, B: ctr}
		}, "cond-terminator", true},
	}
	const n, m = 16, 6
	nd := NewNDRange1D(n, 8)
	mkArgs := func() []Arg {
		mk := func(scale float32) []byte {
			return floatBuf(n*m+m, func(i int) float32 { return scale * float32(i%11-5) })
		}
		return append([]Arg{BufArg(mk(0.5)), BufArg(mk(0.25)), BufArg(mk(1)), FloatArg(1.5), IntArg(m), IntArg(n)},
			GPUAbortArgs(1, passes.NoCPUWork)...)
	}
	for _, tc := range cases {
		k2 := recompiled(k, tc.mutate)
		if got := verdict(k2); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
		if !strings.Contains(k2.Disasm(), "; wg.nofuse ("+tc.want+")") {
			t.Errorf("%s: disassembly lacks the wg.nofuse (%s) annotation", tc.name, tc.want)
		}
		if !tc.noExec {
			t.Run(tc.name, func(t *testing.T) { runWGParity(t, k2, nd, mkArgs) })
		}
	}
}

// TestWGFuseCap: chains beyond the plan's fixed capacity stay per-step
// under their own reason, in either dimension.
func TestWGFuseCap(t *testing.T) {
	term := "acc += A[i*m + k] * B[k];"
	for name, body := range map[string]string{
		"five terms":   strings.Repeat(term, wgMaxTerms+1),
		"four factors": "acc += A[i*m + k] * B[k] * A[k] * B[i*m + k];",
	} {
		k := MustCompile(`__kernel void f(__global float* A, __global float* B, __global float* C, int m) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < m; k++) { `+body+` }
    C[i] = acc;
}`, "f")
		bodies := k.ReductionBodies()
		if len(bodies) != 1 {
			t.Fatalf("%s: %d reduction bodies, want 1", name, len(bodies))
		}
		var got string
		for _, s := range k.wg.nofuse {
			if s.Start == bodies[0] {
				got = s.Name
			}
		}
		if got != "cap" {
			t.Errorf("%s: verdict %q, want cap\n%s", name, got, k.Disasm())
		}
	}
}

// TestWGFuseDynamicAccounting pins the dynamic fusion counters, which are
// exact functions of the input: for one launch of the GPU-transformed red2
// kernel the fused count is the 32-instruction loop body times m
// iterations times n work-items plus the 62 control-skeleton instructions
// the loop closure walks per work-item (7 around each trip, 17 more for the
// abort check after the fourth, 3 to leave), the per-step count everything
// else, and the total does not depend on whether fusion is on.
func TestWGFuseDynamicAccounting(t *testing.T) {
	gpuSrc, _, err := TransformedSources(redTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := MustCompile(gpuSrc, "red2")
	const n, m = 16, 6
	nd := NewNDRange1D(n, 8)
	run := func(fuse bool) (fused, stepped int64) {
		defer SetWGFuse(true)
		SetWGFuse(fuse)
		buf := func() Arg { return BufArg(make([]byte, 4*n*m)) }
		args := append([]Arg{buf(), buf(), buf(), FloatArg(1.5), IntArg(m), IntArg(n)}, GPUAbortArgs(1, passes.NoCPUWork)...)
		before := BackendSnapshot()
		for g := 0; g < nd.LaunchGroups(); g++ {
			if _, err := k.ExecWorkGroup(nd, nd.GroupAt(g), args, ExecOpts{Backend: BackendWG}); err != nil {
				t.Fatal(err)
			}
		}
		after := BackendSnapshot()
		return after.WGFusedInstrsDyn - before.WGFusedInstrsDyn, after.WGStepInstrsDyn - before.WGStepInstrsDyn
	}
	const wantFused, wantStepped = (32*m + 62) * n, 1984 - 62*n
	if f, s := run(true); f != wantFused || s != wantStepped {
		t.Errorf("fused run: wg_fused_instrs_dyn=%d wg_step_instrs_dyn=%d, want %d and %d", f, s, wantFused, wantStepped)
	}
	if f, s := run(false); f != 0 || s != wantFused+wantStepped {
		t.Errorf("unfused run: wg_fused_instrs_dyn=%d wg_step_instrs_dyn=%d, want 0 and %d", f, s, wantFused+wantStepped)
	}
}

// leafSig opens the lane-block rows of TestWGLaneBlockLeaves: out holds two
// accumulators per work-item, x and y n*m + 3 words each.
const leafSig = "__kernel void t(__global float* out, __global float* x, __global float* y, int n, int m, float alpha) {\n" +
	"    int g = get_global_id(0);\n    int l = get_local_id(0);\n    float acc = out[g];\n    float sum = 0.5f;\n"

// TestWGLaneBlockLeaves holds each lane-block leaf (wgReduce.leaf), and the
// blocks no leaf takes, to the interpreter and to the per-step path: bytes
// and full Stats, and the error text, which is all a trap leaves comparable.
// Each row runs with finite inputs, where it also requires the leaf it names
// to run (wgPerLane: a pair accumulator of a whole block ran per lane), and
// with NaNs of distinct payloads in both factors, meeting in some products,
// where every engine must store the one canonical NaN (storeBits) and the
// leaf still runs.
func TestWGLaneBlockLeaves(t *testing.T) {
	const n, m = 24, 7
	// 1 when l is 3, else 0: a lane-dependent value with no branch, so the
	// phase stays uniform.
	const lane3 = "    int d = 1 - min((l - 3) * (l - 3), 1);\n"
	rows := []struct {
		name, pre, body string
		local, leaf     int
		err             string
	}{
		{"a: first factor uniform, seeded (SYRK)", "", "acc += alpha * x[k] * y[g * m + k];", 8, wgLeafA, ""},
		{"a: first factor uniform, contiguous second (BICG kernel 2)", "", "acc += x[k] * y[k * n + g];", 8, wgLeafA, ""},
		{"b: second factor uniform (BICG kernel 1)", "", "acc += y[g * m + k] * x[k];", 8, wgLeafB, ""},
		{"b: two accumulators (GESUMMV)", "", "acc += y[g * m + k] * x[k]; sum += x[g * m + k] * x[k];", 8, wgLeafB, ""},
		{"c: both factors contiguous (corr_kernel4)", "", "acc += x[k * n + g] * y[k * n + g];", 8, wgLeafC, ""},
		{"d: two terms, first factors uniform (SYR2K)", "", "acc += alpha * x[k] * y[g * m + k]; acc += alpha * y[k] * x[g * m + k];", 8, wgLeafD, ""},
		{"7 of 8 lanes share the first factor", lane3, "acc += alpha * x[d * m + k] * y[g * m + k];", 8, wgPerLane, ""},
		{"lane-varying strides", "", "acc += x[k] * y[k * l + g];", 8, wgPerLane, ""},
		{"7 of 8 lanes share the second factor's stride", lane3 + "    int q = 1 + d;\n", "acc += x[k] * y[k * q + g];", 8, wgPerLane, ""},
		{"per-lane seeds", "    float s = alpha + (float)l;\n", "acc += s * x[k] * y[g * m + k];", 8, wgPerLane, ""},
		{"two terms whose second factors differ in index", "    int r = m - 2;\n", "acc += alpha * x[k] * y[g * m + k]; acc += alpha * y[k] * x[g * r + k];", 8, wgPerLane, ""},
		{"local size 12: a block and four tail lanes", "", "acc += alpha * x[k] * y[g * m + k];", 12, wgLeafA, ""},
		// Lane 5 of group 0 reads row n of y, whose words end after trip 2;
		// lanes 6 and 7 stay inside.
		{"trap in lane 5 of a block", "    int r = g + (1 - min((l - 5) * (l - 5), 1)) * (n - 5);\n",
			"acc += alpha * x[k] * y[r * m + k];", 8, -1, "load y: index 171 out of range"},
	}
	defer SetWGFuse(true)
	for _, row := range rows {
		src := leafSig + row.pre + "    for (int k = 0; k < m; k++) { " + row.body + " }\n    out[g] = acc;\n    out[n + g] = sum;\n}"
		k := MustCompile(src, "t")
		if len(k.ReductionBodies()) != 1 || len(k.wg.fused) != 1 {
			t.Fatalf("%s: the body did not fuse\n%s", row.name, k.Disasm())
		}
		nd := NewNDRange1D(n, row.local)
		for _, nan := range []bool{false, true} {
			mkArgs := func() []Arg {
				word := func(i int, bits uint32, every int) float32 {
					if nan && i%every == 0 {
						return math.Float32frombits(bits | uint32(i))
					}
					return float32(i%13-6) * 0.375
				}
				return []Arg{
					BufArg(floatBuf(2*n, func(i int) float32 { return float32(i) * 0.25 })),
					BufArg(floatBuf(n*m+3, func(i int) float32 { return word(i, 0x7fc00000, 3) })),
					BufArg(floatBuf(n*m+3, func(i int) float32 { return word(i, 0xffa00000, 5) })),
					IntArg(n), IntArg(m), FloatArg(1.25)}
			}
			label := fmt.Sprintf("%s (NaNs %v)", row.name, nan)
			var bufs [3]string
			var sts [3]Stats
			var errs [3]string
			var runs [wgPerLane + 1]int64
			for i, e := range []struct {
				be   Backend
				fuse bool
			}{{BackendInterp, true}, {BackendWG, true}, {BackendWG, false}} {
				SetWGFuse(e.fuse)
				args := mkArgs()
				before := LeafRuns()
				st, err := k.ExecLaunch(nd, args, ExecOpts{Backend: e.be})
				if i == 1 {
					after := LeafRuns()
					for j := range runs {
						runs[j] = after[j] - before[j]
					}
				}
				for _, a := range args[:3] {
					bufs[i] += string(a.Buf)
				}
				sts[i], errs[i] = st, fmt.Sprint(err)
			}
			for i, how := range []string{"wg", "wg per-step"} {
				if errs[i+1] != errs[0] {
					t.Errorf("%s: %s error %s, interp %s", label, how, errs[i+1], errs[0])
				}
				if row.err != "" {
					continue // items before the trap ran in the interpreter only
				}
				if bufs[i+1] != bufs[0] {
					t.Errorf("%s: %s bytes differ from the interpreter's", label, how)
				}
				if sts[i+1] != sts[0] {
					t.Errorf("%s: %s Stats diverge\ninterp: %+v\n%s: %+v", label, how, sts[0], how, sts[i+1])
				}
			}
			if row.err != "" {
				if !strings.Contains(errs[0], row.err) {
					t.Errorf("%s: interp error %s, want %q", label, errs[0], row.err)
				}
				continue
			}
			if errs[0] != "<nil>" {
				t.Fatalf("%s: %s", label, errs[0])
			}
			for j, c := range runs {
				if (c > 0) != (j == row.leaf) {
					t.Errorf("%s: pair accumulators of whole blocks per leaf (a, b, c, d, per lane) %v, want only entry %d", label, runs, row.leaf)
					break
				}
			}
		}
	}
}
