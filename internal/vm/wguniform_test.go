package vm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fluidicl/internal/passes"
)

// pcsOf returns the pcs of k's instructions with opcode op.
func pcsOf(k *Kernel, op Op) (pcs []int) {
	for pc, in := range k.Code {
		if in.Op == op {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// TestWGUniformSteps: full-group dispatches run group-uniform steps once
// (wguniform.go). The GPU variant's abort prologue is the case it is for;
// the other kernels put a wrong rule of the analysis where the output shows
// it: a join of a uniform and a per-lane definition, a value that diverged
// before a barrier, a temporary read in a later block, and the trap paths.
func TestWGUniformSteps(t *testing.T) {
	floats := func(n int) []byte { return floatBuf(n, func(i int) float32 { return float32(i%9)*0.75 - 2 }) }

	t.Run("scale GPU variant", func(t *testing.T) {
		gpu, _, err := TransformedSources(`__kernel void scale(__global float* in, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a * in[i];
    }
}`)
		if err != nil {
			t.Fatal(err)
		}
		k := MustCompile(gpu, "scale")
		// The prologue (flattened group id, both status loads, the compare)
		// is pcs 0-27 but the branch at 22. Forwarding (wgForward) makes each
		// ldi of a dimension at 0, 2, 4, 8, 10 and 14 an immediate and reads
		// fcl_kid r1 and the group id r2 where the moves at 20 and 23 copied
		// them, so those eight run no step. The body (30-42) has no uniform
		// step left: n r0 and a f0 are read in place. What a per-lane step, a
		// later block or a branch reads is copied to every lane: the group id
		// r2 and the two branch conditions.
		want := []int{1, 3, 5, 6, 7, 9, 11, 12, 13, 15, 16, 17, 18, 19, 21, 24, 25, 26, 27}
		wantB := []int{17, 21, 27}
		if uni, bcast := k.WGUniformPCs(); !slices.Equal(uni, want) || !slices.Equal(bcast, wantB) {
			t.Fatalf("uniform pcs %v, broadcast %v; want %v, %v\n%s", uni, bcast, want, wantB, k.Disasm())
		}
		// The body's two blocks keep gid, imov r3,r4 and ilt r4,r4,r0, then
		// ldgf, fmul f1,f0,f2 and stgf: twelve instructions, six steps.
		blocks, _ := k.WGBlockSteps()
		for _, b := range blocks {
			if (b[0] == 30 || b[0] == 37) && b[1] != 3 {
				t.Errorf("block @%d runs %d steps, want 3", b[0], b[1])
			}
		}
		// 112 work-items in groups of 16, n = 100: the last group splits at
		// i < n. The CPU has done no group, or flattened groups 4 and up,
		// which return at the check.
		for _, abort := range [][]Arg{GPUAbortArgs(3, passes.NoCPUWork), GPUAbortArgs(3, 4)} {
			if err := runTrapParity(t, k, NewNDRange1D(112, 16), func() []Arg {
				return append([]Arg{BufArg(floats(112)), BufArg(make([]byte, 4*112)), FloatArg(1.5), IntArg(100)}, abort...)
			}, true); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("join of a uniform and a per-lane definition", func(t *testing.T) {
		k := MustCompile(`__kernel void t(__global int* out, int p) {
    int g = get_global_id(0);
    int x = 0;
    if (p > 0) {
        x = get_group_id(0) * 100;
    } else {
        x = g;
    }
    out[g] = x + 1;
}`, "t")
		for _, p := range []int64{1, 0} {
			if err := runTrapParity(t, k, NewNDRange1D(32, 16), func() []Arg {
				return []Arg{BufArg(make([]byte, 4*32)), IntArg(p)}
			}, true); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("diverged before a barrier", func(t *testing.T) {
		// Both definitions of x are uniform and the phase after the barrier
		// never splits, but the lanes took different arms before it.
		k := MustCompile(`__kernel void t(__global int* out) {
    int g = get_global_id(0);
    int x = 5;
    if (get_local_id(0) < 3) {
        x = 7;
    }
    barrier(CLK_GLOBAL_MEM_FENCE);
    out[g] = x;
}`, "t")
		if err := runTrapParity(t, k, NewNDRange1D(32, 16), func() []Arg {
			return []Arg{BufArg(make([]byte, 4*32))}
		}, true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("uniform temporary read in a later block", func(t *testing.T) {
		// Each arm of the ternary moves a uniform value into the result
		// temporary; the per-lane add after the join reads it.
		k := MustCompile(`__kernel void t(__global int* out, int p) {
    int g = get_global_id(0);
    out[g] = g + (p > 0 ? get_group_id(0) : p * 3);
}`, "t")
		for _, p := range []int64{1, -1} {
			if err := runTrapParity(t, k, NewNDRange1D(32, 16), func() []Arg {
				return []Arg{BufArg(make([]byte, 4*32)), IntArg(p)}
			}, true); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("uniform load in every phase", func(t *testing.T) {
		// A parameter is uniform after a barrier too (no instruction writes
		// its register), so a[p] logs a broadcast run in each phase; the log,
		// and where each site's latest entry is, start empty at every barrier.
		k := MustCompile(`__kernel void t(__global float* a, __global float* out, int p) {
    int g = get_global_id(0);
    for (int k = 0; k < 3; k++) {
        out[g] = out[g] + a[p] * (float)k;
        barrier(CLK_GLOBAL_MEM_FENCE);
    }
}`, "t")
		uni, _ := k.WGUniformPCs()
		if pcs := pcsOf(k, opLDGF); len(pcs) != 2 || !slices.Contains(uni, pcs[1]) {
			t.Fatalf("the load of a[p] at %v is not a uniform step (uniform: %v)\n%s", pcs, uni, k.Disasm())
		}
		if err := runTrapParity(t, k, NewNDRange1D(32, 16), func() []Arg {
			return []Arg{BufArg(floats(8)), BufArg(floats(32)), IntArg(2)}
		}, true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("uniform traps", func(t *testing.T) {
		// A store runs first, so the rollback has something to undo.
		k := MustCompile(`__kernel void t(__global float* a, __global float* out, int p, int q) {
    int g = get_global_id(0);
    out[g] = 1.0f;
    int d = p / q;
    out[g] = a[p] + (float)d;
}`, "t")
		uni, _ := k.WGUniformPCs()
		for _, op := range []Op{opIDIV, opLDGF} {
			if pcs := pcsOf(k, op); len(pcs) != 1 || !slices.Contains(uni, pcs[0]) {
				t.Fatalf("%s at %v is not a uniform step (uniform: %v)\n%s", opTab[op].name, pcs, uni, k.Disasm())
			}
		}
		for _, c := range []struct {
			p, q int64
			want string
		}{
			{2, 1, ""},
			{1, 0, "integer division by zero"},
			{8, 1, "load a: index 8 out of range"},
			{-1, 1, "load a: index -1 out of range"},
		} {
			err := runTrapParity(t, k, NewNDRange1D(32, 16), func() []Arg {
				return []Arg{BufArg(floats(8)), BufArg(make([]byte, 4*32)), IntArg(c.p), IntArg(c.q)}
			}, false)
			if got := fmt.Sprint(err); (c.want == "") != (err == nil) || !strings.Contains(got, c.want) {
				t.Errorf("p=%d q=%d: error %v, want %q", c.p, c.q, err, c.want)
			}
		}
	})

	t.Run("full-group store traps mid-set", func(t *testing.T) {
		k := MustCompile(`__kernel void t(__global float* out, int s) {
    int g = get_global_id(0);
    out[g + s] = 2.0f;
}`, "t")
		for _, c := range []struct {
			s    int64
			want string
		}{
			{0, ""},
			{5, "store out: index 16 out of range"},
			{15, "store out: index 16 out of range"},
			{16, "store out: index 16 out of range"},
			{-1, "store out: index -1 out of range"},
		} {
			err := runTrapParity(t, k, NewNDRange1D(16, 16), func() []Arg {
				return []Arg{BufArg(floats(16)), IntArg(c.s)}
			}, true)
			if got := fmt.Sprint(err); (c.want == "") != (err == nil) || !strings.Contains(got, c.want) {
				t.Errorf("s=%d: error %v, want %q", c.s, err, c.want)
			}
		}
	})
}
