package analysis_test

import (
	"testing"

	"fluidicl/internal/analysis"
)

// taintKernel wraps one body in the signature every row of the taint table
// shares: g is the global id.
func taintKernel(body string) string {
	return `__kernel void f(__global float* out, __global float* in, __global int* idx, int n) {
    int g = get_global_id(0);
` + body + `
}`
}

// TestDivergenceTaint pins the dep bit, the walker's one uniformity fact:
// which barriers sit under control that work-items of one group may
// disagree on, and which stores the race lint reports.
func TestDivergenceTaint(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		divergent  bool
	}{
		{"if on gid", `if (g < n) { barrier(CLK_LOCAL_MEM_FENCE); }`, true},
		{"if on lid", `if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }`, true},
		{"if on group id", `if (get_group_id(0) < n) { barrier(CLK_LOCAL_MEM_FENCE); }`, false},
		{"if on a load at a uniform index", `if (in[0] > 0.0f) { barrier(CLK_LOCAL_MEM_FENCE); }`, false},
		{"if on a load at a gid index", `if (in[g] > 0.0f) { barrier(CLK_LOCAL_MEM_FENCE); }`, true},
		{"after a gid-conditioned return", `if (g >= n) { return; }
    barrier(CLK_LOCAL_MEM_FENCE);`, true},
		{"after a uniform return", `if (n < 4) { return; }
    barrier(CLK_LOCAL_MEM_FENCE);`, false},
		{"loop with a gid bound", `for (int k = 0; k < g; k++) { barrier(CLK_LOCAL_MEM_FENCE); }`, true},
		{"uniform loop", `for (int k = 0; k < n; k++) { barrier(CLK_LOCAL_MEM_FENCE); }`, false},
		// The first trip reaches the barrier with the whole group; the
		// break lets items leave at different trips, so later ones do not.
		{"barrier, then a break on gid", `for (int k = 0; k < n; k++) {
        barrier(CLK_LOCAL_MEM_FENCE);
        if (k == g) { break; }
    }`, true},
		{"a carried gid read by the next trip", `int c = 0;
    for (int k = 0; k < n; k++) {
        if (c > 2) { barrier(CLK_LOCAL_MEM_FENCE); }
        c = g;
    }`, true},
		{"while on gid", `int k = 0;
    while (k < g) { barrier(CLK_LOCAL_MEM_FENCE); k++; }`, true},
		{"a float assigned under a gid if", `float v = 0.0f;
    if (g < n) { v = 1.0f; }
    if (v > 0.5f) { barrier(CLK_LOCAL_MEM_FENCE); }`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps, err := analysis.AnalyzeSource(taintKernel(tc.body), "taint.cl")
			if err != nil {
				t.Fatal(err)
			}
			ks := ps.Kernels["f"]
			if len(ks.Barriers) != 1 || ks.Barriers[0].Divergent != tc.divergent {
				t.Fatalf("want one barrier, divergent=%v\n%s", tc.divergent, ks)
			}
		})
	}

	for _, tc := range []struct {
		name, body string
		races      int
	}{
		{"constant index", `out[0] = 1.0f;`, 1},
		{"parameter index", `out[n] = 1.0f;`, 1},
		{"group-id index", `out[get_group_id(0)] = 1.0f;`, 1},
		{"uniform IV index", `for (int k = 0; k < n; k++) { out[k] = 1.0f; }`, 1},
		{"gid index", `out[g] = 1.0f;`, 0},
		{"guarded store", `if (g < n) { out[0] = 1.0f; }`, 0},
		{"indirect store", `out[idx[0]] = 1.0f;`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps, err := analysis.AnalyzeSource(taintKernel(tc.body), "taint.cl")
			if err != nil {
				t.Fatal(err)
			}
			if ks := ps.Kernels["f"]; ks.Races != tc.races {
				t.Fatalf("races = %d, want %d\n%s", ks.Races, tc.races, ks)
			}
		})
	}
}
