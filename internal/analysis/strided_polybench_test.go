package analysis_test

import (
	"testing"

	"fluidicl/internal/analysis"
	"fluidicl/internal/polybench"
)

func analyzePolybench(t *testing.T, name string) *analysis.ProgramSummary {
	t.Helper()
	for _, ns := range polybench.Sources() {
		if ns.Name != name {
			continue
		}
		ps, err := analysis.AnalyzeSource(ns.Src, ns.Name+".cl")
		if err != nil {
			t.Fatalf("%s: %v", ns.Name, err)
		}
		return ps
	}
	t.Fatalf("no polybench source %q", name)
	return nil
}

// TestCorrKernel4Strided pins the tentpole's flagship result: corr_kernel4
// scatters into a triangular matrix (diagonal point, row run, strided
// column) — far outside the single-affine-form certificate — yet its strided
// summary is complete and proves per-work-group store disjointness at the
// quick experiment scale, which is what lets the wg backend run it in
// whole-group sets.
func TestCorrKernel4Strided(t *testing.T) {
	ps := analyzePolybench(t, "CORR")
	ks := ps.Kernels["corr_kernel4"]
	if ks == nil {
		t.Fatal("no corr_kernel4 summary")
	}
	symmat := ks.Arg("symmat")
	if symmat == nil {
		t.Fatal("no symmat arg")
	}
	if !symmat.WritesComplete() {
		t.Fatalf("symmat writes not fully summarized: %+v", symmat.Rejects)
	}
	stores := 0
	for _, r := range symmat.Refs {
		if r.Store {
			stores++
			if r.MayOnly {
				t.Fatalf("symmat store is may-only: %s", r.String(ks.Params))
			}
		}
	}
	if stores != 3 {
		t.Fatalf("want 3 symmat store refs (diagonal, row, column), got %d\n%s",
			stores, ks.String())
	}

	// Quick experiment scale: m = n = 64, local size 8 over ceil(m/8) groups.
	m := int64(64)
	sh := analysis.LaunchShape{
		Dims:      1,
		Local:     [3]int64{8, 1, 1},
		NumGroups: [3]int64{(m + 7) / 8, 1, 1},
		Count:     [3]int64{(m + 7) / 8, 1, 1},
	}
	params := []int64{0, 0, m, m} // (data, symmat, m, n)
	if v := ks.CertifyGroupDisjoint(sh, params, 1<<24); !v.OK {
		t.Fatalf("corr_kernel4 quick shape: want certified, got %q at %v", v.Reason, v.Pos)
	}
}

// TestPolybenchStridedCompleteness checks that every written __global
// argument of every shipped kernel either has fully summarized stores or
// carries a machine-readable reject naming the reason — the "explain every
// precision loss" contract.
func TestPolybenchStridedCompleteness(t *testing.T) {
	for _, ns := range polybench.Sources() {
		ps, err := analysis.AnalyzeSource(ns.Src, ns.Name+".cl")
		if err != nil {
			t.Fatalf("%s: %v", ns.Name, err)
		}
		for _, name := range ps.Order {
			ks := ps.Kernels[name]
			for i := range ks.Args {
				a := &ks.Args[i]
				if !a.Written {
					continue
				}
				hasStore := false
				for _, r := range a.Refs {
					if r.Store {
						hasStore = true
					}
				}
				if !hasStore && a.WritesComplete() {
					t.Errorf("%s/%s arg %s: written but no store ref and no reject",
						ns.Name, name, a.Name)
				}
				for _, rej := range a.Rejects {
					if rej.Reason == "" {
						t.Errorf("%s/%s arg %s: reject without a reason", ns.Name, name, a.Name)
					}
				}
			}
		}
	}
}
