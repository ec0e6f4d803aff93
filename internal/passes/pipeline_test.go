package passes_test

import (
	"reflect"
	"testing"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
	"fluidicl/internal/polybench"
)

// TestTransformCached: Transform runs the pipeline once per (source,
// options) — a repeat gets the first call's Program, and UnrollFactor 0
// shares its default 4's entry — and keeps no failure.
func TestTransformCached(t *testing.T) {
	src := polybench.Sources()[0].Src
	opt := passes.GPUOptions{AbortInLoops: true, Unroll: true}
	p1, err := passes.Transform(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := passes.Transform(src, opt)
	if err != nil || p1 != p2 {
		t.Fatalf("second transform of one (source, options): err %v, same Program %v", err, p1 == p2)
	}
	opt.UnrollFactor = 4
	if p4, err := passes.Transform(src, opt); err != nil || p4 != p1 {
		t.Fatalf("UnrollFactor 4: err %v, same Program as 0 %v", err, p4 == p1)
	}
	opt.UnrollFactor = 8
	if p8, err := passes.Transform(src, opt); err != nil || p8 == p1 || p8.GPUSrc == p1.GPUSrc {
		t.Fatalf("UnrollFactor 8 shares factor 4's entry (err %v)", err)
	}
	bad := "__kernel void k(__global float* a) { a[0] = ; }"
	for i := 0; i < 2; i++ {
		if p, err := passes.Transform(bad, opt); err == nil || p != nil {
			t.Fatalf("bad source, call %d: %v, %v", i, p, err)
		}
	}
}

// TestTransformStageByStage: every shipped source's Program, the merge
// kernel's included, is what the pipeline's stages give one at a time —
// parse, Check, AnalyzeProgram of the checked parse, then each transform on
// a fresh parse and Print — under each pass configuration the runtime's
// options select. The merge kernel's fcl_ parameters fail both the same way.
func TestTransformStageByStage(t *testing.T) {
	srcs := append(polybench.Sources(), polybench.NamedSource{Name: "merge", Src: passes.MergeKernelSource})
	opts := []passes.GPUOptions{
		{AbortInLoops: true, Unroll: true},
		{AbortInLoops: true},
		{},
		{AbortInLoops: true, Unroll: true, UnrollFactor: 2},
	}
	for _, s := range srcs {
		for _, opt := range opts {
			got, err := passes.Transform(s.Src, opt)
			want, wantErr := stages(s.Src, opt)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s %+v: error %v, stage by stage %v", s.Name, opt, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: Program differs from the stages'", s.Name, opt)
			}
		}
	}
}

// stages is the pipeline written out one stage at a time.
func stages(src string, opt passes.GPUOptions) (*passes.Program, error) {
	orig, err := clc.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := clc.Check(orig)
	if err != nil {
		return nil, err
	}
	sum := analysis.AnalyzeProgram(orig, "")
	gpu, _ := clc.Parse(src)
	for _, k := range gpu.Kernels {
		if _, err := passes.TransformGPU(k, opt); err != nil {
			return nil, err
		}
	}
	cpu, _ := clc.Parse(src)
	for _, k := range cpu.Kernels {
		if err := passes.TransformCPUWithSummary(k, sum.Kernels[k.Name]); err != nil {
			return nil, err
		}
	}
	guarded, _ := clc.Parse(src)
	for _, k := range guarded.Kernels {
		if err := passes.TransformCPU(k); err != nil {
			return nil, err
		}
	}
	return &passes.Program{Info: info, Summary: sum,
		GPUSrc: clc.Print(gpu), CPUSrc: clc.Print(cpu), GuardedSrc: clc.Print(guarded)}, nil
}
