package passes

import (
	"sync"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
)

// Program is one source's run through FluidiCL's source pipeline — parse,
// check, analyze, transform, print — with every form the runtimes compile.
// It is immutable, so one Program backs any number of concurrent runs.
type Program struct {
	Info    *clc.ProgramInfo         // the checked original
	Summary *analysis.ProgramSummary // the analyzer's summary of the original
	// GPUSrc is TransformGPU's form: the twin GPU's abort-checked kernels.
	GPUSrc string
	// CPUSrc is TransformCPUWithSummary's form, which every other device of a
	// cooperative run executes: range-guarded unless the summary drops it.
	CPUSrc string
	// GuardedSrc is TransformCPU's form, always range-guarded: the kernels
	// both halves of a static split launch.
	GuardedSrc string
}

type pipelineKey struct {
	src string
	opt GPUOptions
}

// transformed memoizes Transform's successes by (source, options). Harness
// sweeps rebuild the same handful of programs for every table cell; with
// this cache and ocl's compile cache, each distinct pair is parsed,
// transformed and compiled once per process. A failure is not kept: it is
// returned to its caller, who gives up the run.
var transformed = struct {
	sync.Mutex
	m map[pipelineKey]*Program
}{m: map[pipelineKey]*Program{}}

// Transform runs src through the pipeline with the GPU options opt, at most
// once per distinct (src, opt) per process. UnrollFactor 0 means its
// default, 4, and shares that entry.
func Transform(src string, opt GPUOptions) (*Program, error) {
	if opt.UnrollFactor <= 0 {
		opt.UnrollFactor = 4
	}
	key := pipelineKey{src: src, opt: opt}
	transformed.Lock()
	defer transformed.Unlock()
	if p, ok := transformed.m[key]; ok {
		return p, nil
	}
	p, err := transform(src, opt)
	if err != nil {
		return nil, err
	}
	transformed.m[key] = p
	return p, nil
}

func transform(src string, opt GPUOptions) (*Program, error) {
	orig, err := clc.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := clc.Check(orig)
	if err != nil {
		return nil, err
	}
	sum := analysis.AnalyzeProgram(orig, "")
	p := &Program{Info: info, Summary: sum}
	forms := []struct {
		out   *string
		apply func(*clc.Kernel) error
	}{
		{&p.GPUSrc, func(k *clc.Kernel) error { _, err := TransformGPU(k, opt); return err }},
		{&p.CPUSrc, func(k *clc.Kernel) error { return TransformCPUWithSummary(k, sum.Kernels[k.Name]) }},
		{&p.GuardedSrc, TransformCPU},
	}
	for _, f := range forms {
		// The passes rewrite the tree in place, so each form gets a fresh
		// parse; the analysis above read the checked one.
		ast, err := clc.Parse(src)
		if err != nil {
			return nil, err
		}
		for _, k := range ast.Kernels {
			if err := f.apply(k); err != nil {
				return nil, err
			}
		}
		*f.out = clc.Print(ast)
	}
	return p, nil
}
