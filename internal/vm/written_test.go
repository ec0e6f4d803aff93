package vm_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/passes"
	"fluidicl/internal/polybench"
	"fluidicl/internal/vm"
	"fluidicl/internal/vmref"
)

// TestStoresGoThroughWrittenParams pins the invariant ocl's shared device
// storage rests on: every global store the VM compiles writes through a
// parameter clc's access analysis marks Written. ocl lets a launch bind every
// other buffer argument to a source other buffers share — a host write's
// handed-over source, which the host shadow and every device read — so a
// kernel that broke it would write into that source. Covered: every shipped Polybench source and CPU variant, as
// written and as the cooperative runtimes transform them (TransformGPU,
// TransformCPUWithSummary); the merge kernel; examples/*.cl; and 2 000
// generated kernels.
func TestStoresGoThroughWrittenParams(t *testing.T) {
	stores := 0
	check := func(label, src string) {
		t.Helper()
		prog, err := clc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		info, err := clc.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for name, ki := range info.Kernels {
			k, err := vm.Compile(ki)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, name, err)
			}
			for _, slot := range k.StoreParams() {
				stores++
				p := k.Params[slot].Name
				if acc := ki.ParamAccess[p]; acc == nil || !acc.Written {
					t.Errorf("%s: %s stores through %q, which the analysis does not mark written", label, name, p)
				}
			}
		}
	}
	transformed := func(label, src string) {
		t.Helper()
		check(label, src)
		gpu, cpu, err := vm.TransformedSources(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label+" (GPU variant)", gpu)
		check(label+" (CPU variant)", cpu)
	}

	for _, s := range polybench.Sources() {
		transformed(s.Name, s.Src)
	}
	for _, b := range polybench.All() {
		for _, v := range b.App.Variants {
			transformed(b.Name+" variant "+v.Name, v.Source)
		}
	}
	check("merge kernel", passes.MergeKernelSource)
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.cl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples/*/*.cl found (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		transformed(f, string(src))
	}
	for seed := 0; seed < 2000; seed++ {
		check(fmt.Sprintf("generated seed %d", seed), vmref.GenProgram(rand.New(rand.NewSource(int64(seed)))))
	}
	if stores == 0 {
		t.Fatal("no global store was checked")
	}
}
