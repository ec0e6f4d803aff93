package clc_test

import (
	"testing"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/polybench"
	"fluidicl/internal/vm"
)

// FuzzFrontEnd drives the front end on arbitrary text, seeded with every
// kernel source the suite ships: Parse never panics; what it accepts prints
// to text that parses again; and the analyzer, the type checker and the
// bytecode compiler never panic on it (errors are fine). `make fuzz` runs it
// for 5 s; what it finds lands under testdata/fuzz/FuzzFrontEnd.
func FuzzFrontEnd(f *testing.F) {
	for _, s := range polybench.Sources() {
		f.Add(s.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := clc.Parse(src)
		if err != nil {
			return
		}
		printed := clc.Print(prog)
		if _, err := clc.Parse(printed); err != nil {
			t.Fatalf("printed program does not parse: %v\nsource:\n%s\nprinted:\n%s", err, src, printed)
		}
		analysis.AnalyzeProgram(prog, "")
		info, err := clc.Check(prog)
		if err != nil {
			return
		}
		for _, k := range prog.Kernels {
			vm.Compile(info.Kernels[k.Name])
		}
	})
}
