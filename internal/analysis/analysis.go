// Package analysis implements FluidiCL's static kernel analyzer: one
// symbolic walk over each MiniCL kernel AST (strided.go) that produces
// per-kernel buffer access summaries (read-only / write-only / read-write,
// and every index in strided affine form or a structured reject), a
// barrier report (including barriers under work-item-divergent control
// flow, which is undefined behaviour in OpenCL), and lint diagnostics with
// source positions.
//
// The runtime consumes the summaries to make decisions from proofs instead
// of conservatism: passes uses the barrier/race facts for work-group split
// legality and drops redundant subkernel range guards; core uses
// read-only/write-only facts to skip host transfers and scratch copies and
// to narrow the diff+merge range. The VM's dynamic access stats cross-check
// every summary at run time — a dynamic access outside the static summary
// is a hard failure.
package analysis

import (
	"fmt"
	"strings"

	"fluidicl/internal/clc"
)

// ArgSummary is the access summary for one pointer parameter.
type ArgSummary struct {
	Name  string
	Index int // parameter position
	Space clc.AddrSpace
	Elem  clc.ScalarKind

	// Read and Written: some access of that kind exists, as a ref or a
	// reject.
	Read    bool
	Written bool

	// SlotExact: every store index is provably exactly the work-item's
	// flattened global id (get_global_id(0) in a 1-D launch, unit
	// coefficient, zero offset, no induction term). Work-item i writes
	// word i and nothing else, which lets the runtime ship, merge and
	// re-execute the argument's slice by range.
	SlotExact bool

	// Refs are the strided-summary forms of every access the walker could
	// express (strided.go); Rejects name the sites and reasons where it
	// could not. Every access is one or the other, and an argument's writes
	// (reads) are fully summarized iff no Reject with the matching Store
	// flag exists.
	Refs    []StridedRef
	Rejects []Reject
}

// WritesComplete reports that every store to the argument is captured by
// a strided ref.
func (a *ArgSummary) WritesComplete() bool {
	for _, r := range a.Rejects {
		if r.Store {
			return false
		}
	}
	return true
}

// ReadsComplete reports that every load of the argument is captured by a
// strided ref.
func (a *ArgSummary) ReadsComplete() bool {
	for _, r := range a.Rejects {
		if !r.Store {
			return false
		}
	}
	return true
}

// WriteOnly reports a written-never-read argument.
func (a *ArgSummary) WriteOnly() bool { return a.Written && !a.Read }

func (a *ArgSummary) accessString() string {
	switch {
	case a.Read && a.Written:
		return "read-write"
	case a.Written:
		return "write-only"
	case a.Read:
		return "read-only"
	}
	return "unused"
}

// BarrierSite is one barrier() call site.
type BarrierSite struct {
	Pos clc.Pos
	// Divergent: the barrier is control-dependent on get_global_id or
	// get_local_id, so work-items of one group may disagree on reaching it
	// — undefined behaviour in OpenCL.
	Divergent bool
}

// KernelSummary is the analyzer's result for one kernel.
type KernelSummary struct {
	Name     string
	Params   []string     // all parameter names, declaration order
	Args     []ArgSummary // pointer parameters, declaration order
	Barriers []BarrierSite
	Races    int // inter-work-item race diagnostics found
	// LocalStores: the kernel stores to a declared __local array, which
	// the strided footprints do not model.
	LocalStores bool
	Diags       []clc.Diag
}

// Arg returns the summary for the named pointer parameter, or nil.
func (ks *KernelSummary) Arg(name string) *ArgSummary {
	for i := range ks.Args {
		if ks.Args[i].Name == name {
			return &ks.Args[i]
		}
	}
	return nil
}

// ArgIndex returns the position of the named pointer parameter within
// Args, or -1.
func (ks *KernelSummary) ArgIndex(name string) int {
	for i := range ks.Args {
		if ks.Args[i].Name == name {
			return i
		}
	}
	return -1
}

// HasDivergentBarrier reports whether any barrier sits under
// work-item-divergent control flow.
func (ks *KernelSummary) HasDivergentBarrier() bool {
	for _, b := range ks.Barriers {
		if b.Divergent {
			return true
		}
	}
	return false
}

// WritesSlotExactOnly reports whether every written pointer argument is a
// write-only __global buffer with slot-exact stores. Such kernels are
// idempotent under re-execution of any work-item subset: re-running item i
// recomputes exactly word i of each output from unwritten inputs.
func (ks *KernelSummary) WritesSlotExactOnly() bool {
	any := false
	for i := range ks.Args {
		a := &ks.Args[i]
		if !a.Written {
			continue
		}
		any = true
		if a.Read || a.Space != clc.SpaceGlobal || !a.SlotExact {
			return false
		}
	}
	return any
}

// String renders the summary in the golden-file format.
func (ks *KernelSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s:\n", ks.Name)
	for i := range ks.Args {
		a := &ks.Args[i]
		fmt.Fprintf(&b, "  arg %-8s %s %s* %s", a.Name, a.Space, a.Elem, a.accessString())
		if a.SlotExact {
			b.WriteString(" slot-exact")
		}
		b.WriteString("\n")
		for j := range a.Refs {
			fmt.Fprintf(&b, "    ref %s\n", a.Refs[j].String(ks.Params))
		}
		for _, rej := range a.Rejects {
			fmt.Fprintf(&b, "    %s\n", rej.String())
		}
	}
	if ks.LocalStores {
		b.WriteString("  local-stores\n")
	}
	for _, site := range ks.Barriers {
		div := ""
		if site.Divergent {
			div = " DIVERGENT"
		}
		fmt.Fprintf(&b, "  barrier at %s%s\n", site.Pos, div)
	}
	for _, d := range ks.Diags {
		fmt.Fprintf(&b, "  diag %s\n", d)
	}
	return b.String()
}

// ProgramSummary is the analyzer's result for a translation unit.
type ProgramSummary struct {
	Kernels map[string]*KernelSummary
	Order   []string   // kernel names in source order
	Diags   []clc.Diag // all kernels' diagnostics, in source order
}

// AnalyzeSource parses, checks and analyzes MiniCL source. file labels
// diagnostics; the returned error covers parse/sema failures only (lint
// findings are in the summary).
func AnalyzeSource(src, file string) (*ProgramSummary, error) {
	prog, err := clc.Parse(src)
	if err != nil {
		return nil, positionError(err, file)
	}
	if _, err := clc.Check(prog); err != nil {
		return nil, positionError(err, file)
	}
	return AnalyzeProgram(prog, file), nil
}

// positionError attaches the file name to a positioned front-end error.
func positionError(err error, file string) error {
	if e, ok := err.(*clc.Error); ok && file != "" {
		return clc.Diag{File: file, Pos: e.Pos, Msg: e.Msg}
	}
	return err
}

// AnalyzeProgram analyzes a parsed program that clc.Check has accepted:
// the walker reads the types Check attaches to identifiers, and treats an
// assignment to an untyped one as a non-int value, losing its index form.
func AnalyzeProgram(prog *clc.Program, file string) *ProgramSummary {
	ps := &ProgramSummary{Kernels: make(map[string]*KernelSummary)}
	for _, k := range prog.Kernels {
		ks := AnalyzeKernel(k, file)
		ps.Kernels[k.Name] = ks
		ps.Order = append(ps.Order, k.Name)
		ps.Diags = append(ps.Diags, ks.Diags...)
	}
	return ps
}
