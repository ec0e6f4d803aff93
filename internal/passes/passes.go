// Package passes implements FluidiCL's source-to-source kernel
// transformations (paper §5, §6). The paper applied these by hand and noted
// they "can easily be done by a source-to-source compiler"; here they are
// automated as AST-to-AST passes over MiniCL kernels:
//
//   - TransformGPU injects the flattened-group-ID computation and the
//     CPU-completion abort check at work-group entry (Fig. 8), optionally
//     inside innermost loops (§6.4), optionally rearranged so the in-loop
//     check runs once per UnrollFactor iterations (§6.5, Figs. 11-12).
//   - TransformCPU injects the subkernel range guard (Fig. 7): work-groups
//     outside the [fcl_lo, fcl_hi] flattened range return immediately
//     (§5.2's offset-calculation scheme launches rectangular slices that
//     may cover more groups than requested).
//   - MergeKernel is the generated data-merge kernel (Fig. 9) that combines
//     CPU- and GPU-computed buffers on the GPU.
//
// Transform (pipeline.go) is the program's one caller of the first two: it
// parses, checks and analyzes a source and prints each transformed form,
// once per (source, options) per process.
package passes

import (
	"fmt"
	"strings"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
)

// Status-buffer layout (int32 words). The CPU scheduler writes this buffer
// to the GPU after each subkernel's data; the GPU kernel polls it.
const (
	StatusKernelID = 0 // kernel ID the status words refer to
	StatusDoneFrom = 1 // lowest flattened work-group ID completed on CPU
	StatusWords    = 2
)

// NoCPUWork is the DoneFrom value meaning "nothing completed on CPU yet".
const NoCPUWork = int32(1 << 30)

// GPUOptions configures the GPU-side transformation.
type GPUOptions struct {
	// AbortInLoops inserts the abort check inside innermost loops (§6.4).
	AbortInLoops bool
	// Unroll rearranges in-loop checks so they execute once per
	// UnrollFactor iterations (§6.5). Only meaningful with AbortInLoops.
	Unroll bool
	// UnrollFactor is the iteration chunk per in-loop check (default 4).
	UnrollFactor int
}

// Injected parameter names (the fcl_ namespace is reserved).
const (
	ParamStatus = "fcl_status"
	ParamKID    = "fcl_kid"
	ParamLo     = "fcl_lo"
	ParamHi     = "fcl_hi"
)

// GPUExtraArgs and CPUExtraArgs are the number of parameters the transforms
// append to a kernel's signature.
const (
	GPUExtraArgs = 2 // fcl_status, fcl_kid
	CPUExtraArgs = 2 // fcl_lo, fcl_hi
)

// TransformGPU mutates k into its FluidiCL GPU form and reports how many
// in-loop abort checks were inserted. The caller must re-run clc.Check
// before compiling.
func TransformGPU(k *clc.Kernel, opt GPUOptions) (loopChecks int, err error) {
	if err := checkNamespace(k); err != nil {
		return 0, err
	}
	if opt.UnrollFactor <= 0 {
		opt.UnrollFactor = 4
	}
	k.Params = append(k.Params,
		&clc.Param{Name: ParamStatus, Ty: clc.PointerType(clc.Int, clc.SpaceGlobal)},
		&clc.Param{Name: ParamKID, Ty: clc.ScalarType(clc.Int)},
	)
	prologue := mustStmts(flatIDDecl() + `
if (fcl_status[0] == fcl_kid && fcl_fgid >= fcl_status[1]) { return; }
`)
	if opt.AbortInLoops {
		u := &unroller{opt: opt}
		u.visitBlock(k.Body)
		loopChecks = u.checks
	}
	k.Body.Stmts = append(prologue, k.Body.Stmts...)
	return loopChecks, nil
}

// TransformCPU mutates k into its FluidiCL CPU subkernel form: work-groups
// whose flattened ID falls outside [fcl_lo, fcl_hi] return immediately.
// The caller must re-run clc.Check before compiling.
func TransformCPU(k *clc.Kernel) error { return TransformCPUWithSummary(k, nil) }

// TransformCPUWithSummary is TransformCPU informed by the static analyzer:
// when the summary proves the kernel idempotent under re-execution of any
// work-item subset (every written buffer is write-only with slot-exact
// stores), the range guard is redundant — work-groups outside [fcl_lo,
// fcl_hi] that a rectangular NDRange slice over-covers simply recompute
// their own output words from unwritten inputs — and is dropped, saving the
// guard and flattened-ID computation on every CPU work-item. The fcl_lo /
// fcl_hi parameters are always appended so the launch ABI is uniform.
func TransformCPUWithSummary(k *clc.Kernel, ks *analysis.KernelSummary) error {
	if err := checkNamespace(k); err != nil {
		return err
	}
	k.Params = append(k.Params,
		&clc.Param{Name: ParamLo, Ty: clc.ScalarType(clc.Int)},
		&clc.Param{Name: ParamHi, Ty: clc.ScalarType(clc.Int)},
	)
	if CanDropRangeGuard(ks) {
		return nil
	}
	prologue := mustStmts(flatIDDecl() + `
if (fcl_fgid < fcl_lo || fcl_fgid > fcl_hi) { return; }
`)
	k.Body.Stmts = append(prologue, k.Body.Stmts...)
	return nil
}

// CanDropRangeGuard reports whether the analyzer proved the subkernel range
// guard redundant: all output buffers are write-only __global arguments
// with slot-exact stores (work-item i writes exactly word i), no barriers,
// and no race findings, so extra work-items recompute identical values.
func CanDropRangeGuard(ks *analysis.KernelSummary) bool {
	return ks != nil && ks.WritesSlotExactOnly() &&
		len(ks.Barriers) == 0 && ks.Races == 0
}

// flatIDDecl is the paper's flattened work-group ID computation (Fig. 5)
// expressed in plain kernel source.
func flatIDDecl() string {
	return `
int fcl_fgid = get_group_id(2) * (get_num_groups(1) * get_num_groups(0))
             + get_group_id(1) * get_num_groups(0)
             + get_group_id(0);
`
}

// abortCheckStmt builds one in-loop abort check (a fresh AST each call).
func abortCheckStmt() clc.Stmt {
	return mustStmts(`if (fcl_status[0] == fcl_kid && fcl_fgid >= fcl_status[1]) { return; }`)[0]
}

// checkNamespace rejects kernels that already use fcl_-prefixed names (they
// would collide with injected parameters and variables). All collisions —
// parameters and body declarations — are reported together in one error,
// each with its source position, so one run shows the complete list.
func checkNamespace(k *clc.Kernel) error {
	var diags clc.DiagList
	for _, p := range k.Params {
		if strings.HasPrefix(p.Name, "fcl_") {
			diags = append(diags, clc.Diag{Pos: p.Pos, Msg: fmt.Sprintf(
				"kernel %q: parameter %q collides with the reserved fcl_ namespace", k.Name, p.Name)})
		}
	}
	collectDecls(k.Body, func(d *clc.DeclStmt) {
		if strings.HasPrefix(d.Name, "fcl_") {
			diags = append(diags, clc.Diag{Pos: d.Pos, Msg: fmt.Sprintf(
				"kernel %q: variable %q collides with the reserved fcl_ namespace", k.Name, d.Name)})
		}
	})
	if len(diags) > 0 {
		return diags
	}
	return nil
}

// collectDecls calls fn for every declaration statement in the subtree.
func collectDecls(s clc.Stmt, fn func(*clc.DeclStmt)) {
	switch s := s.(type) {
	case *clc.Block:
		for _, st := range s.Stmts {
			collectDecls(st, fn)
		}
	case *clc.DeclStmt:
		fn(s)
	case *clc.IfStmt:
		collectDecls(s.Then, fn)
		if s.Else != nil {
			collectDecls(s.Else, fn)
		}
	case *clc.ForStmt:
		if s.Init != nil {
			collectDecls(s.Init, fn)
		}
		collectDecls(s.Body, fn)
	case *clc.WhileStmt:
		collectDecls(s.Body, fn)
	}
}

// mustStmts parses a statement sequence by wrapping it in a dummy kernel.
// Identifiers need not resolve (sema runs later on the full kernel).
func mustStmts(src string) []clc.Stmt {
	prog, err := clc.Parse("__kernel void fcl_tmpl() {\n" + src + "\n}")
	if err != nil {
		panic(fmt.Sprintf("passes: bad statement template: %v\n%s", err, src))
	}
	return prog.Kernels[0].Body.Stmts
}

// unroller walks the kernel body inserting in-loop abort checks into
// innermost loops, optionally restructured so the check amortizes over
// UnrollFactor iterations.
type unroller struct {
	opt    GPUOptions
	checks int
	nextID int
}

func (u *unroller) visitBlock(b *clc.Block) {
	for i, s := range b.Stmts {
		b.Stmts[i] = u.visitStmt(s)
	}
}

func (u *unroller) visitStmt(s clc.Stmt) clc.Stmt {
	switch s := s.(type) {
	case *clc.Block:
		u.visitBlock(s)
		return s
	case *clc.IfStmt:
		u.visitBlock(s.Then)
		if s.Else != nil {
			s.Else = u.visitStmt(s.Else)
		}
		return s
	case *clc.ForStmt:
		if hasLoop(s.Body) {
			u.visitBlock(s.Body)
			return s
		}
		return u.transformInnermostFor(s)
	case *clc.WhileStmt:
		if hasLoop(s.Body) {
			u.visitBlock(s.Body)
			return s
		}
		// Innermost while: prepend check (no unrolling for while loops).
		u.checks++
		s.Body.Stmts = append([]clc.Stmt{abortCheckStmt()}, s.Body.Stmts...)
		return s
	default:
		return s
	}
}

// transformInnermostFor inserts the abort check into an innermost for loop.
// With Unroll enabled and a transformable loop, the check is placed so it
// runs once per UnrollFactor iterations (the structure of the paper's
// Fig. 12); otherwise the check runs every iteration (Fig. 11 with checks,
// i.e. the NoUnroll configuration).
func (u *unroller) transformInnermostFor(s *clc.ForStmt) clc.Stmt {
	u.checks++
	canUnroll := u.opt.Unroll && s.Cond != nil && !hasLoopEscape(s.Body)
	if !canUnroll {
		s.Body.Stmts = append([]clc.Stmt{abortCheckStmt()}, s.Body.Stmts...)
		return s
	}

	ctr := fmt.Sprintf("fcl_u%d", u.nextID)
	u.nextID++

	// Inner loop: for (int fcl_uN = 0; fcl_uN < UF; fcl_uN++) {
	//     if (!(cond)) { break; }
	//     <original body>
	//     <post>
	// }
	innerStmts := mustStmts(fmt.Sprintf(`for (int %s = 0; %s < %d; %s++) { }`,
		ctr, ctr, u.opt.UnrollFactor, ctr))
	inner := innerStmts[0].(*clc.ForStmt)

	guardCond := &clc.UnaryExpr{Op: clc.NOT, X: clc.CloneExpr(s.Cond)}
	guard := &clc.IfStmt{
		Cond: guardCond,
		Then: &clc.Block{Stmts: []clc.Stmt{&clc.BreakStmt{}}},
	}
	inner.Body.Stmts = append(inner.Body.Stmts, guard)
	inner.Body.Stmts = append(inner.Body.Stmts, s.Body.Stmts...)
	if s.Post != nil {
		inner.Body.Stmts = append(inner.Body.Stmts, s.Post)
	}

	// Outer loop keeps init and cond; the inner loop advances the induction
	// variable, so the outer post is empty.
	outer := &clc.ForStmt{
		Pos:  s.Pos,
		Init: s.Init,
		Cond: s.Cond,
		Body: &clc.Block{Stmts: []clc.Stmt{abortCheckStmt(), inner}},
	}
	return outer
}

// hasLoop reports whether any loop statement occurs in the subtree.
func hasLoop(s clc.Stmt) bool {
	switch s := s.(type) {
	case *clc.Block:
		for _, st := range s.Stmts {
			if hasLoop(st) {
				return true
			}
		}
	case *clc.IfStmt:
		if hasLoop(s.Then) {
			return true
		}
		if s.Else != nil && hasLoop(s.Else) {
			return true
		}
	case *clc.ForStmt, *clc.WhileStmt:
		return true
	}
	return false
}

// hasLoopEscape reports whether the loop body contains a break or continue
// belonging to this loop (innermost bodies contain no nested loops, so any
// break/continue found belongs to the loop under transformation).
func hasLoopEscape(s clc.Stmt) bool {
	switch s := s.(type) {
	case *clc.Block:
		for _, st := range s.Stmts {
			if hasLoopEscape(st) {
				return true
			}
		}
	case *clc.IfStmt:
		if hasLoopEscape(s.Then) {
			return true
		}
		if s.Else != nil && hasLoopEscape(s.Else) {
			return true
		}
	case *clc.BreakStmt, *clc.ContinueStmt:
		return true
	}
	return false
}

// MergeKernelSource is the FluidiCL data-merge kernel (paper Fig. 9) at
// 4-byte word granularity: every buffer element type in MiniCL is one
// 32-bit word, so word-wise comparison is exact. Comparing words as ints
// sidesteps NaN != NaN. The fcl_lo parameter offsets the merged window so
// the runtime can launch a narrowed merge over only the word range the CPU
// could have written (analyzer-proved slot-exact buffers); a full merge
// passes fcl_lo = 0.
const MergeKernelSource = `
__kernel void fcl_merge(__global int* fcl_cpu, __global int* fcl_gpu,
                        __global int* fcl_orig, int fcl_nwords, int fcl_lo)
{
    int i = get_global_id(0) + fcl_lo;
    if (i < fcl_nwords && fcl_cpu[i] != fcl_orig[i]) {
        fcl_gpu[i] = fcl_cpu[i];
    }
}
`

// MergeKernelName is the merge kernel's name.
const MergeKernelName = "fcl_merge"

// CanSplit reports whether the CPU work-group splitting optimization (§6.3)
// may be applied: splitting one work-group across CPU hardware threads is
// legal when work-items cannot communicate (no barriers, no __local data).
func CanSplit(ki *clc.KernelInfo) bool {
	return !ki.HasBarrier && len(ki.LocalArrays) == 0
}

// CanSplitWithSummary refines CanSplit with analyzer facts: splitting is
// additionally refused on any inter-work-item race finding (splitting
// changes the interleaving the racy kernel happens to rely on). Barriers,
// divergent or not, are already refused by CanSplit. A nil summary falls
// back to the syntactic CanSplit rule.
func CanSplitWithSummary(ki *clc.KernelInfo, ks *analysis.KernelSummary) bool {
	if !CanSplit(ki) {
		return false
	}
	return ks == nil || ks.Races == 0
}
