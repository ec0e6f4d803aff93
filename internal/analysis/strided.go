package analysis

// The kernel walker and its strided affine access model. The walker keeps
// index expressions symbolic: every access to a pointer argument becomes a
// StridedRef — an affine base over gid/lid/group-id whose coefficients are
// uniform integer expressions, plus one bounded strided term per enclosing
// induction loop — or a structured Reject naming the reason and site where
// precision was lost. The same walk derives everything else the summary
// holds: access direction and slot-exactness from the refs and rejects,
// barrier divergence from one dep bit per value, and the lints. Launch-time
// evaluation of the refs (footprint.go) gives exact per-work-item interval
// sets that the wg certificate and the transfer planner consume.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"fluidicl/internal/clc"
)

// ---- uniform integer expressions ----

// UOp is a UExpr node kind.
type UOp byte

// UExpr node kinds. uLaunch evaluates a per-launch constant (local size,
// group count per dimension) that builtins like get_local_size expose.
const (
	uConst UOp = iota
	uParam     // scalar int kernel parameter, by parameter position
	uLaunch
	uAdd
	uSub
	uMul
	uDiv
	uMod
)

// Launch-constant codes for uLaunch nodes: C = code*3 + dim.
const (
	lcLocalSize = iota // get_local_size(dim)
	lcNumGroups        // get_num_groups(dim)
)

// UExpr is a uniform (work-item-invariant) integer expression over scalar
// int parameters and launch constants. A nil *UExpr is the constant 0.
type UExpr struct {
	Op   UOp
	C    int64 // constant value, parameter index, or launch-constant code
	X, Y *UExpr
}

// UConst returns the constant expression v, with nil standing for 0.
func UConst(v int64) *UExpr {
	if v == 0 {
		return nil
	}
	return &UExpr{Op: uConst, C: v}
}

// UParam returns the expression reading scalar parameter i.
func UParam(i int) *UExpr { return &UExpr{Op: uParam, C: int64(i)} }

func uLaunchConst(code, dim int) *UExpr {
	return &UExpr{Op: uLaunch, C: int64(code*3 + dim)}
}

func (u *UExpr) isConst() (int64, bool) {
	if u == nil {
		return 0, true
	}
	if u.Op == uConst {
		return u.C, true
	}
	return 0, false
}

func uBin(op UOp, x, y *UExpr) *UExpr {
	xc, xk := x.isConst()
	yc, yk := y.isConst()
	if xk && yk {
		switch op {
		case uAdd:
			return UConst(xc + yc)
		case uSub:
			return UConst(xc - yc)
		case uMul:
			return UConst(xc * yc)
		case uDiv:
			if yc != 0 {
				return UConst(xc / yc)
			}
		case uMod:
			if yc != 0 {
				return UConst(xc % yc)
			}
		}
	}
	switch op {
	case uAdd:
		if xk && xc == 0 {
			return y
		}
		if yk && yc == 0 {
			return x
		}
	case uSub:
		if yk && yc == 0 {
			return x
		}
	case uMul:
		if (xk && xc == 0) || (yk && yc == 0) {
			return nil
		}
		if xk && xc == 1 {
			return y
		}
		if yk && yc == 1 {
			return x
		}
	}
	return &UExpr{Op: op, X: x, Y: y}
}

// UAdd returns x + y with light constant folding.
func UAdd(x, y *UExpr) *UExpr { return uBin(uAdd, x, y) }

// USub returns x - y with light constant folding.
func USub(x, y *UExpr) *UExpr { return uBin(uSub, x, y) }

// UMul returns x * y with light constant folding.
func UMul(x, y *UExpr) *UExpr { return uBin(uMul, x, y) }

// EvalCtx carries the concrete launch state a summary is evaluated
// against: the scalar int parameter values (by kernel parameter position;
// entries for non-int parameters are ignored) and the launch geometry.
type EvalCtx struct {
	Params []int64
	Local  [3]int64
	Groups [3]int64
}

// Eval evaluates the expression; ok is false on a missing parameter,
// division by zero, or magnitude overflow past the analysis range.
func (u *UExpr) Eval(c *EvalCtx) (int64, bool) {
	if u == nil {
		return 0, true
	}
	switch u.Op {
	case uConst:
		return u.C, true
	case uParam:
		if int(u.C) >= len(c.Params) {
			return 0, false
		}
		return c.Params[u.C], true
	case uLaunch:
		code, dim := int(u.C)/3, int(u.C)%3
		switch code {
		case lcLocalSize:
			return c.Local[dim], true
		case lcNumGroups:
			return c.Groups[dim], true
		}
		return 0, false
	}
	x, okx := u.X.Eval(c)
	y, oky := u.Y.Eval(c)
	if !okx || !oky {
		return 0, false
	}
	var v int64
	switch u.Op {
	case uAdd:
		v = x + y
	case uSub:
		v = x - y
	case uMul:
		v = x * y
	case uDiv:
		if y == 0 {
			return 0, false
		}
		v = x / y
	case uMod:
		if y == 0 {
			return 0, false
		}
		v = x % y
	default:
		return 0, false
	}
	if v > evalMagLimit || v < -evalMagLimit {
		return 0, false
	}
	return v, true
}

// evalMagLimit bounds evaluated magnitudes so downstream interval
// arithmetic cannot overflow int64.
const evalMagLimit = int64(1) << 40

// String renders the expression with parameter names from names (by
// parameter position; falls back to p<i>).
func (u *UExpr) String(names []string) string {
	if u == nil {
		return "0"
	}
	switch u.Op {
	case uConst:
		return fmt.Sprintf("%d", u.C)
	case uParam:
		if int(u.C) < len(names) {
			return names[u.C]
		}
		return fmt.Sprintf("p%d", u.C)
	case uLaunch:
		code, dim := int(u.C)/3, int(u.C)%3
		if code == lcLocalSize {
			return fmt.Sprintf("lsz%d", dim)
		}
		return fmt.Sprintf("ngr%d", dim)
	}
	ops := map[UOp]string{uAdd: "+", uSub: "-", uMul: "*", uDiv: "/", uMod: "%"}
	return fmt.Sprintf("(%s%s%s)", u.X.String(names), ops[u.Op], u.Y.String(names))
}

// ---- affine expressions over work-item ids ----

// AffExpr is K + Σ Gid[d]*gid_d + Σ Lid[d]*lid_d + Σ Grp[d]*grp_d with
// uniform coefficients. The zero value is the constant 0.
type AffExpr struct {
	K   *UExpr
	Gid [3]*UExpr
	Lid [3]*UExpr
	Grp [3]*UExpr
}

func affConst(v int64) AffExpr { return AffExpr{K: UConst(v)} }

func (a AffExpr) add(b AffExpr) AffExpr {
	r := AffExpr{K: UAdd(a.K, b.K)}
	for d := 0; d < 3; d++ {
		r.Gid[d] = UAdd(a.Gid[d], b.Gid[d])
		r.Lid[d] = UAdd(a.Lid[d], b.Lid[d])
		r.Grp[d] = UAdd(a.Grp[d], b.Grp[d])
	}
	return r
}

func (a AffExpr) sub(b AffExpr) AffExpr {
	r := AffExpr{K: USub(a.K, b.K)}
	for d := 0; d < 3; d++ {
		r.Gid[d] = USub(a.Gid[d], b.Gid[d])
		r.Lid[d] = USub(a.Lid[d], b.Lid[d])
		r.Grp[d] = USub(a.Grp[d], b.Grp[d])
	}
	return r
}

func (a AffExpr) scale(u *UExpr) AffExpr {
	r := AffExpr{K: UMul(a.K, u)}
	for d := 0; d < 3; d++ {
		r.Gid[d] = UMul(a.Gid[d], u)
		r.Lid[d] = UMul(a.Lid[d], u)
		r.Grp[d] = UMul(a.Grp[d], u)
	}
	return r
}

// uniform reports whether the expression has no id dependence, and if so
// returns it as a UExpr.
func (a AffExpr) uniform() (*UExpr, bool) {
	for d := 0; d < 3; d++ {
		if a.Gid[d] != nil || a.Lid[d] != nil || a.Grp[d] != nil {
			return nil, false
		}
	}
	return a.K, true
}

// ItemCtx is the concrete identity of one work-item.
type ItemCtx struct {
	Gid, Lid, Grp [3]int64
}

// Eval evaluates the expression for one work-item.
func (a AffExpr) Eval(c *EvalCtx, it ItemCtx) (int64, bool) {
	v, ok := a.K.Eval(c)
	if !ok {
		return 0, false
	}
	for d := 0; d < 3; d++ {
		for _, t := range [3]struct {
			u  *UExpr
			id int64
		}{{a.Gid[d], it.Gid[d]}, {a.Lid[d], it.Lid[d]}, {a.Grp[d], it.Grp[d]}} {
			if t.u == nil {
				continue
			}
			cv, ok := t.u.Eval(c)
			if !ok {
				return 0, false
			}
			v += cv * t.id
			if v > evalMagLimit || v < -evalMagLimit {
				return 0, false
			}
		}
	}
	return v, true
}

// coefs evaluates the expression's coefficients in the order K, Gid[0..2],
// Lid[0..2], Grp[0..2].
func (a AffExpr) coefs(c *EvalCtx) (v [10]int64, ok bool) {
	for i, u := range [10]*UExpr{a.K, a.Gid[0], a.Gid[1], a.Gid[2],
		a.Lid[0], a.Lid[1], a.Lid[2], a.Grp[0], a.Grp[1], a.Grp[2]} {
		if v[i], ok = u.Eval(c); !ok {
			return v, false
		}
	}
	return v, true
}

// String renders the expression with parameter names.
func (a AffExpr) String(names []string) string {
	var parts []string
	emit := func(u *UExpr, id string) {
		if u == nil {
			return
		}
		if c, ok := u.isConst(); ok && c == 1 {
			parts = append(parts, id)
			return
		}
		parts = append(parts, u.String(names)+"*"+id)
	}
	for d := 0; d < 3; d++ {
		emit(a.Gid[d], fmt.Sprintf("gid%d", d))
	}
	for d := 0; d < 3; d++ {
		emit(a.Lid[d], fmt.Sprintf("lid%d", d))
	}
	for d := 0; d < 3; d++ {
		emit(a.Grp[d], fmt.Sprintf("grp%d", d))
	}
	if k, ok := a.K.isConst(); !ok || k != 0 || len(parts) == 0 {
		parts = append(parts, a.K.String(names))
	}
	return strings.Join(parts, " + ")
}

// ---- strided references ----

// IVRange is one induction-variable term of a strided reference: the index
// contribution is Coef*iv where iv iterates Lo, Lo+Step, ... while < Hi.
// Lo and Hi are affine in ids and parameters but never in other IVs.
type IVRange struct {
	Coef   *UExpr
	Lo, Hi AffExpr // half-open iteration range
	Step   int64   // positive constant
}

// GuardOp relates a guard expression to zero.
type GuardOp byte

// Guard operators: the access executes only if E <op> 0.
const (
	GuardGE GuardOp = iota // E >= 0
	GuardGT                // E > 0
	GuardEQ                // E == 0
	GuardNE                // E != 0
)

func (o GuardOp) String() string {
	switch o {
	case GuardGE:
		return ">=0"
	case GuardGT:
		return ">0"
	case GuardEQ:
		return "==0"
	}
	return "!=0"
}

// Guard is one affine condition the access is control-dependent on.
type Guard struct {
	E  AffExpr
	Op GuardOp
}

// Eval reports whether the guard holds for one work-item.
func (g Guard) Eval(c *EvalCtx, it ItemCtx) (bool, bool) {
	v, ok := g.E.Eval(c, it)
	if !ok {
		return false, false
	}
	switch g.Op {
	case GuardGE:
		return v >= 0, true
	case GuardGT:
		return v > 0, true
	case GuardEQ:
		return v == 0, true
	}
	return v != 0, true
}

// StridedRef is one global-buffer access in strided-summary form.
type StridedRef struct {
	Store    bool
	AlsoRead bool // compound assignment: the store reads the old value too
	Base     AffExpr
	IVs      []IVRange
	// Guards are the affine conditions the access is control-dependent on.
	// The may-footprint ignores them (sound over-approximation); the
	// must-footprint requires them all to hold.
	Guards []Guard
	// MayOnly marks control dependence the walker could not express as
	// affine guards: the access still bounds the may-footprint but never
	// contributes to the must-footprint.
	MayOnly bool
	Pos     clc.Pos
}

// String renders the reference in the golden-file format.
func (r *StridedRef) String(names []string) string {
	var b strings.Builder
	if r.Store {
		if r.AlsoRead {
			b.WriteString("update ")
		} else {
			b.WriteString("store ")
		}
	} else {
		b.WriteString("load  ")
	}
	b.WriteString(r.Base.String(names))
	for i, iv := range r.IVs {
		fmt.Fprintf(&b, " + %s*i%d", iv.Coef.String(names), i)
	}
	for i, iv := range r.IVs {
		fmt.Fprintf(&b, " {i%d in [%s, %s)", i, iv.Lo.String(names), iv.Hi.String(names))
		if iv.Step != 1 {
			fmt.Fprintf(&b, " step %d", iv.Step)
		}
		b.WriteString("}")
	}
	for _, g := range r.Guards {
		fmt.Fprintf(&b, " if %s%s", g.E.String(names), g.Op)
	}
	if r.MayOnly {
		b.WriteString(" may-only")
	}
	return b.String()
}

// Reject reasons emitted where the strided walker loses precision.
const (
	RejNonAffine   = "non-affine"   // index not affine in ids/params/IVs
	RejLoopCarried = "loop-carried" // index uses a loop-mutated non-IV value
	RejIndirect    = "indirect"     // index derived from a memory load
	RejIVBound     = "iv-bound"     // loop bound not affine in ids/params
	RejIVStep      = "iv-step"      // loop step not a positive constant
)

// Reject is one site where the strided analysis lost precision: an access
// it could not summarize. Any consumer needing complete coverage of an
// argument's reads or writes must treat a Reject of that kind as TOP.
type Reject struct {
	Reason string
	Store  bool
	Pos    clc.Pos
}

func (r Reject) String() string {
	kind := "load"
	if r.Store {
		kind = "store"
	}
	return fmt.Sprintf("reject %s %s at %s", kind, r.Reason, r.Pos)
}

// ---- the walker ----

// sval is the walker's symbolic value of a scalar expression: for an int,
// an affine expression plus coefficients over the in-scope induction
// variables; why carries the reject reason when !ok (every non-int value is
// !ok). dep marks a value that may differ between the work-items of one
// group: it drives the barrier divergence verdicts and the race lint.
type sval struct {
	ok  bool
	dep bool
	why string
	aff AffExpr
	ivs []ivCoef
}

type ivCoef struct {
	iv   *ivInfo
	coef *UExpr
}

// ivInfo is one recognized induction loop in scope.
type ivInfo struct {
	id   int
	rng  IVRange // Coef unused here; Lo/Hi/Step describe the iteration range
	dead bool    // loop exited: values still referencing it are stale
}

func sErr(why string) sval { return sval{why: why} }

func sAff(a AffExpr) sval { return sval{ok: true, aff: a} }

// taint returns v, made dep when dep is set. The arithmetic below ignores
// dep; every caller ORs its operands' bits in with taint.
func (v sval) taint(dep bool) sval {
	v.dep = v.dep || dep
	return v
}

func (v sval) add(w sval) sval {
	if !v.ok || !w.ok {
		return sErr(firstWhy(v, w))
	}
	r := sval{ok: true, aff: v.aff.add(w.aff), ivs: append([]ivCoef(nil), v.ivs...)}
	for _, t := range w.ivs {
		r = r.addIV(t.iv, t.coef)
	}
	return r
}

func (v sval) sub(w sval) sval {
	if !v.ok || !w.ok {
		return sErr(firstWhy(v, w))
	}
	r := sval{ok: true, aff: v.aff.sub(w.aff), ivs: append([]ivCoef(nil), v.ivs...)}
	for _, t := range w.ivs {
		r = r.addIV(t.iv, UMul(t.coef, UConst(-1)))
	}
	return r
}

func (v sval) addIV(iv *ivInfo, coef *UExpr) sval {
	for i, t := range v.ivs {
		if t.iv == iv {
			v.ivs[i].coef = UAdd(t.coef, coef)
			return v
		}
	}
	v.ivs = append(v.ivs, ivCoef{iv: iv, coef: coef})
	return v
}

func (v sval) mul(w sval) sval {
	if !v.ok || !w.ok {
		return sErr(firstWhy(v, w))
	}
	if u, ok := w.pureUniform(); ok {
		return v.scale(u)
	}
	if u, ok := v.pureUniform(); ok {
		return w.scale(u)
	}
	return sErr(RejNonAffine)
}

func (v sval) scale(u *UExpr) sval {
	r := sval{ok: true, aff: v.aff.scale(u)}
	for _, t := range v.ivs {
		r.ivs = append(r.ivs, ivCoef{iv: t.iv, coef: UMul(t.coef, u)})
	}
	return r
}

// pureUniform reports whether the value has no id or IV dependence.
func (v sval) pureUniform() (*UExpr, bool) {
	if !v.ok || len(v.ivs) != 0 {
		return nil, false
	}
	return v.aff.uniform()
}

// pureAff reports whether the value has no IV dependence.
func (v sval) pureAff() (AffExpr, bool) {
	if !v.ok || len(v.ivs) != 0 {
		return AffExpr{}, false
	}
	return v.aff, true
}

func (v sval) live() bool {
	if !v.ok {
		return false
	}
	for _, t := range v.ivs {
		if t.iv.dead {
			return false
		}
	}
	return true
}

func firstWhy(vs ...sval) string {
	for _, v := range vs {
		if !v.ok && v.why != "" {
			return v.why
		}
	}
	return RejNonAffine
}

// equal compares the index forms; it ignores dep.
func (v sval) equal(w sval) bool {
	if v.ok != w.ok {
		return false
	}
	if !v.ok {
		return true
	}
	if len(v.ivs) != len(w.ivs) {
		return false
	}
	for i := range v.ivs {
		if v.ivs[i].iv != w.ivs[i].iv || !uEq(v.ivs[i].coef, w.ivs[i].coef) {
			return false
		}
	}
	return affEq(v.aff, w.aff)
}

func uEq(a, b *UExpr) bool {
	if a == nil || b == nil {
		ac, aok := a.isConst()
		bc, bok := b.isConst()
		return aok && bok && ac == bc
	}
	return a.Op == b.Op && a.C == b.C && uEq(a.X, b.X) && uEq(a.Y, b.Y)
}

func affEq(a, b AffExpr) bool {
	if !uEq(a.K, b.K) {
		return false
	}
	for d := 0; d < 3; d++ {
		if !uEq(a.Gid[d], b.Gid[d]) || !uEq(a.Lid[d], b.Lid[d]) || !uEq(a.Grp[d], b.Grp[d]) {
			return false
		}
	}
	return true
}

// isGid0 reports whether the expression is exactly get_global_id(0).
func (a AffExpr) isGid0() bool {
	return affEq(a, AffExpr{Gid: [3]*UExpr{UConst(1)}})
}

// arrayInfo describes a __local or __private array declared in the body.
type arrayInfo struct {
	length int64
	local  bool
}

// shadowed is a name a declaration in an open block bound, and the value
// that declaration hid: nil when the name was not bound.
type shadowed struct {
	name string
	old  *sval
}

// strider walks one kernel once, in one forward pass, and fills its
// summary: refs and rejects per pointer argument, barrier sites, the lints.
// Loops are either recognized induction loops, whose body is walked with
// the IV symbolic, or opaque regions whose assigned variables are
// invalidated; a loop body is walked again only while its dep facts grow.
type strider struct {
	sum  *KernelSummary
	file string

	env    map[string]sval
	scope  []shadowed     // values the open blocks' declarations hid
	argIdx map[string]int // pointer param name -> index into sum.Args
	arrays map[string]arrayInfo
	guards []Guard
	nextIV int

	mayDepth  int  // unrepresentable control-flow nesting
	maySticky bool // a return under unknown control poisons what follows

	divDepth  int  // enclosing conditions that are dep
	divSticky bool // a return under divergent control poisons what follows
	// loopEscape: a break or continue ran under divergent control in the
	// innermost loop, whose later trips then run for a subset of the group.
	loopEscape bool

	// noRecord suppresses refs, rejects and lints while probing expressions
	// that the main walk evaluates again (guard atoms, loop headers) and
	// while re-walking a loop body. Barrier sites are always recorded.
	noRecord bool

	used     map[string]bool    // names referenced anywhere
	reads    map[string]bool    // scalar variables read anywhere
	declPos  map[string]clc.Pos // scalar variable declaration positions
	declared []string           // declaration order, for deterministic diags
}

// AnalyzeKernel walks one checked kernel and returns its summary.
func AnalyzeKernel(k *clc.Kernel, file string) *KernelSummary {
	s := &strider{
		sum:     &KernelSummary{Name: k.Name, Params: make([]string, len(k.Params))},
		file:    file,
		env:     make(map[string]sval),
		argIdx:  make(map[string]int),
		arrays:  make(map[string]arrayInfo),
		used:    make(map[string]bool),
		reads:   make(map[string]bool),
		declPos: make(map[string]clc.Pos),
	}
	for i, p := range k.Params {
		s.sum.Params[i] = p.Name
		if p.Ty.Ptr {
			s.argIdx[p.Name] = len(s.sum.Args)
			s.sum.Args = append(s.sum.Args, ArgSummary{Name: p.Name, Index: i, Space: p.Ty.Space, Elem: p.Ty.Kind})
		} else if p.Ty.Kind == clc.Int {
			s.env[p.Name] = sAff(AffExpr{K: UParam(i)})
		}
	}
	s.block(k.Body)
	s.finish(k)
	return s.sum
}

func (s *strider) diag(pos clc.Pos, format string, args ...interface{}) {
	s.sum.Diags = append(s.sum.Diags, clc.Diag{File: s.file, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// finish derives the per-argument facts from the refs and rejects, keeps
// the divergent verdict per barrier site, and runs the whole-kernel lints.
func (s *strider) finish(k *clc.Kernel) {
	for i := range s.sum.Args {
		a := &s.sum.Args[i]
		exact := true
		for j := range a.Refs {
			r := &a.Refs[j]
			if r.Store {
				a.Written = true
				exact = exact && len(r.IVs) == 0 && r.Base.isGid0()
			}
			a.Read = a.Read || !r.Store || r.AlsoRead
		}
		for _, r := range a.Rejects {
			a.Written = a.Written || r.Store
			a.Read = a.Read || !r.Store
			exact = exact && !r.Store
		}
		a.SlotExact = a.Written && exact
	}

	sites := make(map[clc.Pos]int)
	var barriers []BarrierSite
	for _, b := range s.sum.Barriers {
		if i, ok := sites[b.Pos]; ok {
			barriers[i].Divergent = barriers[i].Divergent || b.Divergent
			continue
		}
		sites[b.Pos] = len(barriers)
		barriers = append(barriers, b)
	}
	s.sum.Barriers = barriers
	for _, b := range barriers {
		if b.Divergent {
			s.diag(b.Pos, "barrier under control flow dependent on get_global_id/get_local_id: "+
				"work-items of a group may disagree on reaching it (undefined behaviour; blocks work-group splitting)")
		}
	}

	for _, p := range k.Params {
		if !s.used[p.Name] {
			s.diag(p.Pos, "kernel argument %q is never used", p.Name)
		}
	}
	for _, name := range s.declared {
		if !s.reads[name] {
			s.diag(s.declPos[name], "value of %q is assigned but never read", name)
		}
	}
	s.lintStridedOOB()
	clc.SortDiags(s.sum.Diags)
}

// lintStridedOOB reports strided accesses whose statically known minimum
// index is negative on every launch: unguarded, parameter-free refs with
// nonnegative id coefficients and a constant negative base or strided low
// bound (e.g. a[gid0 - 1], a[i] for i in [-1, n)).
func (s *strider) lintStridedOOB() {
	for i := range s.sum.Args {
		arg := &s.sum.Args[i]
		for j := range arg.Refs {
			ref := &arg.Refs[j]
			if len(ref.Guards) > 0 || ref.MayOnly {
				continue
			}
			if min, ok := ref.StaticMin(); ok && min < 0 {
				s.diag(ref.Pos, "strided access to %q provably out of bounds: minimum index %d is negative",
					arg.Name, min)
			}
		}
	}
}

// blockResult says how a block terminates for path-sensitivity purposes.
type blockResult int

const (
	fellThrough blockResult = iota
	returned                // every path through the block returns
)

func (s *strider) mayOnly() bool { return s.mayDepth > 0 || s.maySticky }

func (s *strider) divergent() bool { return s.divDepth > 0 || s.divSticky }

func (s *strider) block(b *clc.Block) blockResult {
	mark := len(s.scope)
	res := fellThrough
	for _, st := range b.Stmts {
		if s.stmt(st) == returned {
			res = returned
			break
		}
	}
	s.endScope(mark)
	return res
}

// endScope restores the values the declarations since mark hid.
func (s *strider) endScope(mark int) {
	for i := len(s.scope) - 1; i >= mark; i-- {
		if sh := s.scope[i]; sh.old != nil {
			s.env[sh.name] = *sh.old
		} else {
			delete(s.env, sh.name)
		}
	}
	s.scope = s.scope[:mark]
}

func (s *strider) stmt(st clc.Stmt) blockResult {
	switch st := st.(type) {
	case *clc.Block:
		return s.block(st)
	case *clc.DeclStmt:
		s.decl(st)
	case *clc.AssignStmt:
		s.assign(st)
	case *clc.ExprStmt:
		s.expr(st.X)
	case *clc.IfStmt:
		return s.ifStmt(st)
	case *clc.ForStmt:
		mark := len(s.scope)
		s.forStmt(st)
		s.endScope(mark)
	case *clc.WhileStmt:
		s.opaqueLoop(st.Cond, st.Body, nil, assigned(nil, st.Body), RejLoopCarried)
	case *clc.ReturnStmt:
		if s.divergent() {
			// Work-items disagree on exiting: everything after this point
			// is control-dependent on work-item identity.
			s.divSticky = true
		}
		return returned
	case *clc.BreakStmt, *clc.ContinueStmt:
		if s.divergent() {
			s.loopEscape = true
		}
	}
	return fellThrough
}

func (s *strider) decl(d *clc.DeclStmt) {
	if d.ArrayLen != nil {
		n, _ := clc.ConstEval(d.ArrayLen)
		s.arrays[d.Name] = arrayInfo{length: n, local: d.Space == clc.SpaceLocal}
		return
	}
	if _, ok := s.declPos[d.Name]; !ok {
		s.declared = append(s.declared, d.Name)
	}
	s.declPos[d.Name] = d.Pos
	v := sAff(affConst(0)) // registers are zeroed
	if d.Init != nil {
		v = s.expr(d.Init)
	}
	if d.Elem != clc.Int {
		v = sErr(RejNonAffine).taint(v.dep)
	}
	sh := shadowed{name: d.Name}
	if old, ok := s.env[d.Name]; ok {
		sh.old = &old
	}
	s.scope = append(s.scope, sh)
	s.env[d.Name] = v
}

func (s *strider) assign(a *clc.AssignStmt) {
	rhs := s.expr(a.RHS)
	switch lhs := a.LHS.(type) {
	case *clc.Ident:
		s.used[lhs.Name] = true
		v := rhs
		if a.Op != clc.ASSIGN {
			s.reads[lhs.Name] = true
			old, ok := s.env[lhs.Name]
			if !ok {
				old = sErr(RejNonAffine)
			}
			switch a.Op {
			case clc.PLUSEQ:
				v = old.add(rhs)
			case clc.MINUSEQ:
				v = old.sub(rhs)
			case clc.STAREQ:
				v = old.mul(rhs)
			default:
				v = sErr(RejNonAffine)
			}
			v = v.taint(old.dep || rhs.dep)
		}
		if t := lhs.Type(); t.Kind != clc.Int || t.Ptr {
			v = sErr(RejNonAffine).taint(v.dep)
		}
		// Assigned under divergent control, the merged value differs
		// between the work-items that ran the assignment and those that
		// did not.
		s.env[lhs.Name] = v.taint(s.divergent())
	case *clc.IndexExpr:
		idx := s.expr(lhs.Idx)
		s.recordRef(lhs, idx, true, a.Op != clc.ASSIGN, a.Pos)
	}
}

func (s *strider) ifStmt(st *clc.IfStmt) blockResult {
	cond := s.expr(st.Cond) // record loads in the condition exactly once
	saved := s.noRecord
	s.noRecord = true
	thenGuards, thenOK := condGuards(s, st.Cond, false)
	elseGuards, elseOK := condGuards(s, st.Cond, true)
	s.noRecord = saved

	if cond.dep {
		s.divDepth++
	}
	pre := maps.Clone(s.env)
	preGuards := len(s.guards)

	if thenOK {
		s.guards = append(s.guards, thenGuards...)
	} else {
		s.mayDepth++
	}
	thenRet := s.block(st.Then)
	thenEnv := s.env
	s.guards = s.guards[:preGuards]
	if !thenOK {
		s.mayDepth--
	}

	elseRet := fellThrough
	elseEnv := pre
	if st.Else != nil {
		s.env = maps.Clone(pre)
		if elseOK {
			s.guards = append(s.guards, elseGuards...)
		} else {
			s.mayDepth++
		}
		elseRet = s.stmt(st.Else)
		elseEnv = s.env
		s.guards = s.guards[:preGuards]
		if !elseOK {
			s.mayDepth--
		}
	}
	if cond.dep {
		s.divDepth--
	}

	thenHasRet := escapes(st.Then, false)
	elseHasRet := st.Else != nil && escapes(st.Else, false)
	switch {
	case thenRet == returned && elseRet == returned:
		return returned
	case thenRet == returned:
		// Only the else path continues: its guards become ambient.
		s.env = elseEnv
		if elseOK {
			s.guards = append(s.guards, elseGuards...)
		} else {
			s.maySticky = true
		}
		if elseHasRet {
			s.maySticky = true
		}
	case elseRet == returned:
		s.env = thenEnv
		if thenOK {
			s.guards = append(s.guards, thenGuards...)
		} else {
			s.maySticky = true
		}
		if thenHasRet {
			s.maySticky = true
		}
	default:
		s.env = mergeEnvs(pre, thenEnv, elseEnv)
		// A return buried on some path of either branch means later
		// statements only run for a subset of items the guards don't
		// describe: must-facts after this point would over-claim.
		if thenHasRet || elseHasRet {
			s.maySticky = true
		}
	}
	return fellThrough
}

// condGuards turns a condition (or, when negate, its negation) into a
// conjunction of affine guards. Conjunctions decompose on && (and on ||
// when negated); anything else — including mixed forms and non-affine
// atoms — reports !ok.
func condGuards(s *strider, cond clc.Expr, negate bool) ([]Guard, bool) {
	switch e := cond.(type) {
	case *clc.BinaryExpr:
		switch e.Op {
		case clc.ANDAND:
			if negate {
				return nil, false // !(a && b) is a disjunction
			}
			l, ok1 := condGuards(s, e.X, false)
			r, ok2 := condGuards(s, e.Y, false)
			return append(l, r...), ok1 && ok2
		case clc.OROR:
			if !negate {
				return nil, false // a || b is a disjunction
			}
			l, ok1 := condGuards(s, e.X, true)
			r, ok2 := condGuards(s, e.Y, true)
			return append(l, r...), ok1 && ok2
		case clc.LT, clc.LEQ, clc.GT, clc.GEQ, clc.EQ, clc.NEQ:
			x, xok := s.expr(e.X).pureAff()
			y, yok := s.expr(e.Y).pureAff()
			if !xok || !yok {
				return nil, false
			}
			g, ok := compareGuard(e.Op, x, y, negate)
			if !ok {
				return nil, false
			}
			return []Guard{g}, true
		}
	case *clc.UnaryExpr:
		if e.Op == clc.NOT {
			return condGuards(s, e.X, !negate)
		}
	}
	return nil, false
}

func compareGuard(op clc.Kind, x, y AffExpr, negate bool) (Guard, bool) {
	if negate {
		switch op {
		case clc.LT:
			op = clc.GEQ
		case clc.LEQ:
			op = clc.GT
		case clc.GT:
			op = clc.LEQ
		case clc.GEQ:
			op = clc.LT
		case clc.EQ:
			op = clc.NEQ
		case clc.NEQ:
			op = clc.EQ
		}
	}
	switch op {
	case clc.LT: // x < y  <=>  y - x > 0
		return Guard{E: y.sub(x), Op: GuardGT}, true
	case clc.LEQ: // x <= y  <=>  y - x >= 0
		return Guard{E: y.sub(x), Op: GuardGE}, true
	case clc.GT:
		return Guard{E: x.sub(y), Op: GuardGT}, true
	case clc.GEQ:
		return Guard{E: x.sub(y), Op: GuardGE}, true
	case clc.EQ:
		return Guard{E: x.sub(y), Op: GuardEQ}, true
	case clc.NEQ:
		return Guard{E: x.sub(y), Op: GuardNE}, true
	}
	return Guard{}, false
}

// forStmt walks a for loop; the caller closes the scope of its init.
func (s *strider) forStmt(st *clc.ForStmt) {
	if st.Init != nil {
		s.stmt(st.Init)
	}
	names := assigned(assigned(nil, st.Body), st.Post)
	entry := make([]sval, len(names))
	for i, n := range names {
		entry[i] = s.env[n]
	}
	// Recognize the induction pattern: for (iv = Lo; iv < Hi; iv += Step)
	// with Lo/Hi affine and Step a positive constant, and iv not otherwise
	// assigned in the body.
	saved := s.noRecord
	s.noRecord = true
	iv, ok, why := s.inductionLoop(st, names)
	s.noRecord = saved
	if !ok {
		s.opaqueLoop(st.Cond, st.Body, st.Post, names, why)
		return
	}

	// Walk the body with the IV symbolic and the variables the body assigns
	// invalidated (inductionLoop did that before reading the bound).
	info := &ivInfo{id: s.nextIV, rng: iv.rng}
	s.nextIV++
	s.env[iv.name] = sval{ok: true, dep: iv.dep, ivs: []ivCoef{{iv: info, coef: UConst(1)}}}
	s.reads[iv.name] = true // the condition and the step read it

	exits := escapes(st.Body, true)
	if exits {
		s.mayDepth++
	}
	escaped := s.loop(nil, iv.dep, names, func() { s.block(st.Body) })
	if exits {
		s.mayDepth--
	}
	info.dead = true
	s.dropDead()
	// A loop may run no trip at all: each variable it assigns keeps its
	// entry value or loses its index form.
	for i, n := range names {
		v := s.env[n]
		if v.ok && !v.equal(entry[i]) {
			v = sErr(RejLoopCarried).taint(v.dep)
		}
		s.env[n] = v.taint(entry[i].dep || (n == iv.name && escaped))
	}
	if escapes(st.Body, false) {
		// Items may have exited inside the loop: code after it only runs
		// for a subset the guards don't describe.
		s.maySticky = true
	}
}

type inductionIV struct {
	name string
	rng  IVRange
	dep  bool // the range differs between the work-items of a group
}

// inductionLoop matches the loop header after its init has run. It
// invalidates names, the variables the body and the step assign, before it
// reads the bound, which the loop evaluates again on every trip.
func (s *strider) inductionLoop(st *clc.ForStmt, names []string) (inductionIV, bool, string) {
	var name string
	switch init := st.Init.(type) {
	case *clc.DeclStmt:
		if init.ArrayLen != nil || init.Elem != clc.Int {
			return inductionIV{}, false, RejLoopCarried
		}
		name = init.Name
	case *clc.AssignStmt:
		id, ok := init.LHS.(*clc.Ident)
		if !ok || init.Op != clc.ASSIGN {
			return inductionIV{}, false, RejLoopCarried
		}
		name = id.Name
	default:
		return inductionIV{}, false, RejLoopCarried
	}
	lo := s.env[name]
	loAff, ok := lo.pureAff()
	if !ok {
		return inductionIV{}, false, RejIVBound
	}

	cmp, ok := st.Cond.(*clc.BinaryExpr)
	if !ok || (cmp.Op != clc.LT && cmp.Op != clc.LEQ) {
		return inductionIV{}, false, RejLoopCarried
	}
	lhs, ok := cmp.X.(*clc.Ident)
	if !ok || lhs.Name != name {
		return inductionIV{}, false, RejLoopCarried
	}
	s.invalidate(names, RejLoopCarried)
	hi := s.expr(cmp.Y)
	hiAff, ok := hi.pureAff()
	if !ok {
		return inductionIV{}, false, RejIVBound
	}
	if cmp.Op == clc.LEQ {
		hiAff = hiAff.add(affConst(1))
	}

	step, ok := postStep(st.Post, name)
	if !ok || step <= 0 {
		return inductionIV{}, false, RejIVStep
	}
	if slices.Contains(assigned(nil, st.Body), name) {
		return inductionIV{}, false, RejLoopCarried
	}
	return inductionIV{name: name, rng: IVRange{Lo: loAff, Hi: hiAff, Step: step}, dep: lo.dep || hi.dep}, true, ""
}

// postStep matches iv += c, iv = iv + c, iv = iv - c as the loop post and
// returns the signed step.
func postStep(post clc.Stmt, name string) (int64, bool) {
	as, ok := post.(*clc.AssignStmt)
	if !ok {
		return 0, false
	}
	id, ok := as.LHS.(*clc.Ident)
	if !ok || id.Name != name {
		return 0, false
	}
	switch as.Op {
	case clc.PLUSEQ:
		if lit, ok := as.RHS.(*clc.IntLit); ok {
			return lit.Val, true
		}
	case clc.MINUSEQ:
		if lit, ok := as.RHS.(*clc.IntLit); ok {
			return -lit.Val, true
		}
	case clc.ASSIGN:
		bin, ok := as.RHS.(*clc.BinaryExpr)
		if !ok {
			return 0, false
		}
		x, xok := bin.X.(*clc.Ident)
		lit, lok := bin.Y.(*clc.IntLit)
		if !xok || !lok || x.Name != name {
			return 0, false
		}
		switch bin.Op {
		case clc.PLUS:
			return lit.Val, true
		case clc.MINUS:
			return -lit.Val, true
		}
	}
	return 0, false
}

// opaqueLoop walks a loop the walker cannot model: every variable the body
// (or post) assigns, names, is invalidated with the given reject reason,
// and all refs inside are may-only.
func (s *strider) opaqueLoop(cond clc.Expr, body *clc.Block, post clc.Stmt, names []string, why string) {
	s.invalidate(names, why)
	condDep := false
	if cond != nil {
		condDep = s.expr(cond).dep
	}
	s.mayDepth++
	s.loop(cond, condDep, names, func() {
		s.block(body)
		if post != nil {
			s.stmt(post)
		}
	})
	s.mayDepth--
	s.invalidate(names, why)
	if escapes(body, false) {
		s.maySticky = true
	}
}

// loop walks a loop body until its dep facts stop growing, and reports
// whether a break or continue ran under divergent control. names are the
// variables the body assigns, which hold their head values: one that
// leaves a walk dep is read dep by the next trip. The body runs under
// divergent control once the condition (re-read after each walk when cond
// is non-nil) is dep or an escape ran under a dep condition. Walks after
// the first record only barrier sites, so dep, which only grows, bounds
// the walks by len(names) + 2.
func (s *strider) loop(cond clc.Expr, condDep bool, names []string, walk func()) bool {
	head := make([]sval, len(names))
	for i, n := range names {
		head[i] = s.env[n]
	}
	saved, outer := s.noRecord, s.loopEscape
	s.loopEscape = false
	for {
		escaped := s.loopEscape
		div := condDep || escaped
		if div {
			s.divDepth++
		}
		walk()
		if div {
			s.divDepth--
		}
		s.noRecord = true
		grown := s.loopEscape != escaped
		if cond != nil && !condDep && s.expr(cond).dep {
			condDep, grown = true, true
		}
		for i, n := range names {
			if s.env[n].dep && !head[i].dep {
				head[i].dep, grown = true, true
			}
		}
		if !grown {
			break
		}
		for i, n := range names {
			s.env[n] = head[i]
		}
	}
	escaped := s.loopEscape
	s.noRecord, s.loopEscape = saved, outer
	return escaped
}

// ---- env plumbing ----

// mergeEnvs joins the two branch environments into pre.
func mergeEnvs(pre, thenEnv, elseEnv map[string]sval) map[string]sval {
	for name, pv := range pre {
		tv, ok1 := thenEnv[name]
		ev, ok2 := elseEnv[name]
		if !ok1 {
			tv = pv
		}
		if !ok2 {
			ev = pv
		}
		if tv.equal(ev) {
			pre[name] = tv.taint(ev.dep)
		} else {
			pre[name] = sErr(RejNonAffine).taint(tv.dep || ev.dep)
		}
	}
	return pre
}

// invalidate marks each named scalar unknown with the given reason,
// keeping its dep bit.
func (s *strider) invalidate(names []string, why string) {
	for _, n := range names {
		s.env[n] = sErr(why).taint(s.env[n].dep)
	}
}

// assigned appends to names every scalar the statement tree assigns or
// declares, once each.
func assigned(names []string, st clc.Stmt) []string {
	add := func(n string) {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	switch st := st.(type) {
	case *clc.Block:
		for _, x := range st.Stmts {
			names = assigned(names, x)
		}
	case *clc.DeclStmt:
		if st.ArrayLen == nil {
			add(st.Name)
		}
	case *clc.AssignStmt:
		if id, ok := st.LHS.(*clc.Ident); ok {
			add(id.Name)
		}
	case *clc.IfStmt:
		names = assigned(names, st.Then)
		if st.Else != nil {
			names = assigned(names, st.Else)
		}
	case *clc.ForStmt:
		if st.Init != nil {
			names = assigned(names, st.Init)
		}
		if st.Post != nil {
			names = assigned(names, st.Post)
		}
		names = assigned(names, st.Body)
	case *clc.WhileStmt:
		names = assigned(names, st.Body)
	}
	return names
}

// escapes reports a statement in st that leaves it early: a return
// anywhere, and with loopExits a break or continue outside nested loops
// (a nested loop's own are not).
func escapes(st clc.Stmt, loopExits bool) bool {
	switch st := st.(type) {
	case *clc.Block:
		for _, s := range st.Stmts {
			if escapes(s, loopExits) {
				return true
			}
		}
	case *clc.ReturnStmt:
		return true
	case *clc.BreakStmt, *clc.ContinueStmt:
		return loopExits
	case *clc.IfStmt:
		return escapes(st.Then, loopExits) || st.Else != nil && escapes(st.Else, loopExits)
	case *clc.ForStmt:
		return escapes(st.Body, false)
	case *clc.WhileStmt:
		return escapes(st.Body, false)
	}
	return false
}

func (s *strider) dropDead() {
	for name, v := range s.env {
		if v.ok && !v.live() {
			s.env[name] = sErr(RejLoopCarried).taint(v.dep)
		}
	}
}

// ---- expressions ----

func (s *strider) expr(e clc.Expr) sval {
	switch e := e.(type) {
	case *clc.IntLit:
		return sAff(affConst(e.Val))
	case *clc.FloatLit, *clc.BoolLit:
		return sErr(RejNonAffine)
	case *clc.Ident:
		s.used[e.Name] = true
		s.reads[e.Name] = true
		if v, ok := s.env[e.Name]; ok {
			if v.ok && !v.live() {
				// Stale reference to a dead loop IV; keep sharper reasons
				// already attached to not-ok values.
				return sErr(RejLoopCarried).taint(v.dep)
			}
			return v
		}
		return sErr(RejNonAffine) // float parameters, builtin constants (CLK_*)
	case *clc.UnaryExpr:
		x := s.expr(e.X)
		if e.Op == clc.MINUS {
			return sAff(affConst(0)).sub(x).taint(x.dep)
		}
		return sErr(RejNonAffine).taint(x.dep)
	case *clc.BinaryExpr:
		x := s.expr(e.X)
		y := s.expr(e.Y)
		var v sval
		switch e.Op {
		case clc.PLUS:
			v = x.add(y)
		case clc.MINUS:
			v = x.sub(y)
		case clc.STAR:
			v = x.mul(y)
		case clc.SLASH, clc.PERCENT:
			xu, okx := x.pureUniform()
			yu, oky := y.pureUniform()
			v = sErr(RejNonAffine)
			if okx && oky {
				op := uDiv
				if e.Op == clc.PERCENT {
					op = uMod
				}
				v = sAff(AffExpr{K: &UExpr{Op: op, X: xu, Y: yu}})
			}
		default:
			v = sErr(RejNonAffine)
		}
		return v.taint(x.dep || y.dep)
	case *clc.CondExpr:
		c := s.expr(e.Cond)
		t := s.expr(e.Then)
		f := s.expr(e.Else)
		v := sErr(RejNonAffine)
		if t.equal(f) {
			v = t
		}
		return v.taint(c.dep || t.dep || f.dep)
	case *clc.CallExpr:
		return s.call(e)
	case *clc.IndexExpr:
		idx := s.expr(e.Idx)
		s.recordRef(e, idx, false, false, e.NodePos())
		// Loaded content is arbitrary; it differs between work-items if the
		// location read does.
		return sErr(RejIndirect).taint(idx.dep)
	case *clc.CastExpr:
		x := s.expr(e.X)
		if e.To.Kind == clc.Int {
			return x
		}
		return sErr(RejNonAffine).taint(x.dep)
	}
	return sErr(RejNonAffine)
}

func (s *strider) call(e *clc.CallExpr) sval {
	dep := false
	for _, a := range e.Args {
		dep = s.expr(a).dep || dep
	}
	dim, dimOK := int64(0), false
	if len(e.Args) >= 1 {
		if v, ok := clc.ConstEval(e.Args[0]); ok && v >= 0 && v < 3 {
			dim, dimOK = v, true
		}
	}
	var a AffExpr
	switch e.Name {
	case "barrier":
		s.sum.Barriers = append(s.sum.Barriers, BarrierSite{Pos: e.Pos, Divergent: s.divergent()})
	case "get_global_id":
		if dimOK {
			a.Gid[dim] = UConst(1)
			return sval{ok: true, dep: true, aff: a}
		}
		dep = true
	case "get_local_id":
		if dimOK {
			a.Lid[dim] = UConst(1)
			return sval{ok: true, dep: true, aff: a}
		}
		dep = true
	case "get_group_id":
		if dimOK {
			a.Grp[dim] = UConst(1)
			return sAff(a)
		}
	case "get_local_size":
		if dimOK {
			return sAff(AffExpr{K: uLaunchConst(lcLocalSize, int(dim))})
		}
	case "get_num_groups":
		if dimOK {
			return sAff(AffExpr{K: uLaunchConst(lcNumGroups, int(dim))})
		}
	case "get_global_size":
		if dimOK {
			return sAff(AffExpr{K: UMul(uLaunchConst(lcLocalSize, int(dim)), uLaunchConst(lcNumGroups, int(dim)))})
		}
	}
	return sErr(RejNonAffine).taint(dep)
}

// ---- ref recording and the per-access lints ----

func (s *strider) recordRef(e *clc.IndexExpr, idx sval, store, alsoRead bool, pos clc.Pos) {
	s.used[e.Base.Name] = true
	if s.noRecord {
		return
	}
	if ai, isArr := s.arrays[e.Base.Name]; isArr {
		// Declared __local/__private array: constant bounds are checkable.
		if v, ok := clc.ConstEval(e.Idx); ok && (v < 0 || v >= ai.length) {
			s.diag(e.Idx.NodePos(), "index %d out of bounds for array %q of length %d",
				v, e.Base.Name, ai.length)
		}
		if store && ai.local {
			s.sum.LocalStores = true
			if s.racy(idx) {
				s.race(e, alsoRead, pos, "__local array")
			}
		}
		return
	}
	i, isParam := s.argIdx[e.Base.Name]
	if !isParam {
		return
	}
	arg := &s.sum.Args[i]
	if store && s.racy(idx) {
		s.race(e, alsoRead, pos, arg.Space.String()+" buffer")
	}
	if !idx.live() {
		why := RejLoopCarried // a stale IV reference
		if !idx.ok && idx.why != "" {
			why = idx.why
		}
		arg.Rejects = append(arg.Rejects, Reject{Reason: why, Store: store, Pos: pos})
		if store && alsoRead {
			arg.Rejects = append(arg.Rejects, Reject{Reason: why, Store: false, Pos: pos})
		}
		return
	}

	ref := StridedRef{
		Store:    store,
		AlsoRead: alsoRead,
		Base:     idx.aff,
		Guards:   append([]Guard(nil), s.guards...),
		MayOnly:  s.mayOnly(),
		Pos:      pos,
	}
	// Deterministic IV ordering by introduction id.
	ivs := append([]ivCoef(nil), idx.ivs...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].iv.id < ivs[b].iv.id })
	for _, t := range ivs {
		if c, ok := t.coef.isConst(); ok && c == 0 {
			continue
		}
		r := t.iv.rng
		r.Coef = t.coef
		ref.IVs = append(ref.IVs, r)
	}
	arg.Refs = append(arg.Refs, ref)
}

// racy reports a store index every work-item of a group shares: one the
// walker holds in affine form, the same for the whole group (IV terms over
// group-uniform ranges included), outside divergent control.
func (s *strider) racy(idx sval) bool {
	return idx.live() && !idx.dep && !s.divergent()
}

// race reports an inter-work-item race at a store racy accepted.
func (s *strider) race(e *clc.IndexExpr, alsoRead bool, pos clc.Pos, what string) {
	kind := "write/write"
	if alsoRead {
		kind = "read/write and write/write"
	}
	s.sum.Races++
	s.diag(pos, "inter-work-item %s race: every work-item of a group stores to %s %s[%s] at the same index",
		kind, what, e.Base.Name, clc.ExprString(e.Idx))
}
