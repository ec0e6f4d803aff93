package analysis

// Strided affine access analysis: the second-generation summary built on
// top of the direction/affinity facts in interp.go. Where the abstract
// interpreter only classifies index expressions (uniform / affine /
// unknown), the strided walker keeps them symbolic: every global-buffer
// access becomes a StridedRef — an affine base over gid/lid/group-id whose
// coefficients are uniform integer expressions, plus one bounded strided
// term per enclosing induction loop — or a structured Reject naming the
// reason and site where precision was lost. Launch-time evaluation of the
// refs (footprint.go) gives exact per-work-item interval sets that the wg
// certificate, the transfer planner and the split veto consume.

import (
	"fmt"
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

// sval is the strided walker's symbolic value of a scalar int expression:
// an affine expression plus coefficients over the in-scope induction
// variables. why carries the reject reason when !ok.
type sval struct {
	ok  bool
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

// strider walks one kernel and fills the strided refs and rejects of the
// summary's args. It runs a single forward pass (no fixpoint): loops are
// either recognized induction loops — whose body is walked once with the
// IV symbolic — or opaque regions whose assigned variables are
// invalidated.
type strider struct {
	k   *clc.Kernel
	sum *KernelSummary

	env       map[string]sval
	argIdx    map[string]int // pointer param name -> index into sum.Args
	arrays    map[string]clc.AddrSpace
	guards    []Guard
	mayDepth  int  // unrepresentable control-flow nesting
	maySticky bool // a return under unknown control poisons what follows
	nextIV    int
	// noRecord suppresses ref/reject recording while probing expressions
	// that the main walk evaluates again (guard atoms, loop headers).
	noRecord bool
}

// analyzeStrided computes strided refs and rejects for every global
// pointer argument of k, recording them into sum (which interp.go has
// already populated with direction facts).
func analyzeStrided(k *clc.Kernel, sum *KernelSummary) {
	s := &strider{
		k:      k,
		sum:    sum,
		env:    make(map[string]sval),
		argIdx: make(map[string]int),
		arrays: make(map[string]clc.AddrSpace),
	}
	sum.Params = make([]string, len(k.Params))
	for i, p := range k.Params {
		sum.Params[i] = p.Name
		if p.Ty.Ptr {
			s.argIdx[p.Name] = sum.argPos(p.Name)
		} else if p.Ty.Kind == clc.Int {
			s.env[p.Name] = sAff(AffExpr{K: UParam(i)})
		}
	}
	s.block(k.Body)
}

// argPos returns the index into Args for the named pointer parameter.
func (ks *KernelSummary) argPos(name string) int {
	for i := range ks.Args {
		if ks.Args[i].Name == name {
			return i
		}
	}
	return -1
}

// blockResult says how a block terminates for path-sensitivity purposes.
type blockResult int

const (
	fellThrough blockResult = iota
	returned                // every path through the block returns
)

func (s *strider) mayOnly() bool { return s.mayDepth > 0 || s.maySticky }

func (s *strider) block(b *clc.Block) blockResult {
	for _, st := range b.Stmts {
		if s.stmt(st) == returned {
			return returned
		}
	}
	return fellThrough
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
		s.forStmt(st)
	case *clc.WhileStmt:
		s.whileStmt(st)
	case *clc.ReturnStmt:
		return returned
	case *clc.BreakStmt, *clc.ContinueStmt:
		// Handled by the enclosing loop's escape scan.
	}
	return fellThrough
}

func (s *strider) decl(d *clc.DeclStmt) {
	if d.ArrayLen != nil {
		s.arrays[d.Name] = d.Space
		return
	}
	if d.Elem != clc.Int {
		if d.Init != nil {
			s.expr(d.Init) // record loads in float/bool initializers
		}
		return
	}
	v := sAff(affConst(0)) // registers are zeroed
	if d.Init != nil {
		v = s.expr(d.Init)
	}
	s.env[d.Name] = v
}

func (s *strider) assign(a *clc.AssignStmt) {
	rhs := s.expr(a.RHS)
	switch lhs := a.LHS.(type) {
	case *clc.Ident:
		if lhs.Type().Kind != clc.Int || lhs.Type().Ptr {
			return
		}
		v := rhs
		if a.Op != clc.ASSIGN {
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
		}
		s.env[lhs.Name] = v
	case *clc.IndexExpr:
		idx := s.expr(lhs.Idx)
		s.recordRef(lhs, idx, true, a.Op != clc.ASSIGN, a.Pos)
	}
}

func (s *strider) ifStmt(st *clc.IfStmt) blockResult {
	s.expr(st.Cond) // record loads in the condition exactly once
	s.noRecord = true
	thenGuards, thenOK := condGuards(s, st.Cond, false)
	elseGuards, elseOK := condGuards(s, st.Cond, true)
	s.noRecord = false

	pre := s.snapshot()
	preGuards := len(s.guards)

	if thenOK {
		s.guards = append(s.guards, thenGuards...)
	} else {
		s.mayDepth++
	}
	thenRet := s.block(st.Then)
	thenEnv := s.snapshot()
	s.guards = s.guards[:preGuards]
	if !thenOK {
		s.mayDepth--
	}

	elseRet := fellThrough
	elseEnv := pre
	if st.Else != nil {
		s.restore(pre)
		if elseOK {
			s.guards = append(s.guards, elseGuards...)
		} else {
			s.mayDepth++
		}
		elseRet = s.stmt(st.Else)
		elseEnv = s.snapshot()
		s.guards = s.guards[:preGuards]
		if !elseOK {
			s.mayDepth--
		}
	}

	thenHasRet := scanForReturn(st.Then)
	elseHasRet := st.Else != nil && stmtHasReturn(st.Else)
	switch {
	case thenRet == returned && elseRet == returned:
		return returned
	case thenRet == returned:
		// Only the else path continues: its guards become ambient.
		s.restore(elseEnv)
		if elseOK {
			s.guards = append(s.guards, elseGuards...)
		} else {
			s.maySticky = true
		}
		if elseHasRet {
			s.maySticky = true
		}
	case elseRet == returned:
		s.restore(thenEnv)
		if thenOK {
			s.guards = append(s.guards, thenGuards...)
		} else {
			s.maySticky = true
		}
		if thenHasRet {
			s.maySticky = true
		}
	default:
		s.mergeEnvs(pre, thenEnv, elseEnv)
		// A return buried on some path of either branch means later
		// statements only run for a subset of items the guards don't
		// describe: must-facts after this point would over-claim.
		if thenHasRet || elseHasRet {
			s.maySticky = true
		}
	}
	return fellThrough
}

func stmtHasReturn(st clc.Stmt) bool {
	switch st := st.(type) {
	case *clc.Block:
		return scanForReturn(st)
	case *clc.IfStmt:
		if scanForReturn(st.Then) {
			return true
		}
		return st.Else != nil && stmtHasReturn(st.Else)
	case *clc.ReturnStmt:
		return true
	case *clc.ForStmt:
		return scanForReturn(st.Body)
	case *clc.WhileStmt:
		return scanForReturn(st.Body)
	}
	return false
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

func (s *strider) forStmt(st *clc.ForStmt) {
	// Recognize the induction pattern: for (iv = Lo; iv < Hi; iv += Step)
	// with Lo/Hi affine and Step a positive constant, and iv not otherwise
	// assigned in the body.
	s.noRecord = true
	iv, ok, why := s.inductionLoop(st)
	s.noRecord = false
	if !ok {
		if why == "" {
			why = RejLoopCarried
		}
		if st.Init != nil {
			// Record loads in the init expression (the probe suppressed
			// them), then conservatively forget whatever init assigns —
			// the probe may have bailed before or after modelling it.
			switch init := st.Init.(type) {
			case *clc.DeclStmt:
				if init.Init != nil {
					s.expr(init.Init)
				}
			case *clc.AssignStmt:
				s.expr(init.RHS)
			}
			s.invalidateAssignedStmt(st.Init, why)
		}
		s.opaqueLoopReason(st.Cond, st.Body, st.Post, why)
		return
	}

	// Walk the body once with the IV symbolic. Variables the body assigns
	// are invalidated first (single pass, no fixpoint).
	name := iv.name
	s.invalidateAssigned(st.Body, RejLoopCarried)
	if st.Post != nil {
		s.invalidateAssignedStmt(st.Post, RejLoopCarried)
	}
	info := &ivInfo{id: s.nextIV, rng: iv.rng}
	s.nextIV++
	s.env[name] = sval{ok: true, ivs: []ivCoef{{iv: info, coef: UConst(1)}}}

	escapes := hasEscape(st.Body)
	if escapes {
		s.mayDepth++
	}
	s.block(st.Body)
	if escapes {
		s.mayDepth--
	}
	info.dead = true
	s.env[name] = sErr(RejLoopCarried)
	s.dropDead()
	if scanForReturn(st.Body) {
		// Items may have exited inside the loop: code after it only runs
		// for a subset the guards don't describe.
		s.maySticky = true
	}
}

type inductionIV struct {
	name string
	rng  IVRange
}

func (s *strider) inductionLoop(st *clc.ForStmt) (inductionIV, bool, string) {
	var name string
	var lo sval
	switch init := st.Init.(type) {
	case *clc.DeclStmt:
		if init.ArrayLen != nil || init.Elem != clc.Int {
			return inductionIV{}, false, RejLoopCarried
		}
		name = init.Name
		lo = sAff(affConst(0))
		if init.Init != nil {
			lo = s.expr(init.Init)
		}
		s.env[name] = lo
	case *clc.AssignStmt:
		id, ok := init.LHS.(*clc.Ident)
		if !ok || init.Op != clc.ASSIGN {
			return inductionIV{}, false, RejLoopCarried
		}
		name = id.Name
		lo = s.expr(init.RHS)
		s.env[name] = lo
	default:
		return inductionIV{}, false, RejLoopCarried
	}
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
	hiAff, ok := s.expr(cmp.Y).pureAff()
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
	if assignsTo(st.Body, name) {
		return inductionIV{}, false, RejLoopCarried
	}
	return inductionIV{name: name, rng: IVRange{Lo: loAff, Hi: hiAff, Step: step}}, true, ""
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

func (s *strider) whileStmt(st *clc.WhileStmt) {
	s.opaqueLoopReason(st.Cond, st.Body, nil, RejLoopCarried)
}

// opaqueLoopReason walks a loop the walker cannot model: every variable
// the body (or post) assigns is invalidated with the given reject reason,
// and all refs inside are may-only.
func (s *strider) opaqueLoopReason(cond clc.Expr, body *clc.Block, post clc.Stmt, why string) {
	if why == "" {
		why = RejLoopCarried
	}
	s.invalidateAssigned(body, why)
	if post != nil {
		s.invalidateAssignedStmt(post, why)
	}
	if cond != nil {
		s.expr(cond)
	}
	s.mayDepth++
	s.block(body)
	if post != nil {
		s.stmt(post)
	}
	s.mayDepth--
	s.invalidateAssigned(body, why)
	if post != nil {
		s.invalidateAssignedStmt(post, why)
	}
	if scanForReturn(body) {
		s.maySticky = true
	}
}

// ---- env plumbing ----

func (s *strider) snapshot() map[string]sval {
	m := make(map[string]sval, len(s.env))
	for k, v := range s.env {
		m[k] = v
	}
	return m
}

func (s *strider) restore(m map[string]sval) {
	s.env = make(map[string]sval, len(m))
	for k, v := range m {
		s.env[k] = v
	}
}

func (s *strider) mergeEnvs(pre, thenEnv, elseEnv map[string]sval) {
	s.env = make(map[string]sval, len(pre))
	for name := range pre {
		tv, ok1 := thenEnv[name]
		ev, ok2 := elseEnv[name]
		if !ok1 {
			tv = pre[name]
		}
		if !ok2 {
			ev = pre[name]
		}
		if tv.equal(ev) {
			s.env[name] = tv
		} else {
			s.env[name] = sErr(RejNonAffine)
		}
	}
}

// invalidateAssigned marks every scalar the statement tree assigns as
// unknown with the given reason.
func (s *strider) invalidateAssigned(b *clc.Block, why string) {
	for _, st := range b.Stmts {
		s.invalidateAssignedStmt(st, why)
	}
}

func (s *strider) invalidateAssignedStmt(st clc.Stmt, why string) {
	switch st := st.(type) {
	case *clc.Block:
		s.invalidateAssigned(st, why)
	case *clc.DeclStmt:
		if st.ArrayLen == nil {
			s.env[st.Name] = sErr(why)
		}
	case *clc.AssignStmt:
		if id, ok := st.LHS.(*clc.Ident); ok {
			s.env[id.Name] = sErr(why)
		}
	case *clc.IfStmt:
		s.invalidateAssigned(st.Then, why)
		if st.Else != nil {
			s.invalidateAssignedStmt(st.Else, why)
		}
	case *clc.ForStmt:
		if st.Init != nil {
			s.invalidateAssignedStmt(st.Init, why)
		}
		if st.Post != nil {
			s.invalidateAssignedStmt(st.Post, why)
		}
		s.invalidateAssigned(st.Body, why)
	case *clc.WhileStmt:
		s.invalidateAssigned(st.Body, why)
	}
}

func assignsTo(b *clc.Block, name string) bool {
	found := false
	var scan func(st clc.Stmt)
	scan = func(st clc.Stmt) {
		switch st := st.(type) {
		case *clc.Block:
			for _, s := range st.Stmts {
				scan(s)
			}
		case *clc.DeclStmt:
			if st.Name == name {
				found = true
			}
		case *clc.AssignStmt:
			if id, ok := st.LHS.(*clc.Ident); ok && id.Name == name {
				found = true
			}
		case *clc.IfStmt:
			scan(st.Then)
			if st.Else != nil {
				scan(st.Else)
			}
		case *clc.ForStmt:
			if st.Init != nil {
				scan(st.Init)
			}
			if st.Post != nil {
				scan(st.Post)
			}
			scan(st.Body)
		case *clc.WhileStmt:
			scan(st.Body)
		}
	}
	for _, st := range b.Stmts {
		scan(st)
	}
	return found
}

func hasEscape(b *clc.Block) bool {
	found := false
	var scan func(st clc.Stmt)
	scan = func(st clc.Stmt) {
		switch st := st.(type) {
		case *clc.Block:
			for _, s := range st.Stmts {
				scan(s)
			}
		case *clc.BreakStmt, *clc.ContinueStmt, *clc.ReturnStmt:
			found = true
		case *clc.IfStmt:
			scan(st.Then)
			if st.Else != nil {
				scan(st.Else)
			}
		// Nested loops contain their own breaks/continues; a nested
		// return still escapes this loop.
		case *clc.ForStmt:
			if scanForReturn(st.Body) {
				found = true
			}
		case *clc.WhileStmt:
			if scanForReturn(st.Body) {
				found = true
			}
		}
	}
	for _, st := range b.Stmts {
		scan(st)
	}
	return found
}

func scanForReturn(b *clc.Block) bool {
	found := false
	var scan func(st clc.Stmt)
	scan = func(st clc.Stmt) {
		switch st := st.(type) {
		case *clc.Block:
			for _, s := range st.Stmts {
				scan(s)
			}
		case *clc.ReturnStmt:
			found = true
		case *clc.IfStmt:
			scan(st.Then)
			if st.Else != nil {
				scan(st.Else)
			}
		case *clc.ForStmt:
			scan(st.Body)
		case *clc.WhileStmt:
			scan(st.Body)
		}
	}
	scan(b)
	return found
}

func (s *strider) dropDead() {
	for name, v := range s.env {
		if v.ok && !v.live() {
			s.env[name] = sErr(RejLoopCarried)
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
		if v, ok := s.env[e.Name]; ok {
			if v.ok && !v.live() {
				// Stale reference to a dead loop IV; keep sharper reasons
				// already attached to not-ok values.
				return sErr(RejLoopCarried)
			}
			return v
		}
		return sErr(RejNonAffine)
	case *clc.UnaryExpr:
		x := s.expr(e.X)
		if e.Op == clc.MINUS {
			return sAff(affConst(0)).sub(x)
		}
		return sErr(RejNonAffine)
	case *clc.BinaryExpr:
		x := s.expr(e.X)
		y := s.expr(e.Y)
		switch e.Op {
		case clc.PLUS:
			return x.add(y)
		case clc.MINUS:
			return x.sub(y)
		case clc.STAR:
			return x.mul(y)
		case clc.SLASH, clc.PERCENT:
			xu, okx := x.pureUniform()
			yu, oky := y.pureUniform()
			if okx && oky {
				op := uDiv
				if e.Op == clc.PERCENT {
					op = uMod
				}
				return sAff(AffExpr{K: &UExpr{Op: op, X: xu, Y: yu}})
			}
			return sErr(RejNonAffine)
		default:
			return sErr(RejNonAffine)
		}
	case *clc.CondExpr:
		s.expr(e.Cond)
		t := s.expr(e.Then)
		f := s.expr(e.Else)
		if t.equal(f) {
			return t
		}
		return sErr(RejNonAffine)
	case *clc.CallExpr:
		return s.call(e)
	case *clc.IndexExpr:
		idx := s.expr(e.Idx)
		s.recordRef(e, idx, false, false, e.NodePos())
		return sErr(RejIndirect)
	case *clc.CastExpr:
		if e.To.Kind == clc.Int {
			return s.expr(e.X)
		}
		s.expr(e.X)
		return sErr(RejNonAffine)
	}
	return sErr(RejNonAffine)
}

func (s *strider) call(e *clc.CallExpr) sval {
	for _, a := range e.Args {
		s.expr(a)
	}
	dim, dimOK := int64(0), false
	if len(e.Args) >= 1 {
		if v, ok := clc.ConstEval(e.Args[0]); ok && v >= 0 && v < 3 {
			dim, dimOK = v, true
		}
	}
	switch e.Name {
	case "get_global_id":
		if dimOK {
			var a AffExpr
			a.Gid[dim] = UConst(1)
			return sAff(a)
		}
	case "get_local_id":
		if dimOK {
			var a AffExpr
			a.Lid[dim] = UConst(1)
			return sAff(a)
		}
	case "get_group_id":
		if dimOK {
			var a AffExpr
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
	return sErr(RejNonAffine)
}

// ---- ref recording ----

func (s *strider) recordRef(e *clc.IndexExpr, idx sval, store, alsoRead bool, pos clc.Pos) {
	if s.noRecord {
		return
	}
	if sp, isArr := s.arrays[e.Base.Name]; isArr {
		if store && sp == clc.SpaceLocal {
			s.sum.LocalStores = true
		}
		return
	}
	i, isParam := s.argIdx[e.Base.Name]
	if !isParam || i < 0 {
		return
	}
	arg := &s.sum.Args[i]
	if !idx.live() {
		why := RejLoopCarried
		if idx.ok {
			why = RejLoopCarried // stale IV reference
		} else if idx.why != "" {
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
