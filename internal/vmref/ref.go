package vmref

import (
	"fmt"
	"math"

	"fluidicl/internal/clc"
)

// RefExec is a direct AST interpreter with exactly the semantics the
// bytecode VM implements (float32 arithmetic, C-style truncation, barrier
// phasing is unsupported — it rejects kernels with barriers). It exists as
// an independent oracle: differential tests run random programs through
// both engines and require identical results, so a miscompilation in the
// bytecode compiler cannot hide behind a matching bug.
//
// It is deliberately slow and simple; nothing in the runtime uses it. It
// shares no code with the VM: its launch shape and argument types are its
// own, and so are the helpers below that the VM has too. The float-to-int
// rule, clc.FloatToInt, belongs to the language, and every executor calls it.
type RefExec struct {
	ki *clc.KernelInfo
}

// Range is the launch shape the reference reads: the dimension count, the
// work-group size and the full grid of groups, as in vm.NDRange.
type Range struct {
	Dims      int
	LocalSize [3]int
	NumGroups [3]int
}

// Arg is one kernel argument: I for an int parameter, F for a float one,
// Buf, mutated in place, for a buffer.
type Arg struct {
	I   int64
	F   float64
	Buf []byte
}

// defaultMaxSteps is the per-work-item step budget, the VM's default. Like
// the VM's ExecOpts.MaxSteps it bounds each work-item's whole run; it counts
// statements and loop trips, not instructions, so the two overrun on
// different programs.
const defaultMaxSteps = 256 << 20

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// NewRefExec builds a reference executor for a checked kernel.
func NewRefExec(ki *clc.KernelInfo) (*RefExec, error) {
	if ki.HasBarrier {
		return nil, fmt.Errorf("vmref: RefExec does not support barriers")
	}
	return &RefExec{ki: ki}, nil
}

// value is a dynamically-typed scalar.
type value struct {
	f       float64
	i       int64
	isFloat bool
}

func fval(f float64) value { return value{f: float64(float32(f)), isFloat: true} }
func ival(i int64) value   { return value{i: i} }

func (v value) truthy() bool {
	if v.isFloat {
		return v.f != 0
	}
	return v.i != 0
}

// refArray is a mutable array binding (global buffer or local/private array).
type refArray struct {
	buf  []byte
	elem clc.ScalarKind
}

func (a refArray) load(idx int64) (value, error) {
	off := idx * 4
	if uint64(idx) >= uint64(len(a.buf)/4) { // in words: idx*4 wraps
		return value{}, fmt.Errorf("ref: index %d out of range (%d bytes)", idx, len(a.buf))
	}
	bits := uint32(a.buf[off]) | uint32(a.buf[off+1])<<8 | uint32(a.buf[off+2])<<16 | uint32(a.buf[off+3])<<24
	if a.elem == clc.Float {
		return fval(float64(math.Float32frombits(bits))), nil
	}
	return ival(int64(int32(bits))), nil
}

func (a refArray) store(idx int64, v value) error {
	off := idx * 4
	if uint64(idx) >= uint64(len(a.buf)/4) { // in words: idx*4 wraps
		return fmt.Errorf("ref: index %d out of range (%d bytes)", idx, len(a.buf))
	}
	var bits uint32
	if a.elem == clc.Float {
		// The VM's one NaN rule: every NaN stores as the canonical quiet NaN.
		if bits = math.Float32bits(float32(v.f)); bits&0x7fffffff > 0x7f800000 {
			bits = 0x7fc00000
		}
	} else {
		bits = uint32(int32(v.i))
	}
	a.buf[off] = byte(bits)
	a.buf[off+1] = byte(bits >> 8)
	a.buf[off+2] = byte(bits >> 16)
	a.buf[off+3] = byte(bits >> 24)
	return nil
}

// refScope is a lexical scope of scalar variables and array bindings.
type refScope struct {
	parent *refScope
	vars   map[string]*value
	arrs   map[string]refArray
}

func (s *refScope) lookupVar(name string) (*value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (s *refScope) lookupArr(name string) (refArray, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if a, ok := sc.arrs[name]; ok {
			return a, true
		}
	}
	return refArray{}, false
}

// control-flow signals
type refSignal int

const (
	sigNone refSignal = iota
	sigReturn
	sigBreak
	sigContinue
)

type refCtx struct {
	nd     Range
	group  [3]int
	lid    [3]int
	locals map[string]refArray        // per-work-group local arrays
	priv   map[*clc.DeclStmt]refArray // per-work-item private arrays
	steps  int64
	max    int64
}

// ExecWorkGroup interprets one work-group, mutating buffer args in place.
func (r *RefExec) ExecWorkGroup(nd Range, group [3]int, args []Arg) error {
	params := r.ki.Kernel.Params
	if len(args) != len(params) {
		return fmt.Errorf("ref: want %d args, got %d", len(params), len(args))
	}
	// Local arrays shared across the group's work-items.
	locals := map[string]refArray{}
	collectLocalArrays(r.ki.Kernel.Body, locals)

	nWI := nd.LocalSize[0] * nd.LocalSize[1] * nd.LocalSize[2]
	for wi := 0; wi < nWI; wi++ {
		lx := nd.LocalSize[0]
		ly := nd.LocalSize[1]
		ctx := &refCtx{
			nd:     nd,
			group:  group,
			lid:    [3]int{wi % lx, (wi / lx) % ly, wi / (lx * ly)},
			locals: locals,
			priv:   map[*clc.DeclStmt]refArray{},
			max:    defaultMaxSteps,
		}
		scope := &refScope{vars: map[string]*value{}, arrs: map[string]refArray{}}
		for i, p := range params {
			if p.Ty.Ptr {
				scope.arrs[p.Name] = refArray{buf: args[i].Buf, elem: p.Ty.Kind}
			} else if p.Ty.Kind == clc.Float {
				v := fval(args[i].F)
				scope.vars[p.Name] = &v
			} else {
				v := ival(args[i].I)
				scope.vars[p.Name] = &v
			}
		}
		if _, err := refBlock(ctx, scope, r.ki.Kernel.Body); err != nil {
			return err
		}
	}
	return nil
}

func collectLocalArrays(b *clc.Block, out map[string]refArray) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *clc.DeclStmt:
			if s.ArrayLen != nil && s.Space == clc.SpaceLocal {
				n, _ := clc.ConstEval(s.ArrayLen)
				out[s.Name] = refArray{buf: make([]byte, n*4), elem: s.Elem}
			}
		case *clc.Block:
			collectLocalArrays(s, out)
		case *clc.IfStmt:
			collectLocalArrays(s.Then, out)
			if e, ok := s.Else.(*clc.Block); ok {
				collectLocalArrays(e, out)
			}
		case *clc.ForStmt:
			collectLocalArrays(s.Body, out)
		case *clc.WhileStmt:
			collectLocalArrays(s.Body, out)
		}
	}
}

func refBlock(ctx *refCtx, sc *refScope, b *clc.Block) (refSignal, error) {
	inner := &refScope{parent: sc, vars: map[string]*value{}, arrs: map[string]refArray{}}
	for _, s := range b.Stmts {
		sig, err := refStmt(ctx, inner, s)
		if err != nil || sig != sigNone {
			return sig, err
		}
	}
	return sigNone, nil
}

func refStmt(ctx *refCtx, sc *refScope, s clc.Stmt) (refSignal, error) {
	ctx.steps++
	if ctx.steps > ctx.max {
		return sigNone, fmt.Errorf("ref: step budget exceeded")
	}
	switch s := s.(type) {
	case *clc.Block:
		return refBlock(ctx, sc, s)
	case *clc.DeclStmt:
		if s.ArrayLen != nil {
			if s.Space == clc.SpaceLocal {
				sc.arrs[s.Name] = ctx.locals[s.Name]
			} else {
				// One zeroed array per declaration and work-item, as in the VM:
				// a declaration that executes again keeps its contents.
				a, ok := ctx.priv[s]
				if !ok {
					n, _ := clc.ConstEval(s.ArrayLen)
					a = refArray{buf: make([]byte, n*4), elem: s.Elem}
					ctx.priv[s] = a
				}
				sc.arrs[s.Name] = a
			}
			return sigNone, nil
		}
		var v value
		if s.Init != nil {
			ev, err := refExpr(ctx, sc, s.Init)
			if err != nil {
				return sigNone, err
			}
			v = convertTo(ev, s.Elem)
		} else if s.Elem == clc.Float {
			v = fval(0)
		} else {
			v = ival(0)
		}
		sc.vars[s.Name] = &v
		return sigNone, nil
	case *clc.AssignStmt:
		return sigNone, refAssign(ctx, sc, s)
	case *clc.ExprStmt:
		_, err := refExpr(ctx, sc, s.X)
		return sigNone, err
	case *clc.IfStmt:
		c, err := refExpr(ctx, sc, s.Cond)
		if err != nil {
			return sigNone, err
		}
		if c.truthy() {
			return refBlock(ctx, sc, s.Then)
		}
		if s.Else != nil {
			return refStmt(ctx, sc, s.Else)
		}
		return sigNone, nil
	case *clc.ForStmt:
		inner := &refScope{parent: sc, vars: map[string]*value{}, arrs: map[string]refArray{}}
		if s.Init != nil {
			if sig, err := refStmt(ctx, inner, s.Init); err != nil || sig != sigNone {
				return sig, err
			}
		}
		for {
			ctx.steps++
			if ctx.steps > ctx.max {
				return sigNone, fmt.Errorf("ref: step budget exceeded")
			}
			if s.Cond != nil {
				c, err := refExpr(ctx, inner, s.Cond)
				if err != nil {
					return sigNone, err
				}
				if !c.truthy() {
					return sigNone, nil
				}
			}
			sig, err := refBlock(ctx, inner, s.Body)
			if err != nil {
				return sigNone, err
			}
			if sig == sigReturn {
				return sigReturn, nil
			}
			if sig == sigBreak {
				return sigNone, nil
			}
			if s.Post != nil {
				if sig, err := refStmt(ctx, inner, s.Post); err != nil || sig != sigNone {
					return sig, err
				}
			}
		}
	case *clc.WhileStmt:
		for {
			ctx.steps++
			if ctx.steps > ctx.max {
				return sigNone, fmt.Errorf("ref: step budget exceeded")
			}
			c, err := refExpr(ctx, sc, s.Cond)
			if err != nil {
				return sigNone, err
			}
			if !c.truthy() {
				return sigNone, nil
			}
			sig, err := refBlock(ctx, sc, s.Body)
			if err != nil {
				return sigNone, err
			}
			if sig == sigReturn {
				return sigReturn, nil
			}
			if sig == sigBreak {
				return sigNone, nil
			}
		}
	case *clc.ReturnStmt:
		return sigReturn, nil
	case *clc.BreakStmt:
		return sigBreak, nil
	case *clc.ContinueStmt:
		return sigContinue, nil
	}
	return sigNone, fmt.Errorf("ref: unknown statement %T", s)
}

func refAssign(ctx *refCtx, sc *refScope, a *clc.AssignStmt) error {
	switch lhs := a.LHS.(type) {
	case *clc.Ident:
		slot, ok := sc.lookupVar(lhs.Name)
		if !ok {
			return fmt.Errorf("ref: undefined %q", lhs.Name)
		}
		rv, err := refExpr(ctx, sc, a.RHS)
		if err != nil {
			return err
		}
		if a.Op == clc.ASSIGN {
			if slot.isFloat {
				*slot = convertTo(rv, clc.Float)
			} else {
				*slot = convertTo(rv, clc.Int)
			}
			return nil
		}
		*slot = applyCompound(a.Op, *slot, rv)
		return nil
	case *clc.IndexExpr:
		arr, ok := sc.lookupArr(lhs.Base.Name)
		if !ok {
			return fmt.Errorf("ref: undefined array %q", lhs.Base.Name)
		}
		iv, err := refExpr(ctx, sc, lhs.Idx)
		if err != nil {
			return err
		}
		rv, err := refExpr(ctx, sc, a.RHS)
		if err != nil {
			return err
		}
		if a.Op != clc.ASSIGN {
			cur, err := arr.load(iv.i)
			if err != nil {
				return err
			}
			rv = applyCompound(a.Op, cur, rv)
		} else {
			rv = convertTo(rv, arr.elem)
		}
		return arr.store(iv.i, rv)
	}
	return fmt.Errorf("ref: bad assignment target")
}

// applyCompound applies op= with C numeric semantics; the result takes the
// left operand's type.
func applyCompound(op clc.Kind, l, r value) value {
	if l.isFloat {
		rf := convertTo(r, clc.Float)
		switch op {
		case clc.PLUSEQ:
			return fval(float64(float32(l.f) + float32(rf.f)))
		case clc.MINUSEQ:
			return fval(float64(float32(l.f) - float32(rf.f)))
		case clc.STAREQ:
			return fval(float64(float32(l.f) * float32(rf.f)))
		case clc.SLASHEQ:
			return fval(float64(float32(l.f) / float32(rf.f)))
		}
		return l
	}
	ri := convertTo(r, clc.Int)
	switch op {
	case clc.PLUSEQ:
		return ival(l.i + ri.i)
	case clc.MINUSEQ:
		return ival(l.i - ri.i)
	case clc.STAREQ:
		return ival(l.i * ri.i)
	case clc.SLASHEQ:
		if ri.i == 0 {
			return ival(0) // callers compare against VM, which errors first
		}
		return ival(l.i / ri.i)
	}
	return l
}

func convertTo(v value, k clc.ScalarKind) value {
	switch k {
	case clc.Float:
		if v.isFloat {
			return fval(v.f)
		}
		return fval(float64(float32(v.i)))
	case clc.Bool:
		if v.truthy() {
			return ival(1)
		}
		return ival(0)
	default:
		if v.isFloat {
			return ival(clc.FloatToInt(v.f))
		}
		return ival(v.i)
	}
}

func refExpr(ctx *refCtx, sc *refScope, e clc.Expr) (value, error) {
	switch e := e.(type) {
	case *clc.IntLit:
		return ival(e.Val), nil
	case *clc.FloatLit:
		return fval(e.Val), nil
	case *clc.BoolLit:
		if e.Val {
			return ival(1), nil
		}
		return ival(0), nil
	case *clc.Ident:
		if e.Name == "CLK_LOCAL_MEM_FENCE" {
			return ival(1), nil
		}
		if e.Name == "CLK_GLOBAL_MEM_FENCE" {
			return ival(2), nil
		}
		v, ok := sc.lookupVar(e.Name)
		if !ok {
			return value{}, fmt.Errorf("ref: undefined %q", e.Name)
		}
		return *v, nil
	case *clc.UnaryExpr:
		x, err := refExpr(ctx, sc, e.X)
		if err != nil {
			return value{}, err
		}
		switch e.Op {
		case clc.MINUS:
			if x.isFloat {
				return fval(-x.f), nil
			}
			return ival(-x.i), nil
		case clc.NOT:
			if x.truthy() {
				return ival(0), nil
			}
			return ival(1), nil
		}
	case *clc.BinaryExpr:
		return refBinary(ctx, sc, e)
	case *clc.CondExpr:
		c, err := refExpr(ctx, sc, e.Cond)
		if err != nil {
			return value{}, err
		}
		if c.truthy() {
			return refExpr(ctx, sc, e.Then)
		}
		return refExpr(ctx, sc, e.Else)
	case *clc.CallExpr:
		return refCall(ctx, sc, e)
	case *clc.IndexExpr:
		arr, ok := sc.lookupArr(e.Base.Name)
		if !ok {
			return value{}, fmt.Errorf("ref: undefined array %q", e.Base.Name)
		}
		iv, err := refExpr(ctx, sc, e.Idx)
		if err != nil {
			return value{}, err
		}
		return arr.load(iv.i)
	case *clc.CastExpr:
		x, err := refExpr(ctx, sc, e.X)
		if err != nil {
			return value{}, err
		}
		return convertTo(x, e.To.Kind), nil
	}
	return value{}, fmt.Errorf("ref: unknown expression %T", e)
}

func refBinary(ctx *refCtx, sc *refScope, e *clc.BinaryExpr) (value, error) {
	// Short-circuit first.
	if e.Op == clc.ANDAND || e.Op == clc.OROR {
		x, err := refExpr(ctx, sc, e.X)
		if err != nil {
			return value{}, err
		}
		if e.Op == clc.ANDAND && !x.truthy() {
			return ival(0), nil
		}
		if e.Op == clc.OROR && x.truthy() {
			return ival(1), nil
		}
		y, err := refExpr(ctx, sc, e.Y)
		if err != nil {
			return value{}, err
		}
		if y.truthy() {
			return ival(1), nil
		}
		return ival(0), nil
	}
	x, err := refExpr(ctx, sc, e.X)
	if err != nil {
		return value{}, err
	}
	y, err := refExpr(ctx, sc, e.Y)
	if err != nil {
		return value{}, err
	}
	// Sema inserted explicit casts, so operand types agree here.
	if x.isFloat || y.isFloat {
		xf, yf := float32(convertTo(x, clc.Float).f), float32(convertTo(y, clc.Float).f)
		switch e.Op {
		case clc.PLUS:
			return fval(float64(xf + yf)), nil
		case clc.MINUS:
			return fval(float64(xf - yf)), nil
		case clc.STAR:
			return fval(float64(xf * yf)), nil
		case clc.SLASH:
			return fval(float64(xf / yf)), nil
		case clc.EQ:
			return ival(b2i(xf == yf)), nil
		case clc.NEQ:
			return ival(b2i(xf != yf)), nil
		case clc.LT:
			return ival(b2i(xf < yf)), nil
		case clc.LEQ:
			return ival(b2i(xf <= yf)), nil
		case clc.GT:
			return ival(b2i(xf > yf)), nil
		case clc.GEQ:
			return ival(b2i(xf >= yf)), nil
		}
		return value{}, fmt.Errorf("ref: bad float op %s", e.Op)
	}
	xi, yi := x.i, y.i
	switch e.Op {
	case clc.PLUS:
		return ival(xi + yi), nil
	case clc.MINUS:
		return ival(xi - yi), nil
	case clc.STAR:
		return ival(xi * yi), nil
	case clc.SLASH:
		if yi == 0 {
			return value{}, fmt.Errorf("ref: integer division by zero")
		}
		return ival(xi / yi), nil
	case clc.PERCENT:
		if yi == 0 {
			return value{}, fmt.Errorf("ref: integer modulo by zero")
		}
		return ival(xi % yi), nil
	case clc.EQ:
		return ival(b2i(xi == yi)), nil
	case clc.NEQ:
		return ival(b2i(xi != yi)), nil
	case clc.LT:
		return ival(b2i(xi < yi)), nil
	case clc.LEQ:
		return ival(b2i(xi <= yi)), nil
	case clc.GT:
		return ival(b2i(xi > yi)), nil
	case clc.GEQ:
		return ival(b2i(xi >= yi)), nil
	}
	return value{}, fmt.Errorf("ref: bad int op %s", e.Op)
}

func refCall(ctx *refCtx, sc *refScope, e *clc.CallExpr) (value, error) {
	argv := make([]value, len(e.Args))
	for i, a := range e.Args {
		v, err := refExpr(ctx, sc, a)
		if err != nil {
			return value{}, err
		}
		argv[i] = v
	}
	dim := func() int64 {
		if len(argv) > 0 {
			return argv[0].i
		}
		return 0
	}
	at := func(vals [3]int, d int64) int64 {
		if d < 0 || d > 2 {
			return 0
		}
		return int64(vals[d])
	}
	switch e.Name {
	case "get_global_id":
		d := dim()
		return ival(at(ctx.group, d)*at(ctx.nd.LocalSize, d) + at(ctx.lid, d)), nil
	case "get_local_id":
		return ival(at(ctx.lid, dim())), nil
	case "get_group_id":
		return ival(at(ctx.group, dim())), nil
	case "get_num_groups":
		d := dim()
		if d < 0 || d > 2 {
			return ival(1), nil
		}
		return ival(int64(ctx.nd.NumGroups[d])), nil
	case "get_local_size":
		d := dim()
		if d < 0 || d > 2 {
			return ival(1), nil
		}
		return ival(int64(ctx.nd.LocalSize[d])), nil
	case "get_global_size":
		d := dim()
		if d < 0 || d > 2 {
			return ival(1), nil
		}
		return ival(int64(ctx.nd.NumGroups[d] * ctx.nd.LocalSize[d])), nil
	case "get_global_offset":
		return ival(0), nil
	case "get_work_dim":
		return ival(int64(ctx.nd.Dims)), nil
	case "sqrt":
		return fval(math.Sqrt(argv[0].f)), nil
	case "fabs":
		return fval(math.Abs(argv[0].f)), nil
	case "exp":
		return fval(math.Exp(argv[0].f)), nil
	case "log":
		return fval(math.Log(argv[0].f)), nil
	case "floor":
		return fval(math.Floor(argv[0].f)), nil
	case "ceil":
		return fval(math.Ceil(argv[0].f)), nil
	case "pow":
		return fval(math.Pow(argv[0].f, argv[1].f)), nil
	case "fmin":
		return fval(math.Min(argv[0].f, argv[1].f)), nil
	case "fmax":
		return fval(math.Max(argv[0].f, argv[1].f)), nil
	case "min":
		if argv[0].i < argv[1].i {
			return argv[0], nil
		}
		return argv[1], nil
	case "max":
		if argv[0].i > argv[1].i {
			return argv[0], nil
		}
		return argv[1], nil
	case "abs":
		if argv[0].i < 0 {
			return ival(-argv[0].i), nil
		}
		return argv[0], nil
	}
	return value{}, fmt.Errorf("ref: unknown builtin %q", e.Name)
}
