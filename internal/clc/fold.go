package clc

import "math"

// Fold performs constant folding and light algebraic simplification on a
// kernel's AST, in place: constant subexpressions are evaluated at compile
// time (with the same float32 semantics the VM uses), identities like x*1,
// x+0 and true&&c are simplified, and statically-dead branches are removed.
//
// It runs after Check (it relies on the types sema assigned) and preserves
// semantics exactly — including float32 rounding, short-circuit evaluation
// and the left-to-right evaluation order of effectful expressions (MiniCL
// expressions are effect-free, so reordering concerns do not arise).
// FluidiCL applies it to every kernel before compilation; the transformation
// passes benefit because their injected flattened-ID arithmetic often
// contains constant factors.
func Fold(k *Kernel) {
	k.Body = foldBlock(k.Body)
}

func foldBlock(b *Block) *Block {
	var out []Stmt
	for _, s := range b.Stmts {
		fs := foldStmt(s)
		if fs != nil {
			out = append(out, fs)
		}
	}
	b.Stmts = out
	return b
}

// foldStmt folds a statement; it returns nil when the statement is
// statically dead and can be dropped.
func foldStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Block:
		return foldBlock(s)
	case *DeclStmt:
		if s.Init != nil {
			s.Init = foldExpr(s.Init)
		}
		return s
	case *AssignStmt:
		s.LHS = foldExpr(s.LHS)
		s.RHS = foldExpr(s.RHS)
		return s
	case *ExprStmt:
		s.X = foldExpr(s.X)
		return s
	case *IfStmt:
		s.Cond = foldExpr(s.Cond)
		s.Then = foldBlock(s.Then)
		if s.Else != nil {
			s.Else = foldStmt(s.Else)
		}
		if v, known := boolConst(s.Cond); known {
			if v {
				return s.Then
			}
			if s.Else != nil {
				return s.Else
			}
			return nil
		}
		return s
	case *ForStmt:
		if s.Init != nil {
			s.Init = foldStmt(s.Init)
		}
		if s.Cond != nil {
			s.Cond = foldExpr(s.Cond)
			// `for (init; false; ...)` never runs its body. An assignment
			// init still takes effect; a declaration init is scoped to the
			// dead loop and disappears with it (keeping it hoisted could
			// collide with a later declaration of the same name).
			if v, known := boolConst(s.Cond); known && !v {
				if _, isDecl := s.Init.(*DeclStmt); s.Init != nil && !isDecl {
					return s.Init
				}
				return nil
			}
		}
		if s.Post != nil {
			s.Post = foldStmt(s.Post)
		}
		s.Body = foldBlock(s.Body)
		return s
	case *WhileStmt:
		s.Cond = foldExpr(s.Cond)
		if v, known := boolConst(s.Cond); known && !v {
			return nil
		}
		s.Body = foldBlock(s.Body)
		return s
	default:
		return s
	}
}

// boolConst reports whether e is a known constant condition.
func boolConst(e Expr) (val, known bool) {
	switch e := e.(type) {
	case *BoolLit:
		return e.Val, true
	case *IntLit:
		return e.Val != 0, true
	case *FloatLit:
		return e.Val != 0, true
	}
	return false, false
}

func foldExpr(e Expr) Expr {
	switch e := e.(type) {
	case *BinaryExpr:
		return foldBinary(e)
	case *UnaryExpr:
		e.X = foldExpr(e.X)
		switch e.Op {
		case MINUS:
			if x, ok := e.X.(*IntLit); ok {
				return retype(&IntLit{Val: -x.Val}, e)
			}
			if x, ok := e.X.(*FloatLit); ok {
				return retype(&FloatLit{Val: -x.Val}, e)
			}
		case NOT:
			if v, known := boolConst(e.X); known {
				return retype(&BoolLit{Val: !v}, e)
			}
		}
		return e
	case *CondExpr:
		e.Cond = foldExpr(e.Cond)
		e.Then = foldExpr(e.Then)
		e.Else = foldExpr(e.Else)
		if v, known := boolConst(e.Cond); known {
			if v {
				return e.Then
			}
			return e.Else
		}
		return e
	case *CallExpr:
		for i := range e.Args {
			e.Args[i] = foldExpr(e.Args[i])
		}
		return foldCall(e)
	case *IndexExpr:
		e.Idx = foldExpr(e.Idx)
		return e
	case *CastExpr:
		e.X = foldExpr(e.X)
		switch x := e.X.(type) {
		case *IntLit:
			if e.To.Kind == Float {
				return retype(&FloatLit{Val: float64(float32(x.Val))}, e)
			}
			if e.To.Kind == Int {
				return x
			}
		case *FloatLit:
			if e.To.Kind == Int {
				return retype(&IntLit{Val: FloatToInt(x.Val)}, e)
			}
			if e.To.Kind == Float {
				return x
			}
		}
		return e
	default:
		return e
	}
}

// retype copies the original expression's checked type and position onto a
// folded replacement so later compilation stages see consistent types.
func retype(n Expr, orig Expr) Expr {
	n.setType(orig.Type())
	switch n := n.(type) {
	case *IntLit:
		n.Pos = orig.NodePos()
	case *FloatLit:
		n.Pos = orig.NodePos()
	case *BoolLit:
		n.Pos = orig.NodePos()
	}
	return n
}

func foldBinary(e *BinaryExpr) Expr {
	e.X = foldExpr(e.X)
	e.Y = foldExpr(e.Y)

	// Short-circuit operators fold only from the left (the right operand
	// must not be evaluated when the left decides).
	if e.Op == ANDAND || e.Op == OROR {
		if v, known := boolConst(e.X); known {
			if e.Op == ANDAND && !v {
				return retype(&BoolLit{Val: false}, e)
			}
			if e.Op == OROR && v {
				return retype(&BoolLit{Val: true}, e)
			}
			// left is neutral: result is truthiness of the right side,
			// but the right side's type may be int — keep the expression
			// shape simple by returning Y when it is already boolean.
			if e.Y.Type().Kind == Bool {
				return e.Y
			}
		}
		return e
	}

	xi, xIsInt := e.X.(*IntLit)
	yi, yIsInt := e.Y.(*IntLit)
	xf, xIsFloat := e.X.(*FloatLit)
	yf, yIsFloat := e.Y.(*FloatLit)

	// Constant-constant folding.
	if xIsInt && yIsInt {
		switch e.Op {
		case PLUS:
			return retype(&IntLit{Val: xi.Val + yi.Val}, e)
		case MINUS:
			return retype(&IntLit{Val: xi.Val - yi.Val}, e)
		case STAR:
			return retype(&IntLit{Val: xi.Val * yi.Val}, e)
		case SLASH:
			if yi.Val != 0 {
				return retype(&IntLit{Val: xi.Val / yi.Val}, e)
			}
		case PERCENT:
			if yi.Val != 0 {
				return retype(&IntLit{Val: xi.Val % yi.Val}, e)
			}
		case LT:
			return retype(&BoolLit{Val: xi.Val < yi.Val}, e)
		case LEQ:
			return retype(&BoolLit{Val: xi.Val <= yi.Val}, e)
		case GT:
			return retype(&BoolLit{Val: xi.Val > yi.Val}, e)
		case GEQ:
			return retype(&BoolLit{Val: xi.Val >= yi.Val}, e)
		case EQ:
			return retype(&BoolLit{Val: xi.Val == yi.Val}, e)
		case NEQ:
			return retype(&BoolLit{Val: xi.Val != yi.Val}, e)
		}
		return e
	}
	if xIsFloat && yIsFloat {
		a, b := float32(xf.Val), float32(yf.Val)
		switch e.Op {
		case PLUS:
			return retype(&FloatLit{Val: float64(a + b)}, e)
		case MINUS:
			return retype(&FloatLit{Val: float64(a - b)}, e)
		case STAR:
			return retype(&FloatLit{Val: float64(a * b)}, e)
		case SLASH:
			return retype(&FloatLit{Val: float64(a / b)}, e)
		case LT:
			return retype(&BoolLit{Val: a < b}, e)
		case LEQ:
			return retype(&BoolLit{Val: a <= b}, e)
		case GT:
			return retype(&BoolLit{Val: a > b}, e)
		case GEQ:
			return retype(&BoolLit{Val: a >= b}, e)
		case EQ:
			return retype(&BoolLit{Val: a == b}, e)
		case NEQ:
			return retype(&BoolLit{Val: a != b}, e)
		}
		return e
	}

	// Algebraic identities. Integer-only for +0/*1/*0: float x+0.0 is NOT
	// an identity (-0.0 + 0.0 == +0.0) and x*0.0 is not constant (NaN/inf),
	// so floats are left alone except for multiplications by exactly 1.0,
	// which are bit-exact identities in IEEE 754.
	switch e.Op {
	case PLUS:
		if yIsInt && yi.Val == 0 {
			return e.X
		}
		if xIsInt && xi.Val == 0 {
			return e.Y
		}
	case MINUS:
		if yIsInt && yi.Val == 0 {
			return e.X
		}
	case STAR:
		if yIsInt && yi.Val == 1 {
			return e.X
		}
		if xIsInt && xi.Val == 1 {
			return e.Y
		}
		if yIsInt && yi.Val == 0 && e.X.Type().Kind == Int {
			if sideEffectFree(e.X) {
				return retype(&IntLit{Val: 0}, e)
			}
		}
		if xIsInt && xi.Val == 0 && e.Y.Type().Kind == Int {
			if sideEffectFree(e.Y) {
				return retype(&IntLit{Val: 0}, e)
			}
		}
		if yIsFloat && yf.Val == 1 && !math.Signbit(yf.Val) {
			return e.X
		}
		if xIsFloat && xf.Val == 1 && !math.Signbit(xf.Val) {
			return e.Y
		}
	case SLASH:
		if yIsInt && yi.Val == 1 {
			return e.X
		}
		if yIsFloat && yf.Val == 1 && !math.Signbit(yf.Val) {
			return e.X
		}
	}
	return e
}

// sideEffectFree reports whether evaluating e can be skipped. MiniCL
// expressions have no side effects, but loads can fault on out-of-range
// indices, so anything containing an index is kept.
func sideEffectFree(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *FloatLit, *BoolLit, *Ident:
		return true
	case *UnaryExpr:
		return sideEffectFree(e.X)
	case *BinaryExpr:
		// Division/modulo can trap.
		if e.Op == SLASH || e.Op == PERCENT {
			return false
		}
		return sideEffectFree(e.X) && sideEffectFree(e.Y)
	case *CastExpr:
		return sideEffectFree(e.X)
	case *CondExpr:
		return sideEffectFree(e.Cond) && sideEffectFree(e.Then) && sideEffectFree(e.Else)
	}
	return false
}

func foldCall(e *CallExpr) Expr {
	f1 := func(fn func(float64) float64) Expr {
		if x, ok := e.Args[0].(*FloatLit); ok {
			return retype(&FloatLit{Val: float64(float32(fn(float64(float32(x.Val)))))}, e)
		}
		return e
	}
	switch e.Name {
	case "fabs":
		return f1(math.Abs)
	case "sqrt":
		return f1(math.Sqrt)
	case "floor":
		return f1(math.Floor)
	case "ceil":
		return f1(math.Ceil)
	case "abs":
		if x, ok := e.Args[0].(*IntLit); ok {
			v := x.Val
			if v < 0 {
				v = -v
			}
			return retype(&IntLit{Val: v}, e)
		}
	case "min", "max":
		x, okx := e.Args[0].(*IntLit)
		y, oky := e.Args[1].(*IntLit)
		if okx && oky {
			v := x.Val
			if (e.Name == "min") == (y.Val < x.Val) {
				v = y.Val
			}
			return retype(&IntLit{Val: v}, e)
		}
	}
	return e
}

// FloatToInt is the one float-to-int rule, which the constant folder, both
// VM engines and the AST referee share: C's conversion, truncating toward
// zero, with NaN reading 0 and values beyond the int64 range saturating to
// its bounds (Go leaves int64(f) for those to the host: amd64 yields
// MinInt64, arm64 saturates).
func FloatToInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 1<<63:
		return math.MaxInt64
	case f < -1<<63:
		return math.MinInt64
	}
	return int64(f)
}
