package clc

import (
	"fmt"
	"strconv"
	"strings"
)

// ScalarKind is one of MiniCL's scalar element types.
type ScalarKind int

// Scalar kinds.
const (
	Invalid ScalarKind = iota
	Int                // 32-bit in device memory, 64-bit in registers
	Float              // 32-bit IEEE in device memory and arithmetic
	Bool
	Void
)

func (k ScalarKind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Void:
		return "void"
	}
	return "invalid"
}

// Size returns the in-memory size of the scalar in bytes.
func (k ScalarKind) Size() int {
	switch k {
	case Int, Float:
		return 4
	case Bool:
		return 1
	}
	return 0
}

// AddrSpace is an OpenCL address-space qualifier.
type AddrSpace int

// Address spaces.
const (
	SpaceNone AddrSpace = iota
	SpaceGlobal
	SpaceLocal
	SpacePrivate
)

func (s AddrSpace) String() string {
	switch s {
	case SpaceGlobal:
		return "__global"
	case SpaceLocal:
		return "__local"
	case SpacePrivate:
		return "__private"
	}
	return ""
}

// Type is a MiniCL type: a scalar, or a pointer to a scalar in some address
// space.
type Type struct {
	Kind  ScalarKind
	Ptr   bool
	Space AddrSpace // meaningful when Ptr
}

// ScalarType returns the non-pointer type with kind k.
func ScalarType(k ScalarKind) Type { return Type{Kind: k} }

// PointerType returns a pointer type to k in space.
func PointerType(k ScalarKind, space AddrSpace) Type {
	return Type{Kind: k, Ptr: true, Space: space}
}

func (t Type) String() string {
	if t.Ptr {
		return fmt.Sprintf("%s %s*", t.Space, t.Kind)
	}
	return t.Kind.String()
}

// Equal reports type identity.
func (t Type) Equal(o Type) bool { return t == o }

// ---- AST nodes ----

// Node is any AST node.
type Node interface {
	NodePos() Pos
}

// Expr is an expression node. Sema records the expression's type in
// SetType/ExprType.
type Expr interface {
	Node
	exprNode()
	// Type returns the type assigned by semantic analysis (zero Type before).
	Type() Type
	setType(Type)
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

type exprBase struct {
	Pos Pos
	Ty  Type
}

func (e *exprBase) NodePos() Pos   { return e.Pos }
func (e *exprBase) exprNode()      {}
func (e *exprBase) Type() Type     { return e.Ty }
func (e *exprBase) setType(t Type) { e.Ty = t }

// Ident is a variable or parameter reference.
type Ident struct {
	exprBase
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Val float64
}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Val bool
}

// BinaryExpr is X op Y.
type BinaryExpr struct {
	exprBase
	Op   Kind
	X, Y Expr
}

// UnaryExpr is op X (MINUS or NOT).
type UnaryExpr struct {
	exprBase
	Op Kind
	X  Expr
}

// CondExpr is Cond ? Then : Else.
type CondExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// CallExpr is a builtin call: Name(Args...).
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
}

// IndexExpr is Base[Idx] where Base names a pointer parameter or an array
// variable.
type IndexExpr struct {
	exprBase
	Base *Ident
	Idx  Expr
}

// CastExpr is (To)X. Sema also inserts implicit casts as CastExpr nodes so
// the compiler only sees explicit conversions.
type CastExpr struct {
	exprBase
	To Type
	X  Expr
}

// ---- statements ----

// Block is { Stmts... }.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

func (s *Block) NodePos() Pos { return s.Pos }
func (s *Block) stmtNode()    {}

// DeclStmt declares a scalar variable or a fixed-size array.
//
//	int i = 0;              Elem=Int, ArrayLen=nil, Init=...
//	__local float t[64];    Elem=Float, Space=SpaceLocal, ArrayLen=IntLit(64)
type DeclStmt struct {
	Pos      Pos
	Name     string
	Elem     ScalarKind
	Space    AddrSpace // SpaceNone/SpacePrivate for scalars and private arrays
	ArrayLen Expr      // nil for scalars; constant expression for arrays
	Init     Expr      // nil if absent (arrays never have initializers)
}

func (s *DeclStmt) NodePos() Pos { return s.Pos }
func (s *DeclStmt) stmtNode()    {}

// AssignStmt is LHS op= RHS, with Op one of ASSIGN, PLUSEQ, MINUSEQ, STAREQ,
// SLASHEQ. LHS is an Ident or IndexExpr.
type AssignStmt struct {
	Pos Pos
	Op  Kind
	LHS Expr
	RHS Expr
}

func (s *AssignStmt) NodePos() Pos { return s.Pos }
func (s *AssignStmt) stmtNode()    {}

// ExprStmt evaluates an expression for effect (builtin calls like barrier()).
type ExprStmt struct {
	Pos Pos
	X   Expr
}

func (s *ExprStmt) NodePos() Pos { return s.Pos }
func (s *ExprStmt) stmtNode()    {}

// IfStmt is if (Cond) Then [else Else]. Else is a *Block or *IfStmt or nil.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *Block
	Else Stmt
}

func (s *IfStmt) NodePos() Pos { return s.Pos }
func (s *IfStmt) stmtNode()    {}

// ForStmt is for (Init; Cond; Post) Body. Init and Post may be nil; Cond may
// be nil (infinite loop).
type ForStmt struct {
	Pos  Pos
	Init Stmt // DeclStmt or AssignStmt or nil
	Cond Expr
	Post Stmt // AssignStmt or nil
	Body *Block
}

func (s *ForStmt) NodePos() Pos { return s.Pos }
func (s *ForStmt) stmtNode()    {}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body *Block
}

func (s *WhileStmt) NodePos() Pos { return s.Pos }
func (s *WhileStmt) stmtNode()    {}

// ReturnStmt exits the kernel for the current work-item.
type ReturnStmt struct{ Pos Pos }

func (s *ReturnStmt) NodePos() Pos { return s.Pos }
func (s *ReturnStmt) stmtNode()    {}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

func (s *BreakStmt) NodePos() Pos { return s.Pos }
func (s *BreakStmt) stmtNode()    {}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

func (s *ContinueStmt) NodePos() Pos { return s.Pos }
func (s *ContinueStmt) stmtNode()    {}

// ---- declarations ----

// Param is a kernel parameter.
type Param struct {
	Pos  Pos
	Name string
	Ty   Type
}

// Kernel is a __kernel function definition.
type Kernel struct {
	Pos    Pos
	Name   string
	Params []*Param
	Body   *Block
}

// Program is a parsed MiniCL translation unit.
type Program struct {
	Kernels []*Kernel
}

// Kernel returns the kernel with the given name, or nil.
func (p *Program) Kernel(name string) *Kernel {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// ---- source printer (used by the source-to-source passes and tests) ----

// Print renders the program back to MiniCL source.
func Print(p *Program) string {
	var b strings.Builder
	for i, k := range p.Kernels {
		if i > 0 {
			b.WriteString("\n")
		}
		printKernel(&b, k)
	}
	return b.String()
}

// PrintKernel renders one kernel to MiniCL source.
func PrintKernel(k *Kernel) string {
	var b strings.Builder
	printKernel(&b, k)
	return b.String()
}

func printKernel(b *strings.Builder, k *Kernel) {
	fmt.Fprintf(b, "__kernel void %s(", k.Name)
	for i, p := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.Ty.Ptr {
			fmt.Fprintf(b, "%s %s* %s", p.Ty.Space, p.Ty.Kind, p.Name)
		} else {
			fmt.Fprintf(b, "%s %s", p.Ty.Kind, p.Name)
		}
	}
	b.WriteString(")\n")
	printBlock(b, k.Body, 0)
}

func ind(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	ind(b, depth)
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		printStmt(b, s, depth+1)
	}
	ind(b, depth)
	b.WriteString("}\n")
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	switch s := s.(type) {
	case *Block:
		printBlock(b, s, depth)
	case *DeclStmt:
		ind(b, depth)
		if s.Space == SpaceLocal {
			b.WriteString("__local ")
		}
		fmt.Fprintf(b, "%s %s", s.Elem, s.Name)
		if s.ArrayLen != nil {
			fmt.Fprintf(b, "[%s]", ExprString(s.ArrayLen))
		}
		if s.Init != nil {
			fmt.Fprintf(b, " = %s", ExprString(s.Init))
		}
		b.WriteString(";\n")
	case *AssignStmt:
		ind(b, depth)
		op := "="
		switch s.Op {
		case PLUSEQ:
			op = "+="
		case MINUSEQ:
			op = "-="
		case STAREQ:
			op = "*="
		case SLASHEQ:
			op = "/="
		}
		fmt.Fprintf(b, "%s %s %s;\n", ExprString(s.LHS), op, ExprString(s.RHS))
	case *ExprStmt:
		ind(b, depth)
		fmt.Fprintf(b, "%s;\n", ExprString(s.X))
	case *IfStmt:
		ind(b, depth)
		fmt.Fprintf(b, "if (%s)\n", ExprString(s.Cond))
		printBlock(b, s.Then, depth)
		if s.Else != nil {
			ind(b, depth)
			b.WriteString("else\n")
			printStmt(b, s.Else, depth)
		}
	case *ForStmt:
		ind(b, depth)
		b.WriteString("for (")
		if s.Init != nil {
			b.WriteString(strings.TrimSuffix(strings.TrimSpace(stmtInline(s.Init)), ";"))
		}
		b.WriteString("; ")
		if s.Cond != nil {
			b.WriteString(ExprString(s.Cond))
		}
		b.WriteString("; ")
		if s.Post != nil {
			b.WriteString(strings.TrimSuffix(strings.TrimSpace(stmtInline(s.Post)), ";"))
		}
		b.WriteString(")\n")
		printBlock(b, s.Body, depth)
	case *WhileStmt:
		ind(b, depth)
		fmt.Fprintf(b, "while (%s)\n", ExprString(s.Cond))
		printBlock(b, s.Body, depth)
	case *ReturnStmt:
		ind(b, depth)
		b.WriteString("return;\n")
	case *BreakStmt:
		ind(b, depth)
		b.WriteString("break;\n")
	case *ContinueStmt:
		ind(b, depth)
		b.WriteString("continue;\n")
	default:
		ind(b, depth)
		fmt.Fprintf(b, "/* unknown stmt %T */\n", s)
	}
}

func stmtInline(s Stmt) string {
	var b strings.Builder
	printStmt(&b, s, 0)
	return strings.TrimSuffix(b.String(), "\n")
}

// ExprString renders an expression to source form.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return strconv.FormatInt(e.Val, 10)
	case *FloatLit:
		s := strconv.FormatFloat(e.Val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s + "f"
	case *BoolLit:
		if e.Val {
			return "true"
		}
		return "false"
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", ExprString(e.X), e.Op, ExprString(e.Y))
	case *UnaryExpr:
		return fmt.Sprintf("(%s%s)", e.Op, ExprString(e.X))
	case *CondExpr:
		return fmt.Sprintf("(%s ? %s : %s)", ExprString(e.Cond), ExprString(e.Then), ExprString(e.Else))
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", e.Base.Name, ExprString(e.Idx))
	case *CastExpr:
		return fmt.Sprintf("((%s)%s)", e.To.Kind, ExprString(e.X))
	}
	return fmt.Sprintf("/*?%T*/", e)
}
