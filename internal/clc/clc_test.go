package clc

import (
	"strings"
	"testing"
)

const syrkSrc = `
__kernel void syrk(__global float* A, __global float* C, int n, int m,
                   float alpha, float beta)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < n && j < n) {
        C[i * n + j] *= beta;
        float acc = 0.0f;
        for (int k = 0; k < m; k++) {
            acc += alpha * A[i * m + k] * A[j * m + k];
        }
        C[i * n + j] += acc;
    }
}
`

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("int x = 42; float y = 3.5f; // comment\n/* block */ x += 1;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwInt, IDENT, ASSIGN, INTLIT, SEMI, KwFloat, IDENT, ASSIGN, FLOATLIT, SEMI, IDENT, PLUSEQ, INTLIT, SEMI}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "== != <= >= && || ++ -- += -= *= /= ? : % !"
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{EQ, NEQ, LEQ, GEQ, ANDAND, OROR, PLUSPLUS, MINUSMINUS,
		PLUSEQ, MINUSEQ, STAREQ, SLASHEQ, QUESTION, COLON, PERCENT, NOT}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexFloatForms(t *testing.T) {
	for _, src := range []string{"1.0", "1.", ".5", "1e3", "1.5e-2", "2.0f", "3F"} {
		toks, err := LexAll(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(toks) != 1 || toks[0].Kind != FLOATLIT {
			t.Fatalf("%q lexed to %v, want one FLOATLIT", src, toks)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Fatalf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "1e+"} {
		if _, err := LexAll(src); err == nil {
			t.Fatalf("%q: expected lex error", src)
		}
	}
}

func TestParseSyrk(t *testing.T) {
	prog, err := Parse(syrkSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Kernels) != 1 {
		t.Fatalf("got %d kernels, want 1", len(prog.Kernels))
	}
	k := prog.Kernels[0]
	if k.Name != "syrk" || len(k.Params) != 6 {
		t.Fatalf("kernel %q with %d params", k.Name, len(k.Params))
	}
	if !k.Params[0].Ty.Ptr || k.Params[0].Ty.Space != SpaceGlobal || k.Params[0].Ty.Kind != Float {
		t.Fatalf("param A type = %v", k.Params[0].Ty)
	}
	if k.Params[2].Ty.Ptr || k.Params[2].Ty.Kind != Int {
		t.Fatalf("param n type = %v", k.Params[2].Ty)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	prog, err := Parse(syrkSrc)
	if err != nil {
		t.Fatal(err)
	}
	src2 := Print(prog)
	prog2, err := Parse(src2)
	if err != nil {
		t.Fatalf("re-parse of printed source failed: %v\nsource:\n%s", err, src2)
	}
	src3 := Print(prog2)
	if src2 != src3 {
		t.Fatalf("printer not idempotent:\n%s\n---\n%s", src2, src3)
	}
}

func TestParseMultipleKernels(t *testing.T) {
	src := `
__kernel void k1(__global float* a) { a[get_global_id(0)] = 1.0f; }
__kernel void k2(__global float* a) { a[get_global_id(0)] = 2.0f; }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Kernels) != 2 || prog.Kernel("k2") == nil || prog.Kernel("nope") != nil {
		t.Fatalf("kernel lookup broken")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                    // no kernels
		"__kernel void f(",                    // truncated
		"__kernel void f() { int x = ; }",     // missing expr
		"__kernel void f() { x = 1 }",         // missing semicolon
		"__kernel void f() { 1 = x; }",        // bad lvalue
		"__kernel void f() { if x { } }",      // missing paren
		"__kernel int f() { }",                // non-void kernel
		"__kernel void f(__global int n) { }", // space on non-pointer
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
}

func TestParseForVariants(t *testing.T) {
	src := `
__kernel void f(__global int* a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    for (i2 = 0; i2 < n; i2 = i2 + 2) { }
    for (;;) { break; }
    int i2;
}
`
	// i2 used before decl — parse is fine, sema would reject; parse only.
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

// TestParseIncDecStatements: ++k and --k parse as statements, as k++ and k--
// do, in a body and in a for loop's post; each becomes k = k ± 1 whose two
// sides share no node, down to the index expression.
func TestParseIncDecStatements(t *testing.T) {
	src := `
__kernel void f(__global int* a, int n) {
    int i = 0;
    ++i;
    --i;
    i++;
    ++a[i + 1];
    a[i * 2]--;
    for (int j = 0; j < n; ++j) { --a[j]; }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	want, err := Parse(`
__kernel void f(__global int* a, int n) {
    int i = 0;
    i = i + 1;
    i = i - 1;
    i = i + 1;
    a[i + 1] = a[i + 1] + 1;
    a[i * 2] = a[i * 2] - 1;
    for (int j = 0; j < n; j = j + 1) { a[j] = a[j] - 1; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := Print(prog), Print(want); got != w {
		t.Fatalf("desugared to\n%s\nwant\n%s", got, w)
	}
	body := prog.Kernels[0].Body.Stmts
	for _, s := range []Stmt{body[4], body[5]} {
		as := s.(*AssignStmt)
		lhs := as.LHS.(*IndexExpr)
		rhs := as.RHS.(*BinaryExpr).X.(*IndexExpr)
		if lhs == rhs || lhs.Base == rhs.Base || lhs.Idx == rhs.Idx {
			t.Errorf("%s: the two sides share a node", Print(prog))
		}
	}
	for _, bad := range []string{"++1;", "--(i + 1);", "++i = 2;"} {
		if _, err := Parse("__kernel void f() { int i = 0; " + bad + " }"); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseDanglingElse(t *testing.T) {
	src := `
__kernel void f(__global int* a) {
    if (a[0] > 0)
        if (a[1] > 0) a[2] = 1;
        else a[2] = 2;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Kernels[0].Body.Stmts[0].(*IfStmt)
	if outer.Else != nil {
		t.Fatal("else bound to outer if, want inner")
	}
	inner := outer.Then.Stmts[0].(*IfStmt)
	if inner.Else == nil {
		t.Fatal("inner if lost its else")
	}
}

func TestParseTernaryAndCast(t *testing.T) {
	src := `
__kernel void f(__global float* a, int n) {
    int i = get_global_id(0);
    a[i] = (i < n) ? (float)i : 0.0f;
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestSemaSyrkAccess(t *testing.T) {
	ki, err := FindKernelInfo(syrkSrc, "syrk")
	if err != nil {
		t.Fatal(err)
	}
	a := ki.ParamAccess["A"]
	if a == nil || !a.In() {
		t.Fatalf("A access = %+v, want read-only", a)
	}
	c := ki.ParamAccess["C"]
	if c == nil || !c.InOut() {
		t.Fatalf("C access = %+v, want inout", c)
	}
	if got := ki.WrittenParams(); len(got) != 1 || got[0] != "C" {
		t.Fatalf("WrittenParams = %v, want [C]", got)
	}
	if ki.HasBarrier {
		t.Fatal("syrk reported a barrier")
	}
	if ki.LoopDepth != 1 {
		t.Fatalf("LoopDepth = %d, want 1", ki.LoopDepth)
	}
}

func TestSemaOutOnlyParam(t *testing.T) {
	src := `
__kernel void f(__global float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[i] * 2.0f; }
}
`
	ki, err := FindKernelInfo(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !ki.ParamAccess["in"].In() {
		t.Fatal("in should be read-only")
	}
	if !ki.ParamAccess["out"].Out() {
		t.Fatal("out should be write-only")
	}
}

func TestSemaCompoundAssignMarksInOut(t *testing.T) {
	src := `
__kernel void f(__global float* x) {
    x[get_global_id(0)] += 1.0f;
}
`
	ki, err := FindKernelInfo(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !ki.ParamAccess["x"].InOut() {
		t.Fatalf("x access = %+v, want inout", ki.ParamAccess["x"])
	}
}

func TestSemaBarrierAndLocal(t *testing.T) {
	src := `
__kernel void f(__global float* a) {
    __local float tile[64];
    int l = get_local_id(0);
    tile[l] = a[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    a[get_global_id(0)] = tile[63 - l];
}
`
	ki, err := FindKernelInfo(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !ki.HasBarrier {
		t.Fatal("barrier not detected")
	}
	if len(ki.LocalArrays) != 1 || ki.LocalArrays[0] != "tile" {
		t.Fatalf("LocalArrays = %v", ki.LocalArrays)
	}
}

func TestSemaRejectsAtomics(t *testing.T) {
	src := `
__kernel void f(__global int* a) {
    atomic_add(a[0], 1);
}
`
	_, err := FindKernelInfo(src, "f")
	if err == nil || !strings.Contains(err.Error(), "atomic") {
		t.Fatalf("err = %v, want atomics rejection", err)
	}
}

func TestSemaErrors(t *testing.T) {
	cases := map[string]string{
		"undefined var":     `__kernel void f(__global int* a) { a[0] = x; }`,
		"redeclaration":     `__kernel void f() { int x; int x; }`,
		"dup param":         `__kernel void f(int a, int a) { }`,
		"not a pointer":     `__kernel void f(int a) { a[0] = 1; }`,
		"float index":       `__kernel void f(__global int* a, float x) { a[x] = 1; }`,
		"unknown builtin":   `__kernel void f() { frobnicate(); }`,
		"mod on float":      `__kernel void f(float x) { int y = 3 % 2; float z = x % 2.0f; }`,
		"break outside":     `__kernel void f() { break; }`,
		"bad array len":     `__kernel void f(int n) { float t[n]; }`,
		"array initializer": `__kernel void f() { float t[4] = 0.0f; }`,
		"local scalar":      `__kernel void f() { __local float x; }`,
		"assign pointer":    `__kernel void f(__global int* a, __global int* b) { a = b; }`,
	}
	for name, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Check(prog); err == nil {
			t.Errorf("%s: no sema error for %q", name, src)
		}
	}
}

func TestSemaInsertsImplicitCasts(t *testing.T) {
	src := `
__kernel void f(__global float* a, int n) {
    a[0] = n;
    int k = 2.5f;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	asn := prog.Kernels[0].Body.Stmts[0].(*AssignStmt)
	if _, ok := asn.RHS.(*CastExpr); !ok {
		t.Fatalf("RHS of a[0] = n is %T, want CastExpr", asn.RHS)
	}
	decl := prog.Kernels[0].Body.Stmts[1].(*DeclStmt)
	if _, ok := decl.Init.(*CastExpr); !ok {
		t.Fatalf("init of k is %T, want CastExpr", decl.Init)
	}
}

func TestConstEval(t *testing.T) {
	cases := map[string]int64{
		"4":           4,
		"2 + 3 * 4":   14,
		"(8 / 2) % 3": 1,
		"-5":          -5,
		"16 - 4":      12,
		"2 * (3 + 1)": 8,
	}
	for src, want := range cases {
		toks := "__kernel void f(__global int* a) { a[0] = " + src + "; }"
		prog, err := Parse(toks)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		asn := prog.Kernels[0].Body.Stmts[0].(*AssignStmt)
		got, ok := ConstEval(asn.RHS)
		if !ok || got != want {
			t.Errorf("ConstEval(%s) = %d, %v; want %d", src, got, ok, want)
		}
	}
	// non-constant
	prog := MustParse("__kernel void f(__global int* a, int n) { a[0] = n + 1; }")
	asn := prog.Kernels[0].Body.Stmts[0].(*AssignStmt)
	if _, ok := ConstEval(asn.RHS); ok {
		t.Error("ConstEval accepted non-constant expression")
	}
}

func TestRecheckAfterMutation(t *testing.T) {
	// Passes mutate the AST and re-run Check; make sure double-checking is
	// stable (casts are not re-wrapped, access info is rebuilt).
	prog := MustParse(syrkSrc)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	pi, err := Check(prog)
	if err != nil {
		t.Fatalf("second Check failed: %v", err)
	}
	if !pi.Kernels["syrk"].ParamAccess["C"].InOut() {
		t.Fatal("access info lost on re-check")
	}
}
