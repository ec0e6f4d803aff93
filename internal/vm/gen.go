package vm

// Random MiniCL kernel generation, shared by the VM's differential test
// (compiler+VM vs the independent AST interpreter) and the analyzer's
// differential test (dynamic access sets vs static summaries).

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenProgram returns a random — but deterministic, well-typed and
// terminating — MiniCL kernel named "diff" over the fixed signature
// (__global float* fbuf, __global int* ibuf, int n, int p1, float fp).
func GenProgram(r *rand.Rand) string {
	g := &progGen{r: r}
	return g.generate()
}

// progGen generates random—but deterministic, well-typed, terminating—kernels.
type progGen struct {
	r      *rand.Rand
	b      strings.Builder
	indent int
	// in-scope variable names by type; the first nRO entries of ints are
	// read-only (parameters like n, whose mutation would break the
	// safe-index/safe-divisor invariants).
	ints   []string
	nROInt int
	floats []string
	nVars  int
	nLoops int
	depth  int
}

func (g *progGen) w(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("    ", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteString("\n")
}

func (g *progGen) freshVar() string {
	g.nVars++
	return fmt.Sprintf("v%d", g.nVars)
}

// intExpr produces a random int-typed expression using in-scope variables.
func (g *progGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(21)-10)
		case 1:
			if len(g.ints) > 0 {
				return g.ints[g.r.Intn(len(g.ints))]
			}
			return "i"
		default:
			return "i"
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		// Division and modulo by a guaranteed-nonzero constant.
		return fmt.Sprintf("(%s %s %d)", g.intExpr(depth-1),
			[]string{"/", "%"}[g.r.Intn(2)], g.r.Intn(9)+1)
	case 4:
		return fmt.Sprintf("min(%s, %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 5:
		return fmt.Sprintf("max(abs(%s), %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 6:
		return fmt.Sprintf("(%s ? %s : %s)", g.boolExpr(depth-1), g.intExpr(depth-1), g.intExpr(depth-1))
	default:
		return fmt.Sprintf("(int)%s", g.floatExpr(depth-1))
	}
}

func (g *progGen) floatExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%.3ff", g.r.Float64()*8-4)
		case 1:
			if len(g.floats) > 0 {
				return g.floats[g.r.Intn(len(g.floats))]
			}
			return "fp"
		default:
			return "fp"
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 3:
		// Divide by something bounded away from zero.
		return fmt.Sprintf("(%s / (fabs(%s) + 1.0f))", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 4:
		return fmt.Sprintf("sqrt(fabs(%s))", g.floatExpr(depth-1))
	case 5:
		return fmt.Sprintf("fmin(%s, fmax(%s, -8.0f))", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 6:
		return fmt.Sprintf("(%s ? %s : %s)", g.boolExpr(depth-1), g.floatExpr(depth-1), g.floatExpr(depth-1))
	default:
		return fmt.Sprintf("(float)%s", g.intExpr(depth-1))
	}
}

func (g *progGen) boolExpr(depth int) string {
	if depth <= 0 {
		return fmt.Sprintf("(%s < %s)", g.intExpr(0), g.intExpr(0))
	}
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1),
			[]string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)], g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s %s %s)", g.floatExpr(depth-1),
			[]string{"<", "<=", ">", ">="}[g.r.Intn(4)], g.floatExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 3:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(!%s)", g.boolExpr(depth-1))
	}
}

func (g *progGen) stmts(budget int) {
	for s := 0; s < budget; s++ {
		switch g.r.Intn(10) {
		case 0, 1:
			v := g.freshVar()
			g.w("int %s = %s;", v, g.intExpr(2))
			g.ints = append(g.ints, v)
		case 2, 3:
			v := g.freshVar()
			g.w("float %s = %s;", v, g.floatExpr(2))
			g.floats = append(g.floats, v)
		case 4:
			if len(g.ints) > g.nROInt {
				v := g.ints[g.nROInt+g.r.Intn(len(g.ints)-g.nROInt)]
				g.w("%s %s %s;", v, []string{"=", "+=", "-=", "*="}[g.r.Intn(4)], g.intExpr(2))
			}
		case 5:
			if len(g.floats) > 0 {
				v := g.floats[g.r.Intn(len(g.floats))]
				g.w("%s %s %s;", v, []string{"=", "+=", "-=", "*="}[g.r.Intn(4)], g.floatExpr(2))
			}
		case 6:
			if g.depth < 2 {
				g.depth++
				g.w("if (%s) {", g.boolExpr(2))
				g.indent++
				nI, nF := len(g.ints), len(g.floats)
				g.stmts(budget / 2)
				g.ints, g.floats = g.ints[:nI], g.floats[:nF]
				g.indent--
				if g.r.Intn(2) == 0 {
					g.w("} else {")
					g.indent++
					g.stmts(budget / 2)
					g.ints, g.floats = g.ints[:nI], g.floats[:nF]
					g.indent--
				}
				g.w("}")
				g.depth--
			}
		case 7:
			if g.depth < 2 {
				g.depth++
				g.nLoops++
				l := fmt.Sprintf("l%d", g.nLoops)
				g.w("for (int %s = 0; %s < %d; %s++) {", l, l, g.r.Intn(6)+1, l)
				g.indent++
				// Loop counters are readable but never assignment targets
				// (mutating one could diverge the two engines' step
				// budgets): insert into the read-only prefix.
				g.ints = append(g.ints, "")
				copy(g.ints[g.nROInt+1:], g.ints[g.nROInt:])
				g.ints[g.nROInt] = l
				g.nROInt++
				nI, nF := len(g.ints), len(g.floats)
				g.stmts(budget / 2)
				g.ints, g.floats = g.ints[:nI], g.floats[:nF]
				g.nROInt--
				g.ints = append(g.ints[:g.nROInt], g.ints[g.nROInt+1:]...)
				g.indent--
				g.w("}")
				g.depth--
			}
		case 8:
			// Buffer update at a safe index.
			g.w("fbuf[abs(%s) %% n] = %s;", g.intExpr(1), g.floatExpr(2))
		case 9:
			g.w("ibuf[abs(%s) %% n] = %s;", g.intExpr(1), g.intExpr(2))
		}
	}
}

func (g *progGen) generate() string {
	g.b.Reset()
	g.w("__kernel void diff(__global float* fbuf, __global int* ibuf, int n, int p1, float fp) {")
	g.indent++
	g.w("int i = get_global_id(0);")
	g.w("if (i < n) {")
	g.indent++
	g.ints = []string{"i", "n", "p1"}
	g.nROInt = 2 // i and n are read-only (index and divisor safety)
	g.floats = []string{"fp"}
	g.stmts(8)
	g.w("fbuf[i] = %s;", g.floatExpr(3))
	g.w("ibuf[i] = %s;", g.intExpr(3))
	g.indent--
	g.w("}")
	g.indent--
	g.w("}")
	return g.b.String()
}

// GenReduction returns a random multiply-accumulate kernel named "red" over
// the fixed signature (__global float* out, __global float* a,
// __global float* b, int n, int m, float alpha): one counted loop whose body
// is a chain of `acc += [alpha *] x[..] * y[..] ...` statements — the shape
// the wg engine's reduction jam matches (1–5 terms of 1–4 factors, so the
// plan's caps are crossed too), seeded or not, indices affine (i*m + k,
// k*n + i) or direct (k) — followed by one store per accumulator. Every
// index stays below n*m for a launch of n work-items, so a and b need n*m
// floats and out 2*n.
func GenReduction(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("__kernel void red(__global float* out, __global float* a, __global float* b, int n, int m, float alpha) {\n")
	b.WriteString("    int i = get_global_id(0);\n")
	b.WriteString("    if (i < n) {\n")
	nAcc := 1 + r.Intn(2)
	for j := 0; j < nAcc; j++ {
		fmt.Fprintf(&b, "        float acc%d = %d.5f;\n", j, j)
	}
	b.WriteString("        for (int k = 0; k < m; k++) {\n")
	for t, nt := 0, 1+r.Intn(5); t < nt; t++ {
		var fs []string
		if r.Intn(2) == 0 {
			fs = append(fs, "alpha")
		}
		for f, nf := 0, 1+r.Intn(4); f < nf; f++ {
			buf := []string{"a", "b"}[r.Intn(2)]
			idx := []string{"i * m + k", "k * n + i", "k"}[r.Intn(3)]
			fs = append(fs, fmt.Sprintf("%s[%s]", buf, idx))
		}
		fmt.Fprintf(&b, "            acc%d += %s;\n", r.Intn(nAcc), strings.Join(fs, " * "))
	}
	b.WriteString("        }\n")
	for j := 0; j < nAcc; j++ {
		fmt.Fprintf(&b, "        out[%d * n + i] = acc%d;\n", j, j)
	}
	b.WriteString("    }\n}\n")
	return b.String()
}
