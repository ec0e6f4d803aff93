// Package vmref holds the test infrastructure that judges the VM: the
// independent AST interpreter (ref.go) and random MiniCL kernel generation,
// shared by the VM's differential tests (compiler+VM vs the AST interpreter)
// and the analyzer's differential test (dynamic access sets vs static
// summaries). It does not import the VM, so the VM's own in-package tests can
// import it; no non-test code does.
package vmref

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenProgram returns a random — but deterministic, well-typed and
// terminating — MiniCL kernel named "diff" over the fixed signature
// (__global float* fbuf, __global int* ibuf, int n, int p1, float fp),
// sometimes with a top-level private array pv that it reads before writing
// and, inside a loop, a private array declared in the loop body that each
// trip reads before writing.
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
	// priv is set once a statement has used the private array pv, which
	// generate then declares at the top of the kernel. loops is the number
	// of counted loops around the statement being generated, nPriv the
	// number of private arrays declared in loop bodies so far.
	priv         bool
	loops, nPriv int
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
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(21)-10)
		case 1:
			if len(g.ints) > 0 {
				return g.ints[g.r.Intn(len(g.ints))]
			}
			return "i"
		case 2:
			return g.workItemCall()
		default:
			return "i"
		}
	}
	switch g.r.Intn(9) {
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
	case 7:
		return fmt.Sprintf("(-(%s))", g.intExpr(depth-1))
	default:
		return fmt.Sprintf("(int)%s", g.floatExpr(depth-1))
	}
}

// workItemCall draws a work-item builtin. The dimension comes from {0, 1, 2,
// 3, -1}: 3 and -1 name no dimension, which reads 0 for an id and 1 for a
// size. One time in six it is computed instead, an in-scope int variable
// modulo 4 (from -3 to 3, so it too may name no dimension), which differs
// between work-items when the variable does.
func (g *progGen) workItemCall() string {
	name := []string{"get_global_id", "get_local_id", "get_group_id", "get_num_groups",
		"get_local_size", "get_global_size", "get_global_offset", "get_work_dim"}[g.r.Intn(8)]
	if name == "get_work_dim" {
		return "get_work_dim()"
	}
	if g.r.Intn(6) == 0 {
		return fmt.Sprintf("%s(%s %% 4)", name, g.ints[g.r.Intn(len(g.ints))])
	}
	return fmt.Sprintf("%s(%d)", name, []int{0, 1, 2, 3, -1}[g.r.Intn(5)])
}

func (g *progGen) floatExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%.3ff", float64(g.r.Float64()*8)-4)
		case 1:
			if len(g.floats) > 0 {
				return g.floats[g.r.Intn(len(g.floats))]
			}
			return "fp"
		default:
			return "fp"
		}
	}
	switch g.r.Intn(13) {
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
	case 7:
		return fmt.Sprintf("(-(%s))", g.floatExpr(depth-1))
	case 8:
		return fmt.Sprintf("%s(%s)", []string{"floor", "ceil"}[g.r.Intn(2)], g.floatExpr(depth-1))
	case 9:
		// Domain guards: exp stays finite, log and pow see a base of at least 1.
		return fmt.Sprintf("exp(fmin(%s, 8.0f))", g.floatExpr(depth-1))
	case 10:
		return fmt.Sprintf("log(fabs(%s) + 1.0f)", g.floatExpr(depth-1))
	case 11:
		return fmt.Sprintf("pow(fabs(%s) + 1.0f, fmin(fabs(%s), 4.0f))", g.floatExpr(depth-1), g.floatExpr(depth-1))
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
			[]string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)], g.floatExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 3:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(!%s)", g.boolExpr(depth-1))
	}
}

// safeIndex produces an in-range buffer index: half the time the work-item's
// own word, which leaves a kernel the lockstep engine may admit, otherwise
// any word.
func (g *progGen) safeIndex() string {
	if g.r.Intn(2) == 0 {
		return "i"
	}
	return fmt.Sprintf("abs(%s) %% n", g.intExpr(1))
}

// groupExpr produces a random group-uniform int expression: group ids, group
// counts, the local size, p1 and constants under +, - and *.
func (g *progGen) groupExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return fmt.Sprintf("get_group_id(%d)", g.r.Intn(2))
		case 1:
			return fmt.Sprintf("get_num_groups(%d)", g.r.Intn(2))
		case 2:
			return "get_local_size(0)"
		case 3:
			return "p1"
		default:
			return fmt.Sprintf("%d", g.r.Intn(21)-10)
		}
	}
	return fmt.Sprintf("(%s %s %s)", g.groupExpr(depth-1), []string{"+", "-", "*"}[g.r.Intn(3)], g.groupExpr(depth-1))
}

// countedLoop returns the header of a loop over the fresh counter l that
// runs 1 to max trips: from a start in [-10, 10], up or down by a step of 1
// to 3 written l = l + s (the increment the wg engine's reduction jam
// matches), to a bound under <, <= or != (>, >= or != going down), a !=
// bound being hit exactly.
func (g *progGen) countedLoop(l string, max int) string {
	trips, step, start := g.r.Intn(max)+1, g.r.Intn(3)+1, g.r.Intn(21)-10
	last, cmp := start+(trips-1)*step, []string{"<", "<=", "!="}[g.r.Intn(3)]
	bound := map[string]int{"<": last + 1, "<=": last, "!=": last + step}[cmp]
	if g.r.Intn(2) == 0 {
		last, step, cmp = start-(trips-1)*step, -step, map[string]string{"<": ">", "<=": ">=", "!=": "!="}[cmp]
		bound = map[string]int{">": last - 1, ">=": last, "!=": last + step}[cmp]
	}
	return fmt.Sprintf("int %s = %d; %s %s %d; %s = %s + %d", l, start, l, cmp, bound, l, l, step)
}

// divergentReduction emits a reduction loop over the work-item's own word
// (a read the lockstep engine's certificate admits) that only part of a
// work-group reaches: under a guard on the global id, or inside an outer loop
// whose start depends on it, so lanes leave that loop one round at a time.
// The outer loop's float op keeps it out of the inner loop's control.
func (g *progGen) divergentReduction() {
	g.nLoops++
	l, v := fmt.Sprintf("l%d", g.nLoops), g.freshVar()
	g.w("float %s = %s;", v, g.floatExpr(1))
	outer := g.r.Intn(2) == 0
	if outer {
		g.w("for (int o%d = i %% %d; o%d < 3; o%d++) {", g.nLoops, g.r.Intn(3)+2, g.nLoops, g.nLoops)
	} else {
		g.w("if (%s) {", fmt.Sprintf([]string{"i < %d", "i %% %d == 0"}[g.r.Intn(2)], g.r.Intn(40)+2))
	}
	g.indent++
	g.w("for (%s) {", g.countedLoop(l, 64))
	g.w("    %s += %s;", v, []string{"fbuf[i] * fbuf[i]", "fp * fbuf[i]", "fbuf[i]"}[g.r.Intn(3)])
	g.w("}")
	if outer {
		g.w("%s = %s * 0.5f;", v, v)
	}
	g.indent--
	g.w("}")
	g.floats = append(g.floats, v)
}

// scopeShape emits one of three stores whose index a walker that ignores
// scopes, zero-trip loops or reassigned bounds would take for the
// work-item's own word: an index assigned only inside a loop that runs no
// trip when p1 <= 0 (and at most 9 however far the program has multiplied
// p1), a loop bound the body raises after its first trip, and
// an inner declaration that hides an outer variable only inside its block.
func (g *progGen) scopeShape() {
	g.nLoops++
	l, v := fmt.Sprintf("l%d", g.nLoops), g.freshVar()
	switch g.r.Intn(3) {
	case 0:
		g.w("int %s = 0;", v)
		g.w("for (int %s = 0; %s < min(p1, 9); %s++) { %s = i; }", l, l, l, v)
		g.w("fbuf[%s] += %s;", v, g.floatExpr(1))
	case 1:
		g.w("int %s = 1;", v)
		g.w("for (int %s = 0; %s < %s; %s++) {", l, l, v, l)
		g.w("    if (i + %s < n) { fbuf[i + %s] = %s; }", l, l, g.floatExpr(1))
		g.w("    %s = %d;", v, g.r.Intn(3)+2)
		g.w("}")
	default:
		g.w("int %s = 0;", v)
		g.w("{")
		g.w("    int %s = i;", v)
		g.w("    fbuf[%s] = %s;", v, g.floatExpr(1))
		g.w("}")
		g.w("fbuf[%s] += %s;", v, g.floatExpr(1))
	}
}

// edgeLoad emits two loads a group of 16 lanes past the item's word: a whole
// group of 16 or fewer lanes reads consecutive words that none of its own
// items writes, so the lockstep engine keeps the kernel. In a 32-word launch
// in groups of 16 the guarded load reads group 0's in range. The other, at
// i + 16 + c with c in [0, 3] from the count of variables so far (so it
// draws nothing from r and leaves the rest of the program as it was), leaves
// the buffer at lane 16 - c of group 0, or at lane 0 of group 1, and traps.
// It runs only when the argument p1 (p0, which no statement assigns) is
// below -6, which no test's fixed seeds reach (their p1 is seed%13 - 6 of a
// non-negative seed) and FuzzDifferential's negative seeds do.
func (g *progGen) edgeLoad() {
	g.w("if (i + 16 < n) { u += ibuf[i + 16]; }")
	g.w("if (p0 < -6) { u -= (int)fbuf[i + %d]; }", 16+g.nVars%4)
}

// privRead emits a read-modify-write of the private array pv at the item's
// own slot i % 4, and a read of slot (i + c) % 4 into u, with c in [0, 3]
// from the count of variables so far (so it draws nothing from r, like
// edgeLoad). Nothing initialises pv, so the first statement of the kind an
// item runs reads its slots before writing them: every engine must give each
// work-item its own zeroed slabs, and one that carried them from one item to
// the next would read the slots an earlier item of the group wrote. Inside
// a loop it also declares an array qN there, which each trip reads before
// writing: a declaration that executes again keeps its contents, so a trip
// reads what the trip before it wrote (the first reads zeros).
func (g *progGen) privRead() {
	g.priv = true
	g.w("pv[i %% 4] += (float)(i %% 7) + 0.5f;")
	g.w("u += (int)(pv[(i + %d) %% 4] * 2.0f);", g.nVars%4)
	if g.loops > 0 {
		g.nPriv++
		q := fmt.Sprintf("q%d", g.nPriv)
		g.w("float %s[2];", q)
		g.w("u += (int)(%s[i %% 2] * 4.0f);", q)
		g.w("%s[i %% 2] = %s[i %% 2] + (float)(i %% 5) + 0.25f;", q, q)
	}
}

func (g *progGen) stmts(budget int) {
	for s := 0; s < budget; s++ {
		switch g.r.Intn(13) {
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
				g.w("for (%s) {", g.countedLoop(l, 6))
				g.indent++
				// Loop counters are readable but never assignment targets
				// (mutating one could diverge the two engines' step
				// budgets): insert into the read-only prefix.
				g.ints = append(g.ints, "")
				copy(g.ints[g.nROInt+1:], g.ints[g.nROInt:])
				g.ints[g.nROInt] = l
				g.nROInt++
				nI, nF := len(g.ints), len(g.floats)
				g.loops++
				g.stmts(budget / 2)
				g.loops--
				g.ints, g.floats = g.ints[:nI], g.floats[:nF]
				g.nROInt--
				g.ints = append(g.ints[:g.nROInt], g.ints[g.nROInt+1:]...)
				g.indent--
				g.w("}")
				g.depth--
			}
		case 8:
			g.w("fbuf[%s] = %s;", g.safeIndex(), g.floatExpr(2))
		case 9:
			g.w("ibuf[%s] = %s;", g.safeIndex(), g.intExpr(2))
		case 10:
			// A group-uniform value on one arm of an if whose condition is
			// uniform (on p1) or divergent (on the global id); the final
			// store reads u after the join.
			g.w("u = %s;", g.intExpr(1))
			switch g.r.Intn(3) {
			case 0:
				g.w("if (p1 > %d) {", g.r.Intn(13)-6)
			case 1:
				g.w("if (i < %d) {", g.r.Intn(40))
			default:
				g.w("if (i %% %d == 0) {", g.r.Intn(3)+2)
			}
			g.indent++
			g.w("u = %s;", g.groupExpr(2))
			g.indent--
			g.w("}")
		case 11:
			if g.depth < 2 {
				g.divergentReduction()
			}
		case 12:
			switch g.r.Intn(4) {
			case 0:
				g.scopeShape()
			case 1:
				g.edgeLoad()
			case 2:
				g.privRead()
			}
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
	g.w("int u = 0;")
	g.w("int p0 = p1;")
	g.stmts(8)
	g.w("fbuf[i] = %s;", g.floatExpr(3))
	g.w("ibuf[i] = %s + u;", g.intExpr(3))
	g.indent--
	g.w("}")
	g.indent--
	g.w("}")
	src := g.b.String()
	if g.priv {
		head, body, _ := strings.Cut(src, "\n")
		src = head + "\n    float pv[4];\n" + body
	}
	return src
}

// GenReduction returns a random multiply-accumulate kernel named "red" over
// the fixed signature (__global float* out, __global float* a,
// __global float* b, int n, int m, float alpha), and the local size to launch
// it with: 8, 12 or 16. The kernel is one counted loop whose body is a chain
// of `acc += [alpha *] x[..] * y[..] ...` statements — the shape the wg
// engine's reduction jam matches — seeded or not, indices affine (i*m + k,
// k*n + i) or direct (k), followed by one store per accumulator. Half the
// bodies are free-form (1–5 terms of 1–4 factors, so the plan's caps are
// crossed too); the other half give every accumulator one of the paper's dot
// shapes, which the lane blocks run on a leaf: a term pair whose first or
// whose second factor reads one word in every lane, or whose factors are
// both lane-contiguous, or two terms whose first factors read one word and
// whose second factors one index. One kernel in four seeds its terms with a
// value that differs from lane to lane. Every index stays below n*m for a
// launch of n work-items, so a and b need n*m floats and out 2*n.
func GenReduction(r *rand.Rand) (string, int) {
	var b strings.Builder
	b.WriteString("__kernel void red(__global float* out, __global float* a, __global float* b, int n, int m, float alpha) {\n")
	b.WriteString("    int i = get_global_id(0);\n")
	b.WriteString("    if (i < n) {\n")
	seed := "alpha"
	if r.Intn(4) == 0 {
		seed = "beta"
		b.WriteString("        float beta = alpha + (float)(i % 3);\n")
	}
	nAcc := 1 + r.Intn(2)
	for j := 0; j < nAcc; j++ {
		fmt.Fprintf(&b, "        float acc%d = %d.5f;\n", j, j)
	}
	b.WriteString("        for (int k = 0; k < m; k++) {\n")
	buf := func() string { return []string{"a", "b"}[r.Intn(2)] }
	idxs := []string{"i * m + k", "k * n + i", "k"}
	term := func(acc int, fs ...string) {
		if r.Intn(2) == 0 {
			fs = append([]string{seed}, fs...)
		}
		fmt.Fprintf(&b, "            acc%d += %s;\n", acc, strings.Join(fs, " * "))
	}
	if r.Intn(2) == 0 {
		for t, nt := 0, 1+r.Intn(5); t < nt; t++ {
			var fs []string
			for f, nf := 0, 1+r.Intn(4); f < nf; f++ {
				fs = append(fs, fmt.Sprintf("%s[%s]", buf(), idxs[r.Intn(3)]))
			}
			term(r.Intn(nAcc), fs...)
		}
	} else {
		shape, row := r.Intn(4), idxs[r.Intn(2)]
		for j := 0; j < nAcc; j++ {
			x, y := buf(), buf()
			switch shape {
			case 0:
				term(j, x+"[k]", y+"["+row+"]")
			case 1:
				fmt.Fprintf(&b, "            acc%d += %s[%s] * %s[k];\n", j, x, row, y)
			case 2:
				fmt.Fprintf(&b, "            acc%d += %s[k * n + i] * %s[k * n + i];\n", j, x, y)
			case 3:
				term(j, x+"[k]", y+"["+row+"]")
				term(j, y+"[k]", x+"["+row+"]")
			}
		}
	}
	b.WriteString("        }\n")
	for j := 0; j < nAcc; j++ {
		fmt.Fprintf(&b, "        out[%d * n + i] = acc%d;\n", j, j)
	}
	b.WriteString("    }\n}\n")
	return b.String(), []int{8, 12, 16}[r.Intn(3)]
}
