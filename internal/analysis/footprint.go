package analysis

// Launch-time evaluation of strided summaries: interval-set footprints per
// work-item / work-group / launch, an exact disjointness test on
// arithmetic progressions (extended-gcd alignment plus CRT), hull and
// cover queries for the transfer planner, and the work-group
// noninterference verdict that admits launches to the VM's lockstep engine.

import (
	"slices"

	"fluidicl/internal/clc"
)

// Prog is the arithmetic progression {Lo + k*Stride : 0 <= k < N} with
// Stride >= 1 and N >= 1.
type Prog struct {
	Lo, Stride, N int64
}

func (p Prog) hi() int64 { return p.Lo + p.Stride*(p.N-1) }

func (p Prog) contains(v int64) bool {
	return v >= p.Lo && v <= p.hi() && (v-p.Lo)%p.Stride == 0
}

// Pset is a set of int64 indices as a union of arithmetic progressions.
// Exact is false when composition had to over-approximate (the set then
// still contains every real index — sound for disjointness and hulls, not
// for cover).
type Pset struct {
	Progs []Prog
	Exact bool
}

// Empty reports an empty set.
func (s *Pset) Empty() bool { return len(s.Progs) == 0 }

// Hull returns the [lo, hi] word hull, with ok=false when empty.
func (s *Pset) Hull() (lo, hi int64, ok bool) {
	if len(s.Progs) == 0 {
		return 0, 0, false
	}
	lo, hi = s.Progs[0].Lo, s.Progs[0].hi()
	for _, p := range s.Progs[1:] {
		if p.Lo < lo {
			lo = p.Lo
		}
		if h := p.hi(); h > hi {
			hi = h
		}
	}
	return lo, hi, true
}

// maxProgs bounds set growth during composition; past it the set collapses
// to a single gcd-strided hull progression (inexact).
const maxProgs = 16

// compose adds the progression {off*k' : ...} — concretely, stride s2
// taken n2 times starting at relative 0 — to every element of the set.
func (s *Pset) compose(s2, n2 int64) {
	if n2 <= 0 {
		s.Progs = s.Progs[:0]
		return
	}
	if s2 < 0 {
		// Reverse the direction: same set, positive stride.
		shift := s2 * (n2 - 1)
		for i := range s.Progs {
			s.Progs[i].Lo += shift
		}
		s2 = -s2
	}
	if s2 == 0 || n2 == 1 {
		return
	}
	var out []Prog
	exact := s.Exact
	for _, p := range s.Progs {
		switch {
		case p.N == 1:
			out = append(out, Prog{Lo: p.Lo, Stride: s2, N: n2})
		case s2 == p.Stride:
			out = append(out, Prog{Lo: p.Lo, Stride: p.Stride, N: p.N + n2 - 1})
		case s2 >= p.Stride*p.N && n2 <= maxProgs:
			// The new stride clears the old span: n2 shifted copies.
			for k := int64(0); k < n2; k++ {
				out = append(out, Prog{Lo: p.Lo + k*s2, Stride: p.Stride, N: p.N})
			}
		case p.Stride >= s2*n2 && p.N <= maxProgs:
			// Symmetric: old stride clears the new span.
			for k := int64(0); k < p.N; k++ {
				out = append(out, Prog{Lo: p.Lo + k*p.Stride, Stride: s2, N: n2})
			}
		default:
			// Interleaved: gcd-strided hull, over-approximate.
			g := gcd64(p.Stride, s2)
			span := p.Stride*(p.N-1) + s2*(n2-1)
			out = append(out, Prog{Lo: p.Lo, Stride: g, N: span/g + 1})
			exact = false
		}
	}
	if len(out) > maxProgs {
		// Collapse to one hull progression.
		g := out[0].Stride
		lo, hi := out[0].Lo, out[0].hi()
		for _, p := range out[1:] {
			g = gcd64(g, p.Stride)
			g = gcd64(g, absDiff(p.Lo, lo))
			if p.Lo < lo {
				lo = p.Lo
			}
			if h := p.hi(); h > hi {
				hi = h
			}
		}
		if g <= 0 {
			g = 1
		}
		out = []Prog{{Lo: lo, Stride: g, N: (hi-lo)/g + 1}}
		exact = false
	}
	s.Progs = out
	s.Exact = exact
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Footprint evaluates the reference's may-footprint (guards ignored) for
// one work-item. ok is false on evaluation failure (missing parameter,
// overflow).
func (r *StridedRef) Footprint(c *EvalCtx, it ItemCtx) (Pset, bool) {
	base, ok := r.Base.Eval(c, it)
	if !ok {
		return Pset{}, false
	}
	s := Pset{Progs: []Prog{{Lo: base, Stride: 1, N: 1}}, Exact: true}
	for _, iv := range r.IVs {
		coef, ok1 := iv.Coef.Eval(c)
		lo, ok2 := iv.Lo.Eval(c, it)
		hi, ok3 := iv.Hi.Eval(c, it)
		if !ok1 || !ok2 || !ok3 || iv.Step <= 0 {
			return Pset{}, false
		}
		if hi <= lo {
			return Pset{Exact: true}, true // zero iterations: empty
		}
		n := (hi-1-lo)/iv.Step + 1
		if coef != 0 && (coef > evalMagLimit/n || coef < -evalMagLimit/n) {
			return Pset{}, false
		}
		// Shift the base by coef*lo, then compose the per-step stride.
		for i := range s.Progs {
			s.Progs[i].Lo += coef * lo
		}
		s.compose(coef*iv.Step, n)
	}
	return s, true
}

// MustHold reports whether the access provably executes for this item:
// not may-only and every affine guard satisfied. ok is false on
// evaluation failure.
func (r *StridedRef) MustHold(c *EvalCtx, it ItemCtx) (hold, ok bool) {
	if r.MayOnly {
		return false, true
	}
	for _, g := range r.Guards {
		h, ok := g.Eval(c, it)
		if !ok {
			return false, false
		}
		if !h {
			return false, true
		}
	}
	return true, true
}

// progsDisjoint reports provable disjointness of two progressions. False
// means "may overlap" — exact for in-range arithmetic, conservative when
// magnitudes defeat the CRT step.
func progsDisjoint(a, b Prog) bool {
	aHi, bHi := a.hi(), b.hi()
	if a.Lo > bHi || b.Lo > aHi {
		return true
	}
	if a.N == 1 {
		return !b.contains(a.Lo)
	}
	if b.N == 1 {
		return !a.contains(b.Lo)
	}
	g := gcd64(a.Stride, b.Stride)
	if (b.Lo-a.Lo)%g != 0 {
		return true
	}
	bg := b.Stride / g
	if bg > 1<<31 || a.Stride > evalMagLimit/bg {
		return false // give up: may overlap
	}
	lcm := a.Stride * bg
	// Solve x = a.Lo + a.Stride*k with x ≡ b.Lo (mod b.Stride):
	// k ≡ d * inv(ag) (mod bg) where d = (b.Lo-a.Lo)/g, ag = a.Stride/g.
	d := (b.Lo - a.Lo) / g
	ag := a.Stride / g
	inv, ok := modInverse(floorMod(ag, bg), bg)
	if !ok {
		return false
	}
	k0 := floorMod(floorMod(d, bg)*inv, bg)
	x0 := a.Lo + a.Stride*k0
	lo := a.Lo
	if b.Lo > lo {
		lo = b.Lo
	}
	if x0 < lo {
		x0 += ((lo - x0 + lcm - 1) / lcm) * lcm
	}
	hi := aHi
	if bHi < hi {
		hi = bHi
	}
	return x0 > hi
}

func floorMod(a, m int64) int64 {
	if m <= 0 {
		return 0
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// modInverse returns a^-1 mod m (m >= 1) via the extended Euclid
// algorithm; ok is false when a and m are not coprime.
func modInverse(a, m int64) (int64, bool) {
	if m == 1 {
		return 0, true
	}
	g, x, _ := extGCD(a, m)
	if g != 1 {
		return 0, false
	}
	return floorMod(x, m), true
}

func extGCD(a, b int64) (g, x, y int64) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := extGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// PsetsDisjoint reports provable disjointness of two footprints.
func PsetsDisjoint(a, b *Pset) bool {
	for _, p := range a.Progs {
		for _, q := range b.Progs {
			if !progsDisjoint(p, q) {
				return false
			}
		}
	}
	return true
}

// ---- launch-level evaluation ----

// LaunchShape describes the (possibly sliced) grid a summary is evaluated
// against. NumGroups is what get_num_groups reports (the full grid);
// Base/Count select the slice of groups actually executed.
type LaunchShape struct {
	Dims      int
	Local     [3]int64
	NumGroups [3]int64
	Base      [3]int64
	Count     [3]int64
}

// Ctx builds the evaluation context for this shape.
func (sh *LaunchShape) Ctx(params []int64) *EvalCtx {
	return &EvalCtx{Params: params, Local: sh.Local, Groups: sh.NumGroups}
}

// Items returns the number of work-items per group.
func (sh *LaunchShape) Items() int64 { return sh.Local[0] * sh.Local[1] * sh.Local[2] }

// groupAt decomposes a flat slice-relative group index (x fastest).
func (sh *LaunchShape) groupAt(flat int64) [3]int64 {
	g0 := sh.Base[0] + flat%sh.Count[0]
	g1 := sh.Base[1] + (flat/sh.Count[0])%sh.Count[1]
	g2 := sh.Base[2] + flat/(sh.Count[0]*sh.Count[1])
	return [3]int64{g0, g1, g2}
}

// itemAt builds the work-item context for local flat index t of group grp.
func (sh *LaunchShape) itemAt(grp [3]int64, t int64) ItemCtx {
	var it ItemCtx
	it.Grp = grp
	it.Lid[0] = t % sh.Local[0]
	it.Lid[1] = (t / sh.Local[0]) % sh.Local[1]
	it.Lid[2] = t / (sh.Local[0] * sh.Local[1])
	for d := 0; d < 3; d++ {
		it.Gid[d] = grp[d]*sh.Local[d] + it.Lid[d]
	}
	return it
}

// Verdict is the outcome of a launch-time certificate query, with a
// machine-readable reason when it fails.
type Verdict struct {
	OK     bool
	Reason string // "local-store", "unknown-store", "unknown-read", "overlap", "budget"
	Pos    clc.Pos
}

// Certificate failure reasons.
const (
	VerdictLocalStore   = "local-store"
	VerdictUnknownStore = "unknown-store"
	VerdictUnknownRead  = "unknown-read"
	VerdictOverlap      = "overlap"
	VerdictBudget       = "budget"
)

// CertifyGroupDisjoint proves per-work-item noninterference within every
// work-group of the launch: for any two items t != u of one group and
// every written global argument, W(t) ∩ W(u) = ∅ and W(t) ∩ R(u) = ∅
// (may-footprints, so real accesses are covered). Arguments that are
// never written are unconstrained (gather-only admission). A written
// argument whose every access uses one lid-injective slot (slotExact)
// passes without enumerating groups; the rest are tested pairwise, group
// by group, and budget bounds the number of footprint evaluations +
// pairwise tests.
func (ks *KernelSummary) CertifyGroupDisjoint(sh LaunchShape, params []int64, budget int64) Verdict {
	if ks.LocalStores {
		return Verdict{Reason: VerdictLocalStore}
	}
	c := sh.Ctx(params)
	type argRefs struct {
		w, r []*StridedRef
	}
	var args []argRefs
	for i := range ks.Args {
		a := &ks.Args[i]
		if !a.Written || a.Space != clc.SpaceGlobal {
			continue
		}
		for _, rej := range a.Rejects {
			if rej.Store {
				return Verdict{Reason: VerdictUnknownStore, Pos: rej.Pos}
			}
			return Verdict{Reason: VerdictUnknownRead, Pos: rej.Pos}
		}
		var ar argRefs
		for j := range a.Refs {
			r := &a.Refs[j]
			if r.Store {
				ar.w = append(ar.w, r)
			}
			if !r.Store || r.AlsoRead {
				ar.r = append(ar.r, r)
			}
		}
		if len(ar.w) > 0 && !slotExact(a.Refs, c, sh.Local) {
			args = append(args, ar)
		}
	}
	if len(args) == 0 {
		return Verdict{OK: true}
	}

	L := sh.Items()
	ng := sh.Count[0] * sh.Count[1] * sh.Count[2]
	var pairWork int64
	for _, ar := range args {
		w, r := int64(len(ar.w)), int64(len(ar.r))
		pairWork += w*w + 2*w*r
	}
	if L > 1 && ng*(L*(L-1)/2)*pairWork > budget {
		return Verdict{Reason: VerdictBudget}
	}

	// Per-group scratch: footprints of every item's refs.
	type itemFP struct {
		w, r []Pset
	}
	fps := make([][]itemFP, len(args))
	for ai := range fps {
		fps[ai] = make([]itemFP, L)
	}
	for g := int64(0); g < ng; g++ {
		grp := sh.groupAt(g)
		for t := int64(0); t < L; t++ {
			it := sh.itemAt(grp, t)
			for ai, ar := range args {
				fp := &fps[ai][t]
				fp.w, fp.r = fp.w[:0], fp.r[:0]
				for _, ref := range ar.w {
					ps, ok := ref.Footprint(c, it)
					if !ok {
						return Verdict{Reason: VerdictUnknownStore, Pos: ref.Pos}
					}
					fp.w = append(fp.w, ps)
				}
				for _, ref := range ar.r {
					ps, ok := ref.Footprint(c, it)
					if !ok {
						return Verdict{Reason: VerdictUnknownRead, Pos: ref.Pos}
					}
					fp.r = append(fp.r, ps)
				}
			}
		}
		for ai, ar := range args {
			for t := int64(0); t < L; t++ {
				for u := t + 1; u < L; u++ {
					ft, fu := &fps[ai][t], &fps[ai][u]
					for wi := range ft.w {
						for wj := range fu.w {
							if !PsetsDisjoint(&ft.w[wi], &fu.w[wj]) {
								return Verdict{Reason: VerdictOverlap, Pos: ar.w[wi].Pos}
							}
						}
						for rj := range fu.r {
							if !PsetsDisjoint(&ft.w[wi], &fu.r[rj]) {
								return Verdict{Reason: VerdictOverlap, Pos: ar.w[wi].Pos}
							}
						}
					}
					for wj := range fu.w {
						for ri := range ft.r {
							if !PsetsDisjoint(&fu.w[wj], &ft.r[ri]) {
								return Verdict{Reason: VerdictOverlap, Pos: ar.w[wj].Pos}
							}
						}
					}
				}
			}
		}
	}
	return Verdict{OK: true}
}

// slotExact reports that refs, every access to one argument, give each
// work-item of a group its own single word: no ref has an IV term, all
// share one Base (compared as coefficients evaluated under c), and that
// Base's lid part Σ (Gid[d]+Lid[d])*lid_d is injective over the local grid.
// Within a group, gid_d = grp_d*Local[d] + lid_d, so item t touches exactly
// K + (the group's part) + (t's lid part), which no other item of the group
// touches. The test is O(len(refs) + items per group), however many groups.
func slotExact(refs []StridedRef, c *EvalCtx, local [3]int64) bool {
	var base [10]int64
	for i := range refs {
		if len(refs[i].IVs) > 0 {
			return false
		}
		v, ok := refs[i].Base.coefs(c)
		if !ok || i > 0 && v != base {
			return false
		}
		base = v
	}
	vals := make([]int64, 0, local[0]*local[1]*local[2])
	for z := int64(0); z < local[2]; z++ {
		for y := int64(0); y < local[1]; y++ {
			for x := int64(0); x < local[0]; x++ {
				vals = append(vals, (base[1]+base[4])*x+(base[2]+base[5])*y+(base[3]+base[6])*z)
			}
		}
	}
	slices.Sort(vals)
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			return false
		}
	}
	return true
}

// ---- hull and cover queries for the transfer planner ----

// Span is a half-open word-index range; empty when Lo >= Hi.
type Span struct {
	Lo, Hi int64
}

// Empty reports an empty span.
func (s Span) Empty() bool { return s.Lo >= s.Hi }

// Union returns the smallest span containing both.
func (s Span) Union(o Span) Span {
	if s.Empty() {
		return o
	}
	if o.Empty() {
		return s
	}
	if o.Lo < s.Lo {
		s.Lo = o.Lo
	}
	if o.Hi > s.Hi {
		s.Hi = o.Hi
	}
	return s
}

// ArgWrites is the launch-level write footprint of one argument.
type ArgWrites struct {
	// GroupSpans[g] is the word hull of every may-write of flat group g
	// (slice-relative flat index, x fastest).
	GroupSpans []Span
	// Hull is the union of all group spans.
	Hull Span
	// MustCover reports that unguarded (must) writes provably cover every
	// word of [0, words): no pre-launch byte of the buffer survives.
	MustCover bool
}

// maxCoverSpans bounds the cover accumulator; kernels whose must-writes
// fragment past this give up on cover (hulls are unaffected).
const maxCoverSpans = 4096

// EvalArgWrites evaluates the write footprint of argument argIdx over the
// launch. ok is false when the argument's stores are not fully summarized
// (a store Reject exists), when evaluation fails, or when the work exceeds
// budget (footprint evaluations).
func (ks *KernelSummary) EvalArgWrites(argIdx int, sh LaunchShape, params []int64, words int64, budget int64) (ArgWrites, bool) {
	if argIdx < 0 || argIdx >= len(ks.Args) {
		return ArgWrites{}, false
	}
	a := &ks.Args[argIdx]
	for _, rej := range a.Rejects {
		if rej.Store {
			return ArgWrites{}, false
		}
	}
	var wrefs []*StridedRef
	for j := range a.Refs {
		if a.Refs[j].Store {
			wrefs = append(wrefs, &a.Refs[j])
		}
	}
	L := sh.Items()
	ng := sh.Count[0] * sh.Count[1] * sh.Count[2]
	if ng <= 0 || L <= 0 {
		return ArgWrites{}, false
	}
	if len(wrefs) == 0 {
		return ArgWrites{GroupSpans: make([]Span, ng)}, true
	}
	if ng*L*int64(len(wrefs)) > budget {
		return ArgWrites{}, false
	}

	c := sh.Ctx(params)
	out := ArgWrites{GroupSpans: make([]Span, ng)}
	var cover coverAcc
	coverOK := words > 0
	for g := int64(0); g < ng; g++ {
		grp := sh.groupAt(g)
		var span Span
		for t := int64(0); t < L; t++ {
			it := sh.itemAt(grp, t)
			for _, ref := range wrefs {
				ps, ok := ref.Footprint(c, it)
				if !ok {
					return ArgWrites{}, false
				}
				if lo, hi, ok := ps.Hull(); ok {
					span = span.Union(Span{Lo: lo, Hi: hi + 1})
				}
				if !coverOK || ps.Empty() {
					continue
				}
				must, ok := ref.MustHold(c, it)
				if !ok || !must || !ps.Exact {
					continue
				}
				for _, p := range ps.Progs {
					if p.Stride == 1 || p.N == 1 {
						if !cover.add(Span{Lo: p.Lo, Hi: p.Lo + (p.N-1)*p.Stride + 1}) {
							coverOK = false
							break
						}
					} else {
						// Strided must-writes: add each element's point only
						// for small counts, else give up on cover.
						if p.N > 64 {
							coverOK = false
							break
						}
						for k := int64(0); k < p.N; k++ {
							if !cover.add(Span{Lo: p.Lo + k*p.Stride, Hi: p.Lo + k*p.Stride + 1}) {
								coverOK = false
								break
							}
						}
					}
				}
			}
		}
		out.GroupSpans[g] = span
		out.Hull = out.Hull.Union(span)
	}
	if coverOK {
		out.MustCover = cover.covers(Span{Lo: 0, Hi: words})
	}
	return out, true
}

// HullRange returns the union of GroupSpans[lo:hi) (indices clamped): the
// word hull of everything flat groups [lo, hi) may write.
func (w *ArgWrites) HullRange(lo, hi int64) Span {
	if lo < 0 {
		lo = 0
	}
	if n := int64(len(w.GroupSpans)); hi > n {
		hi = n
	}
	var s Span
	for g := lo; g < hi; g++ {
		s = s.Union(w.GroupSpans[g])
	}
	return s
}

// Monotone reports that the nonempty group spans are pairwise disjoint and
// ascend with the flat group id: each span begins at or after the previous
// nonempty span's end. Under monotone spans the hull of any group suffix
// [lo, ng) can never overlap a word that a group below lo may write — the
// property that makes narrowed ships sound even when the pre-launch upload
// of a stale GPU copy was elided (the shipped bytes then carry the CPU's
// newer data for words only the shipped chunk's groups can own).
func (w *ArgWrites) Monotone() bool {
	seen := false
	var prevHi int64
	for _, s := range w.GroupSpans {
		if s.Empty() {
			continue
		}
		if seen && s.Lo < prevHi {
			return false
		}
		prevHi = s.Hi
		seen = true
	}
	return true
}

// coverAcc accumulates must-written spans as a sorted disjoint list.
// Insertion is O(1) for the common append-or-extend pattern of row-major
// kernels and O(n) otherwise.
type coverAcc struct {
	spans []Span
}

// add merges sp; returns false when the accumulator fragments past budget.
func (c *coverAcc) add(sp Span) bool {
	if sp.Empty() {
		return true
	}
	n := len(c.spans)
	// Fast path: extend or append at the end.
	if n == 0 || c.spans[n-1].Hi < sp.Lo {
		if n > 0 && c.spans[n-1].Hi == sp.Lo {
			c.spans[n-1].Hi = sp.Hi
			return true
		}
		c.spans = append(c.spans, sp)
		return len(c.spans) <= maxCoverSpans
	}
	if c.spans[n-1].Hi >= sp.Lo && c.spans[n-1].Lo <= sp.Lo {
		if sp.Hi > c.spans[n-1].Hi {
			c.spans[n-1].Hi = sp.Hi
		}
		return true
	}
	// General path: binary search for the first span ending at or after
	// sp.Lo, then merge every overlapping/adjacent span.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if c.spans[mid].Hi < sp.Lo {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	if i == n || c.spans[i].Lo > sp.Hi {
		c.spans = append(c.spans, Span{})
		copy(c.spans[i+1:], c.spans[i:])
		c.spans[i] = sp
		return len(c.spans) <= maxCoverSpans
	}
	j := i
	for j < n && c.spans[j].Lo <= sp.Hi {
		if c.spans[j].Lo < sp.Lo {
			sp.Lo = c.spans[j].Lo
		}
		if c.spans[j].Hi > sp.Hi {
			sp.Hi = c.spans[j].Hi
		}
		j++
	}
	c.spans[i] = sp
	c.spans = append(c.spans[:i+1], c.spans[j:]...)
	return true
}

// covers reports whether the accumulated spans cover want entirely.
func (c *coverAcc) covers(want Span) bool {
	if want.Empty() {
		return true
	}
	for _, sp := range c.spans {
		if sp.Lo <= want.Lo && sp.Hi >= want.Hi {
			return true
		}
	}
	return false
}

// ---- static out-of-bounds lint support ----

// StaticMin returns the smallest index the reference can produce assuming
// every id is >= 0, when that minimum is a compile-time constant (no
// parameter or launch-constant dependence in the relevant terms). ok is
// false when the minimum is not statically known.
func (r *StridedRef) StaticMin() (int64, bool) {
	kc, ok := r.Base.K.isConst()
	if !ok {
		return 0, false
	}
	min := kc
	// Id coefficients must be nonnegative constants so id=0 minimizes.
	for d := 0; d < 3; d++ {
		for _, u := range []*UExpr{r.Base.Gid[d], r.Base.Lid[d], r.Base.Grp[d]} {
			c, ok := u.isConst()
			if !ok || c < 0 {
				return 0, false
			}
		}
	}
	for _, iv := range r.IVs {
		coef, ok1 := iv.Coef.isConst()
		lo, ok2 := iv.Lo.uniformConst()
		hiA, ok3 := iv.Hi.uniformConst()
		if !ok1 || !ok2 || !ok3 {
			return 0, false
		}
		if hiA <= lo {
			return 0, false // zero iterations: no access
		}
		n := (hiA-1-lo)/iv.Step + 1
		last := lo + (n-1)*iv.Step
		if coef >= 0 {
			min += coef * lo
		} else {
			min += coef * last
		}
	}
	return min, true
}

// uniformConst reports a fully constant affine expression's value.
func (a AffExpr) uniformConst() (int64, bool) {
	u, ok := a.uniform()
	if !ok {
		return 0, false
	}
	return u.isConst()
}
