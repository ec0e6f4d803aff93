package vm

import (
	"slices"
	"sort"
)

// Launch-time noninterference certificate for the lockstep engine.
//
// The lockstep engine executes a barrier-free region for all work-items of
// a group in an order that interleaves items block by block, instead of
// running each item to completion. That reordering is unobservable — same
// buffers, same per-item register trajectories, same Stats after the
// tracker replay — exactly when no work-item reads or writes a global or
// __local location that another item of the same group writes within the
// same region. (Across regions the barrier orders everything in both
// engines, and private arrays are per-item by construction.)
//
// wgCertify proves that property per launch shape with a tiny abstract
// interpretation over the kernel's integer registers: every value is either
// TOP or an affine form c0 + c1*lid0 + c2*lid1 + c3*lid2 + c4*grp0 +
// c5*grp1 + c6*grp2 with concrete int64 coefficients (scalar arguments and
// launch dimensions are known numbers at this point; group ids stay
// symbolic so one certificate covers every group of the launch). A region
// passes if, for every buffer or local array it stores to, all stores and
// all loads of that object use one identical affine index form whose
// lid-coefficients map distinct local ids to distinct indices — then item t
// only ever touches its own location, groups cannot collide with themselves,
// and any per-item-order-preserving schedule commutes.
//
// The certificate depends only on (dims, local size, num groups, scalar int
// argument values) — neither certificate reads a float argument — so the
// decision is cached per kernel under that key (Kernel.certs).
// Buffer aliasing — two arguments backed by the same storage — would defeat
// the disjointness argument and is re-checked per work-group against the
// actual argument list, mirroring the launch engine's identity check.

// aval is the abstract value of one integer register: TOP (unknown) or an
// affine form over {1, lid0, lid1, lid2, grp0, grp1, grp2}.
type aval struct {
	top bool
	c   [7]int64
}

func aTop() aval          { return aval{top: true} }
func aConst(v int64) aval { return aval{c: [7]int64{v}} }
func (v aval) isConst() bool {
	return !v.top && v.c[1] == 0 && v.c[2] == 0 && v.c[3] == 0 && v.c[4] == 0 && v.c[5] == 0 && v.c[6] == 0
}

func aAdd(x, y aval, sign int64) aval {
	if x.top || y.top {
		return aTop()
	}
	for i := range x.c {
		x.c[i] += sign * y.c[i]
	}
	return x
}

func aMul(x, y aval) aval {
	if x.top || y.top {
		return aTop()
	}
	if y.isConst() {
		for i := range x.c {
			x.c[i] *= y.c[0]
		}
		return x
	}
	if x.isConst() {
		for i := range y.c {
			y.c[i] *= x.c[0]
		}
		return y
	}
	return aTop()
}

func aJoin(x, y aval) aval {
	if x.top || y.top || x.c != y.c {
		return aTop()
	}
	return x
}

// wgCert is the scratch the certificate dataflow reuses. It lives inside a
// pooled wgScratch, so access is single-goroutine.
type wgCert struct {
	keyTmp  []uint64
	in      [][]aval // fixpoint in-state per leader pc
	reached []bool
	st      []aval
	work    []int
	accV    map[int]aval
	vals    []int64
}

// wgVerdict is one certificate decision. second: the admission came from
// the strided disjointness certificate, not the identical-form one. rej is
// the fallback reason when ok is false.
type wgVerdict struct {
	ok, second bool
	rej        WGReject
}

// wgCertEntry is one cached decision; key[0] is a hash of the rest, so a
// lookup rejects a different key on its first word.
type wgCertEntry struct {
	key []uint64
	wgVerdict
}

// wgCertCacheCap bounds a kernel's decision cache. One cooperative run asks
// about a kernel under many keys — the CPU variant's [fcl_lo, fcl_hi] differ
// per chunk, fcl_merge sees every buffer size — and a repeated run asks
// again in the same order; the widest paper kernel sees 25 keys per quick
// fig13+fig16+table3 pass.
const wgCertCacheCap = 32

// wgCertified reports whether this work-group may run on the lockstep
// engine: no aliased buffer arguments, and the cached (or freshly computed)
// certificate for the launch shape holds. When the identical-form
// certificate fails, the strided disjointness certificate (wgreject.go)
// gets a second chance before the launch shape is rejected.
func (k *Kernel) wgCertified(c *wgCert, nd NDRange, args []Arg) wgVerdict {
	for i := range args {
		if args[i].Kind != ArgBuffer || len(args[i].Buf) == 0 {
			continue
		}
		for j := i + 1; j < len(args); j++ {
			if args[j].Kind == ArgBuffer && len(args[j].Buf) != 0 && &args[i].Buf[0] == &args[j].Buf[0] {
				return wgVerdict{rej: WGRejAlias}
			}
		}
	}
	key := append(c.keyTmp[:0], 0, uint64(nd.Dims),
		uint64(nd.LocalSize[0]), uint64(nd.LocalSize[1]), uint64(nd.LocalSize[2]),
		uint64(nd.NumGroups[0]), uint64(nd.NumGroups[1]), uint64(nd.NumGroups[2]))
	for i, p := range k.Params {
		if p.Kind == ArgInt {
			key = append(key, uint64(args[i].I))
		}
	}
	for _, w := range key[1:] {
		key[0] = (key[0] ^ w) * 1099511628211
	}
	c.keyTmp = key
	var cur []wgCertEntry
	if p := k.certs.Load(); p != nil {
		cur = *p
	}
	for i := range cur {
		if slices.Equal(cur[i].key, key) {
			return cur[i].wgVerdict
		}
	}
	backendCtr.wgCertRuns.Add(1)
	e := wgCertEntry{key: slices.Clone(key)}
	e.ok = k.wgCertify(c, nd, args)
	if !e.ok {
		e.ok, e.rej = k.wgSecondChance(nd, args)
		e.second = e.ok
	}
	// Copy on write, newest first; a full cache drops its oldest entry. Two
	// goroutines racing to insert lose one entry, which costs a recomputation.
	next := append(make([]wgCertEntry, 0, wgCertCacheCap), e)
	next = append(next, cur[:min(len(cur), wgCertCacheCap-1)]...)
	k.certs.Store(&next)
	return e.wgVerdict
}

// wgCertify runs the affine dataflow to a fixpoint and checks every region's
// store/load index forms.
func (k *Kernel) wgCertify(c *wgCert, nd NDRange, args []Arg) bool {
	wg := k.wg
	code := k.Code
	n := len(code)

	// Entry state: registers are zeroed at work-group start; scalar int
	// arguments are concrete constants.
	init := make([]aval, k.NumI)
	for i, p := range k.Params {
		if p.Kind == ArgInt {
			init[p.IReg] = aConst(args[i].I)
		}
	}
	if len(c.in) != n {
		c.in = make([][]aval, n)
		c.reached = make([]bool, n)
	}
	for i := range c.reached {
		c.reached[i] = false
	}
	c.in[0] = append(c.in[0][:0], init...)
	c.reached[0] = true
	c.work = append(c.work[:0], 0)

	flow := func(succ int, st []aval) {
		if !c.reached[succ] {
			c.in[succ] = append(c.in[succ][:0], st...)
			c.reached[succ] = true
			c.work = append(c.work, succ)
			return
		}
		changed := false
		dst := c.in[succ]
		for i := range dst {
			j := aJoin(dst[i], st[i])
			if j != dst[i] {
				dst[i] = j
				changed = true
			}
		}
		if changed {
			c.work = append(c.work, succ)
		}
	}

	for len(c.work) > 0 {
		l := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		st := append(c.st[:0], c.in[l]...)
		c.st = st
		pc := l
		for {
			in := code[pc]
			certStep(in, st, nd)
			switch in.Op {
			case opJMP:
				flow(int(in.A), st)
			case opJZ, opJNZ:
				flow(int(in.A), st)
				flow(pc+1, st)
			case opBARRIER:
				flow(pc+1, st)
			case opRET:
			default:
				if pc+1 < n && wg.leader[pc+1] {
					flow(pc+1, st)
				} else if pc+1 < n {
					pc++
					continue
				}
			}
			break
		}
	}

	// Index forms at every recorded access, captured before the accessing
	// instruction executes (a load may overwrite its own index register).
	if c.accV == nil {
		c.accV = make(map[int]aval)
	} else {
		clear(c.accV)
	}
	want := make(map[int]int32)
	for ri := range wg.regions {
		for _, a := range wg.regions[ri].accs {
			want[a.pc] = a.idxReg
		}
	}
	for l := 0; l < n; l++ {
		if !wg.leader[l] || !c.reached[l] {
			continue
		}
		st := append(c.st[:0], c.in[l]...)
		c.st = st
		for pc := l; pc == l || (pc < n && !wg.leader[pc]); pc++ {
			if reg, ok := want[pc]; ok {
				c.accV[pc] = st[reg]
			}
			certStep(code[pc], st, nd)
		}
	}

	for ri := range wg.regions {
		if !k.wgCheckRegion(c, &wg.regions[ri], nd) {
			return false
		}
	}
	return true
}

// wgCheckRegion verifies one region: for every stored-to object, all stores
// and loads use one identical affine index whose lid part is injective over
// the group's local grid.
func (k *Kernel) wgCheckRegion(c *wgCert, r *wgRegion, nd NDRange) bool {
	for i := range r.accs {
		s := &r.accs[i]
		if !s.store {
			continue
		}
		sv, ok := c.accV[s.pc]
		if !ok {
			continue // unreachable under this launch: never executes
		}
		if sv.top {
			return false
		}
		// Every other access (load or store) to the same object in this
		// region must use the identical form.
		for j := range r.accs {
			o := &r.accs[j]
			if o.local != s.local || o.slot != s.slot || i == j {
				continue
			}
			ov, ok := c.accV[o.pc]
			if !ok {
				continue
			}
			if ov.top || ov.c != sv.c {
				return false
			}
		}
		if !lidInjective(c, sv, nd) {
			return false
		}
	}
	return true
}

// lidInjective reports whether v's lid-coefficients map every local id of
// the group to a distinct value (brute force over the local grid; group
// sizes are small and the result is cached with the certificate).
func lidInjective(c *wgCert, v aval, nd NDRange) bool {
	nWI := nd.WorkItemsPerGroup()
	if nWI <= 1 {
		return true
	}
	vals := c.vals[:0]
	for z := 0; z < nd.LocalSize[2]; z++ {
		for y := 0; y < nd.LocalSize[1]; y++ {
			for x := 0; x < nd.LocalSize[0]; x++ {
				vals = append(vals, v.c[1]*int64(x)+v.c[2]*int64(y)+v.c[3]*int64(z))
			}
		}
	}
	c.vals = vals
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			return false
		}
	}
	return true
}

// certStep is the abstract transfer function over integer registers for one
// instruction, mirroring the interpreter's concrete semantics.
func certStep(in Instr, st []aval, nd NDRange) {
	switch in.Op {
	case opLDI:
		st[in.A] = aConst(in.IImm)
	case opIMOV:
		st[in.A] = st[in.B]
	case opIADD:
		st[in.A] = aAdd(st[in.B], st[in.C], 1)
	case opISUB:
		st[in.A] = aAdd(st[in.B], st[in.C], -1)
	case opIMUL:
		st[in.A] = aMul(st[in.B], st[in.C])
	case opIDIV, opIMOD:
		if x, y := st[in.B], st[in.C]; !x.isConst() || !y.isConst() || y.c[0] == 0 {
			st[in.A] = aTop()
		} else if in.Op == opIDIV {
			st[in.A] = aConst(x.c[0] / y.c[0])
		} else {
			st[in.A] = aConst(x.c[0] % y.c[0])
		}
	case opINEG:
		st[in.A] = aMul(st[in.B], aConst(-1))
	case opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		if st[in.B].isConst() && st[in.C].isConst() {
			st[in.A] = aConst(b2i(intCmpFn(in.Op)(st[in.B].c[0], st[in.C].c[0])))
		} else {
			st[in.A] = aTop()
		}
	case opNOTB:
		if st[in.B].isConst() {
			st[in.A] = aConst(b2i(st[in.B].c[0] == 0))
		} else {
			st[in.A] = aTop()
		}
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE, opF2I, opLDGI, opLDLI, opLDPI:
		st[in.A] = aTop()
	case opGID, opLID, opGRP:
		switch d := st[in.B]; {
		case !d.isConst():
			st[in.A] = aTop()
		case d.c[0] < 0 || d.c[0] > 2:
			st[in.A] = aConst(0) // out-of-range dim reads 0
		default:
			var v aval
			if in.Op != opGRP {
				v.c[1+d.c[0]] = 1
			}
			if in.Op == opGID {
				v.c[4+d.c[0]] = int64(nd.LocalSize[d.c[0]])
			} else if in.Op == opGRP {
				v.c[4+d.c[0]] = 1
			}
			st[in.A] = v
		}
	case opNGR, opLSZ, opGSZ:
		switch d := st[in.B]; {
		case !d.isConst():
			st[in.A] = aTop()
		case d.c[0] < 0 || d.c[0] > 2:
			st[in.A] = aConst(1)
		default:
			v := int64(1)
			if in.Op != opLSZ {
				v = int64(nd.NumGroups[d.c[0]])
			}
			if in.Op != opNGR {
				v *= int64(nd.LocalSize[d.c[0]])
			}
			st[in.A] = aConst(v)
		}
	case opGOFF:
		st[in.A] = aConst(0)
	case opWDIM:
		st[in.A] = aConst(int64(nd.Dims))
	case opIMIN, opIMAX:
		if x, y := st[in.B], st[in.C]; !x.isConst() || !y.isConst() {
			st[in.A] = aJoin(x, y) // equal forms: min and max are that form
		} else if in.Op == opIMIN {
			st[in.A] = aConst(min(x.c[0], y.c[0]))
		} else {
			st[in.A] = aConst(max(x.c[0], y.c[0]))
		}
	case opIABS:
		if st[in.B].isConst() {
			v := st[in.B].c[0]
			if v < 0 {
				v = -v
			}
			st[in.A] = aConst(v)
		} else {
			st[in.A] = aTop()
		}
	}
}
