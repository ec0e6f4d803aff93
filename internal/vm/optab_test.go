package vm

import (
	"math"
	"testing"
)

// TestOpTableComplete: every opcode from opNop to opRET has a row with a
// name and a signature, no two rows share a name, and nothing past opRET has
// a row. An opcode added without a row fails here.
func TestOpTableComplete(t *testing.T) {
	names := map[string]Op{}
	for op := opNop; op <= opRET; op++ {
		row := &opTab[op]
		if row.name == "" || row.sig == sigBad {
			t.Errorf("opcode %d has no row (name %q, signature %d)", op, row.name, row.sig)
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("opcodes %d and %d are both %q", prev, op, row.name)
		}
		names[row.name] = op
	}
	for op := int(opRET) + 1; op < len(opTab); op++ {
		if row := &opTab[op]; row.name != "" || row.sig != sigBad || row.fn != nil {
			t.Errorf("byte %d is no opcode but has row %q", op, row.name)
		}
	}
}

// The operands every ALU row is run over: for a two-operand row every pair,
// one lane each. The ints hold every dimension the builtins distinguish (0,
// 1, 2 and the out-of-range 3 and -1), a zero divisor and MinInt64 with -1;
// the floats NaN, both infinities, -0 and a value beyond float32.
var (
	tabInts   = [...]int64{0, 1, -1, 2, 3, -7, 1 << 40, math.MinInt64, math.MaxInt64}
	tabFloats = [...]float64{0, math.Copysign(0, -1), 1.5, -2.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, 1.0 / 3}
)

// tabLanes is one run of an instruction over n lanes: each lane's three int
// and three float registers.
type tabLanes struct {
	ri [][3]int64
	rf [][3]float64
}

func (l tabLanes) clone() tabLanes {
	return tabLanes{append([][3]int64(nil), l.ri...), append([][3]float64(nil), l.rf...)}
}

// tabSetup places the operands of in, by its row's signature, one
// combination per lane; every other register holds a sentinel, so a lane a
// step wrongly skips or writes shows.
func tabSetup(in Instr) tabLanes {
	sig := sigOperands[opTab[in.Op].sig]
	nv := len(tabInts)
	binary := sig[2].intReg() || sig[2].floatReg()
	n := nv
	if binary {
		n = nv * nv
	}
	l := tabLanes{make([][3]int64, n), make([][3]float64, n)}
	for t := range n {
		for r := range 3 {
			l.ri[t][r], l.rf[t][r] = 99, 99.5
		}
		x, y := t, 0
		if binary {
			x, y = t/nv, t%nv
		}
		for f, v := range [2]int{x, y} {
			switch reg, o := [2]int32{in.B, in.C}[f], sig[f+1]; {
			case o.intReg():
				l.ri[t][reg] = tabInts[v]
			case o.floatReg():
				l.rf[t][reg] = tabFloats[v]
			}
		}
	}
	return l
}

// tabND is the launch the dimension rows read: lanes are local ids over a
// 3 x 3 x n/9 group, and every size differs per dimension.
func tabND(n int) (NDRange, [3]int) {
	nd := NewNDRange(2, [3]int{3 * 5, 3 * 7, n / 9 * 2}, [3]int{3, 3, n / 9})
	return nd, [3]int{4, 6, 1}
}

func tabLid(nd NDRange, t int) [3]int {
	lx, ly := nd.LocalSize[0], nd.LocalSize[1]
	return [3]int{t % lx, (t / lx) % ly, t / (lx * ly)}
}

// tabInterp runs the lanes of set, in order, through the interpreter until
// the first error.
func tabInterp(k *Kernel, l tabLanes, set []int32) (Stats, error) {
	nd, grp := tabND(len(l.ri))
	var st Stats
	tr := newMemTracker(0)
	for _, t := range set {
		w := &wiState{iregs: l.ri[t][:], fregs: l.rf[t][:]}
		if _, err := k.run(w, nd, grp, tabLid(nd, int(t)), int(t), nil, nil, tr, &st, ExecOpts{}, defaultMaxSteps); err != nil {
			return st, err
		}
	}
	return st, nil
}

// tabWG runs the lanes of set through the instruction's banked step, as
// the dispatcher runs a block of one.
func tabWG(k *Kernel, l tabLanes, set []int32) (Stats, error) {
	n := len(l.ri)
	m := &wmach{k: k, n: n, ib: make([]int64, 3*n), fb: make([]float64, 3*n), full: len(set) == n}
	m.nd, m.group = tabND(n)
	m.st = &m.stat
	for d := range m.lid {
		m.lid[d] = make([]int64, n)
	}
	for t := range n {
		for d, v := range tabLid(m.nd, t) {
			m.lid[d][t] = int64(v)
		}
		for r := range 3 {
			m.ib[r*n+t], m.fb[r*n+t] = l.ri[t][r], l.rf[t][r]
		}
	}
	blk := k.buildWBlock(0, len(k.Code))
	k.buildSteps(blk, make([]uint8, len(k.Code)))
	ok := blk.runSteps(m, set)
	for t := range n {
		for r := range 3 {
			l.ri[t][r], l.rf[t][r] = m.ib[r*n+t], m.fb[r*n+t]
		}
	}
	if !ok {
		return m.stat, m.err
	}
	return m.stat, nil
}

// tabRow applies the row itself to the lanes of set, reading and writing
// the registers its signature names, up to the first lane whose divisor a
// trapping row rejects; it returns that lane, or -1.
func tabRow(in Instr, l tabLanes, set []int32) int32 {
	row := &opTab[in.Op]
	nd, grp := tabND(len(l.ri))
	for _, t := range set {
		ri, rf := &l.ri[t], &l.rf[t]
		switch row.sig {
		case sigLDI:
			ri[in.A] = in.IImm
		case sigLDF:
			rf[in.A] = in.FImm
		case sigII:
			ri[in.A] = row.fn.(func(int64) int64)(ri[in.B])
		case sigFF:
			rf[in.A] = row.fn.(func(float64) float64)(rf[in.B])
		case sigFI:
			rf[in.A] = row.fn.(func(int64) float64)(ri[in.B])
		case sigIF:
			ri[in.A] = row.fn.(func(float64) int64)(rf[in.B])
		case sigIII:
			if row.trap != "" && ri[in.C] == 0 {
				return t
			}
			ri[in.A] = row.fn.(func(x, y int64) int64)(ri[in.B], ri[in.C])
		case sigFFF:
			rf[in.A] = row.fn.(func(x, y float64) float64)(rf[in.B], rf[in.C])
		case sigIFF:
			ri[in.A] = row.fn.(func(x, y float64) int64)(rf[in.B], rf[in.C])
		case sigDim, sigWDim:
			var d int64
			if row.sig == sigDim {
				d = ri[in.B]
			}
			v, lid := row.fn.(dimFn)(&nd, &grp, d)
			if lid {
				v += int64(tabLid(nd, int(t))[d])
			}
			ri[in.A] = v
		}
	}
	return -1
}

// tabEqual compares two runs' registers bit for bit.
func tabEqual(a, b tabLanes) (int, bool) {
	for t := range a.ri {
		if a.ri[t] != b.ri[t] {
			return t, false
		}
		for r := range 3 {
			if math.Float64bits(a.rf[t][r]) != math.Float64bits(b.rf[t][r]) {
				return t, false
			}
		}
	}
	return 0, true
}

// TestOpTableMatchesInterpreter runs every ALU row three ways — the row's
// own function, the interpreter (the referee) and the banked step built from
// the row — over the whole group and over divergent sets (every lane but
// each third, and the lanes a trapping row accepts), with the destination
// apart from the operands and, where the files allow, the same register as
// B. Registers, Stats (in the row's class and nowhere else) and the error pc
// and text must agree bit for bit; a trapping row's error is checked against
// the lane the row names. A row whose function, class or signature is wrong
// fails here.
func TestOpTableMatchesInterpreter(t *testing.T) {
	for op := opNop; op <= opRET; op++ {
		row := &opTab[op]
		switch row.sig {
		case sigBare, sigJmp, sigBr, sigLoadF, sigLoadI, sigStoreF, sigStoreI:
			continue
		}
		sig := sigOperands[row.sig]
		encs := []Instr{{Op: op, A: 0, B: 1, C: 2}}
		if sig[0].intReg() == sig[1].intReg() && sig[0].floatReg() == sig[1].floatReg() {
			encs = append(encs, Instr{Op: op, A: 1, B: 1, C: 2})
		}
		if row.sig == sigLDI || row.sig == sigLDF {
			encs = encs[:0]
			for i := range tabInts {
				encs = append(encs, Instr{Op: op, IImm: tabInts[i], FImm: tabFloats[i]})
			}
		}
		for _, in := range encs {
			k := &Kernel{Name: "optab", Code: []Instr{in, {Op: opRET}}, NumI: 3, NumF: 3}
			lanes := tabSetup(in)
			n := len(lanes.ri)
			// The whole group; every lane but each third; for a trapping row
			// also the lanes whose divisor is not 0, so the quotients are
			// checked, not only the trap.
			var full, part, safe []int32
			for i := range int32(n) {
				full = append(full, i)
				if i%3 != 1 {
					part = append(part, i)
				}
				if lanes.ri[i][in.C] != 0 {
					safe = append(safe, i)
				}
			}
			sets := [][]int32{full, part}
			if row.trap != "" {
				sets = append(sets, safe)
			}
			for _, set := range sets {
				what := disasmInstr(in)
				if len(set) < n {
					what += " (divergent set)"
				}
				want, got, byRow := lanes.clone(), lanes.clone(), lanes.clone()
				stI, errI := tabInterp(k, want, set)
				stW, errW := tabWG(k, got, set)
				trapAt := tabRow(in, byRow, set)
				if i, ok := tabEqual(want, byRow); !ok {
					t.Errorf("%s lane %d: row %v %v, interpreter %v %v", what, i, byRow.ri[i], byRow.rf[i], want.ri[i], want.rf[i])
				}
				if i, ok := tabEqual(want, got); !ok {
					t.Errorf("%s lane %d: wg %v %v, interpreter %v %v", what, i, got.ri[i], got.rf[i], want.ri[i], want.rf[i])
				}
				if (errI == nil) != (trapAt < 0) || (errI == nil) != (errW == nil) {
					t.Errorf("%s: interpreter error %v, wg error %v, row traps at lane %d", what, errI, errW, trapAt)
					continue
				}
				if errI != nil {
					if errI.Error() != errW.Error() {
						t.Errorf("%s: wg error %q, interpreter %q", what, errW, errI)
					}
					continue // the interpreter books per lane, a banked step per set
				}
				if stI != stW {
					t.Errorf("%s: Stats wg %+v, interpreter %+v", what, stW, stI)
				}
				var booked Stats
				var one opCounts
				one[row.class] = 1
				booked.bookOps(&one, int64(len(set)))
				if stI != booked {
					t.Errorf("%s: the interpreter booked %+v, the row's class says %+v", what, stI, booked)
				}
			}
		}
	}
}
