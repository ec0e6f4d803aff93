package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/vmref"
)

// Differential testing: generate random MiniCL kernels, execute them through
// the bytecode compiler with both VM backends (the switch interpreter and the
// lockstep work-group engine) and through the independent AST interpreter
// (vmref.RefExec), and require bit-identical buffer contents — plus identical Stats
// between the VM backends, since Stats feed the virtual-time model. A
// miscompilation would have to be mirrored by an identical bug in the other
// executors to slip through. The wg backend runs a work-group in whole-group
// sets where the noninterference certificate admits the launch and in
// one-lane sets where it does not, so its leg exercises both; counter deltas
// assert that both ran for some seeds.

// reductionItems is the global size of GenReduction launches: a multiple of
// every local size it draws.
const reductionItems = 48

// reductionArgs returns the arguments of a GenReduction launch of
// reductionItems work-items over m trips, its buffers drawn from seed.
func reductionArgs(seed int64, m int) func() []Arg {
	const n = reductionItems
	return func() []Arg {
		fr := rand.New(rand.NewSource(seed))
		mk := func() []byte { return floatBuf(n*m, func(int) float32 { return float32(fr.Float64()*4 - 2) }) }
		return []Arg{BufArg(make([]byte, 4*2*n)), BufArg(mk()), BufArg(mk()), IntArg(n), IntArg(int64(m)), FloatArg(1.25)}
	}
}

// diffSeed runs the program GenProgram draws from seed, and the reduction
// GenReduction draws from it, through ref, interp and wg and fails tb on any
// disagreement.
func diffSeed(tb testing.TB, seed int64) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	red, local := vmref.GenReduction(r)
	diffFiveWay(tb, fmt.Sprintf("GenReduction seed %d", seed), red, "red", NewNDRange1D(reductionItems, local), reductionArgs(seed, 3+r.Intn(10)))

	const n = 32
	src := vmref.GenProgram(rand.New(rand.NewSource(seed)))

	ki, err := clc.FindKernelInfo(src, "diff")
	if err != nil {
		tb.Fatalf("seed %d: generated program does not check: %v\n%s", seed, err, src)
	}
	k, err := Compile(ki)
	if err != nil {
		tb.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
	}

	// Every fourth seed binds both buffer parameters to one slice, floats in
	// its even words and ints in its odd ones: the certificate rejects the
	// launch (alias), so wg runs it in one-lane sets.
	alias := seed%4 == 3
	mkBufs := func() ([]byte, []byte) {
		fb := make([]byte, 4*n)
		ib := make([]byte, 4*n)
		if alias {
			ib = fb
		}
		r := rand.New(rand.NewSource(seed * 7))
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(fb[4*i:], math.Float32bits(float32(r.Float64()*16-8)))
			if v := uint32(int32(r.Intn(41) - 20)); !alias || i%2 == 1 {
				binary.LittleEndian.PutUint32(ib[4*i:], v)
			}
		}
		return fb, ib
	}

	nd := NewNDRange1D(n, 16)
	p1 := seed%13 - 6
	fp := float64(seed%17)/3 - 2

	runVM := func(be Backend) ([]byte, []byte, Stats, error) {
		fb, ib := mkBufs()
		st, err := k.ExecLaunch(nd,
			[]Arg{BufArg(fb), BufArg(ib), IntArg(int64(n)), IntArg(p1), FloatArg(fp)},
			ExecOpts{Backend: be})
		return fb, ib, st, err
	}
	fbVM, ibVM, stI, vmErr := runVM(BackendInterp)
	fbWG, ibWG, stW, wgErr := runVM(BackendWG)

	ref, err := vmref.NewRefExec(ki)
	if err != nil {
		tb.Fatal(err)
	}
	fbRef, ibRef := mkBufs()
	var refErr error
	for gi := 0; gi < nd.LaunchGroups() && refErr == nil; gi++ {
		refErr = RefWorkGroup(ref, nd, nd.GroupAt(gi),
			[]Arg{BufArg(fbRef), BufArg(ibRef), IntArg(int64(n)), IntArg(p1), FloatArg(fp)})
	}

	if (vmErr == nil) != (refErr == nil) {
		tb.Fatalf("seed %d: error disagreement: vm=%v ref=%v\n%s", seed, vmErr, refErr, src)
	}
	if (vmErr == nil) != (wgErr == nil) {
		tb.Fatalf("seed %d: backend error disagreement: interp=%v wg=%v\n%s", seed, vmErr, wgErr, src)
	}
	if vmErr != nil {
		return
	}
	if stI != stW {
		tb.Fatalf("seed %d: Stats diverge between backends:\ninterp: %+v\nwg:     %+v\n%s",
			seed, stI, stW, src)
	}
	if string(fbVM) != string(fbWG) || string(ibVM) != string(ibWG) {
		tb.Fatalf("seed %d: wg backend buffers differ from interpreter\n%s", seed, src)
	}
	for i := 0; i < 4*n; i += 4 {
		vb := binary.LittleEndian.Uint32(fbVM[i:])
		rb := binary.LittleEndian.Uint32(fbRef[i:])
		if vb != rb {
			tb.Fatalf("seed %d: fbuf[%d] differs: vm=%v(%#x) ref=%v(%#x)\n%s",
				seed, i/4, math.Float32frombits(vb), vb, math.Float32frombits(rb), rb, src)
		}
		vi := binary.LittleEndian.Uint32(ibVM[i:])
		ri := binary.LittleEndian.Uint32(ibRef[i:])
		if vi != ri {
			tb.Fatalf("seed %d: ibuf[%d] differs: vm=%d ref=%d\n%s",
				seed, i/4, int32(vi), int32(ri), src)
		}
	}
}

// diffSeeds is how many seeds TestDifferentialVMvsReference runs and
// FuzzDifferential starts from.
const diffSeeds = 50

func TestDifferentialVMvsReference(t *testing.T) {
	before, partial, skipped, leaves := BackendSnapshot(), PartialLoopBatches(), SkippedTrips(), LeafRuns()
	priv, inLoop := 0, 0
	for seed := int64(0); seed < diffSeeds; seed++ {
		diffSeed(t, seed)
		src := vmref.GenProgram(rand.New(rand.NewSource(seed)))
		if strings.Contains(src, "float pv[4];") {
			priv++
		}
		if strings.Contains(src, "float q1[2];") {
			inLoop++
		}
	}
	if priv == 0 || inLoop == 0 {
		t.Errorf("%d generated seeds declared a private array, %d one in a loop body; generator drifted", priv, inLoop)
	}
	after := BackendSnapshot()
	if after.WGLoopWGs-after.WGFallbackWGs == before.WGLoopWGs-before.WGFallbackWGs {
		t.Error("no generated seed ran a group in whole-group sets")
	}
	if after.WGRejects[WGRejAlias] == before.WGRejects[WGRejAlias] {
		t.Error("no generated seed ran a group in one-lane sets for aliased buffers")
	}
	if PartialLoopBatches() == partial {
		t.Error("no generated seed ran a whole loop for part of a work-group; generator drifted")
	}
	if SkippedTrips() == skipped {
		t.Error("no generated seed skipped a period of a loop's walk; generator drifted")
	}
	for i, c := range LeafRuns() {
		if c == leaves[i] {
			t.Errorf("no generated reduction ran a whole lane block %s; generator drifted", []string{"on leaf (a)", "on leaf (b)", "on leaf (c)", "on leaf (d)", "per lane"}[i])
		}
	}
}

// FuzzDifferential lets the fuzzer pick the seed: every int64 names one
// generated program, its buffers and its scalar arguments. `make fuzz` runs
// it for 15 s; what it finds lands under testdata/fuzz/FuzzDifferential.
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { diffSeed(t, seed) })
}

func TestDifferentialUndoRollback(t *testing.T) {
	// Property, for every backend: executing any generated work-group with
	// an undo log and rolling back must restore the buffers exactly, and
	// the pre-rollback buffers must match between backends (both record
	// identical undo entries).
	const trials = 25
	n := 32
	for seed := 0; seed < trials; seed++ {
		src := vmref.GenProgram(rand.New(rand.NewSource(int64(1000 + seed))))
		ki, err := clc.FindKernelInfo(src, "diff")
		if err != nil {
			t.Fatal(err)
		}
		k, err := Compile(ki)
		if err != nil {
			t.Fatal(err)
		}
		nd := NewNDRange1D(n, 32)
		var applied [2]string
		for bi, be := range []Backend{BackendInterp, BackendWG} {
			fb := make([]byte, 4*n)
			ib := make([]byte, 4*n)
			r := rand.New(rand.NewSource(int64(seed)))
			r.Read(fb)
			r.Read(ib)
			fb0 := append([]byte(nil), fb...)
			ib0 := append([]byte(nil), ib...)
			var undo UndoLog
			_, err = k.ExecWorkGroup(nd, [3]int{0, 0, 0},
				[]Arg{BufArg(fb), BufArg(ib), IntArg(int64(n)), IntArg(3), FloatArg(1.5)},
				ExecOpts{Undo: &undo, Backend: be})
			if err != nil {
				applied[bi] = "err"
				continue // e.g. NaN-driven index... impossible by construction, but be safe
			}
			applied[bi] = string(fb) + string(ib)
			undo.Rollback()
			if string(fb) != string(fb0) || string(ib) != string(ib0) {
				t.Fatalf("seed %d (%v): rollback did not restore buffers\n%s", seed, be, src)
			}
		}
		if applied[0] != applied[1] {
			t.Fatalf("seed %d: pre-rollback buffers differ between backends\n%s", seed, src)
		}
	}
}

func TestDifferentialPrintedSourceRoundTrip(t *testing.T) {
	// Property: pretty-printing a generated program and re-parsing it must
	// yield identical execution results (the printer loses nothing).
	const trials = 40
	n := 32
	for seed := 0; seed < trials; seed++ {
		src := vmref.GenProgram(rand.New(rand.NewSource(int64(2000 + seed))))
		prog, err := clc.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		printed := clc.Print(prog)

		run := func(text string) ([]byte, []byte) {
			ki, err := clc.FindKernelInfo(text, "diff")
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, text)
			}
			k, err := Compile(ki)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			fb := make([]byte, 4*n)
			ib := make([]byte, 4*n)
			if _, err := k.ExecLaunch(NewNDRange1D(n, 16),
				[]Arg{BufArg(fb), BufArg(ib), IntArg(int64(n)), IntArg(2), FloatArg(0.5)},
				ExecOpts{}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return fb, ib
		}
		f1, i1 := run(src)
		f2, i2 := run(printed)
		if string(f1) != string(f2) || string(i1) != string(i2) {
			t.Fatalf("seed %d: printed source behaves differently\noriginal:\n%s\nprinted:\n%s", seed, src, printed)
		}
	}
}
