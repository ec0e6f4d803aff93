package vm

import (
	"fmt"
	"math"
	"testing"

	"fluidicl/internal/clc"
	"fluidicl/internal/vmref"
)

// entrySrc writes its int parameter n (n = n + 1 moves a temporary into n's
// register) and reads x, which it sets on a different set of lanes in each
// group, so x is read before any write on the others. Its outputs depend on
// the unwritten parameters s and d (1/d tells +0.0 from -0.0) and on both
// local ids.
const entrySrc = `
__kernel void entry(__global int* out, __global float* fo, int n, int s, float d) {
    int w = get_global_size(0);
    int i = get_global_id(1) * w + get_global_id(0);
    int l = get_local_id(1) * get_local_size(0) + get_local_id(0);
    int x;
    if ((l + get_group_id(0) + 2 * get_group_id(1)) % 3 == 0) {
        x = 7;
    }
    n = n + 1;
    out[i] = x + 10 * n + 100 * s + 1000 * get_local_id(0) + 10000 * get_local_id(1);
    fo[i] = 1.0f / d;
}
`

// TestWGEntryState holds the lockstep engine's group entry contract
// (wmach.enter): every parameter holds its argument, every register pc 0 may
// read before writing it is zero, and nothing else is specified. The launches
// run back to back on one pooled machine, each changing one thing the
// launch key must see: an int scalar, a float scalar by its sign bit alone,
// the local shape at an unchanged group size. Between groups every register
// the contract leaves unspecified is poisoned. Each group must match the
// interpreter and the AST referee word for word.
func TestWGEntryState(t *testing.T) {
	ki, err := clc.FindKernelInfo(entrySrc, "entry")
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(ki)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vmref.NewRefExec(ki)
	if err != nil {
		t.Fatal(err)
	}
	wg := k.wg
	if wg == nil || wg.iOut == nil {
		t.Fatal("the entry kernel does not compile for the lockstep engine with liveness masks")
	}
	var parI, parF uint64
	for _, p := range k.Params {
		switch p.Kind {
		case ArgInt:
			parI |= wgBit(p.IReg)
		case ArgFloat:
			parF |= wgBit(p.FReg)
		}
	}
	// The kernel must exercise both masks: x read before any write, n written.
	if wg.clrI == 0 || wg.defI&parI == 0 {
		t.Fatalf("entry masks clrI %#x, written int params %#x: want both non-zero\n%s", wg.clrI, wg.defI&parI, k.Disasm())
	}
	poison := func(m *wmach) {
		for r := 0; r < k.NumI; r++ {
			if (wg.clrI|parI)&wgBit(int32(r)) == 0 {
				fill(m.ib, int32(r), m.n, nil, true, -0x5a5a5a5a)
			}
		}
		for r := 0; r < k.NumF; r++ {
			if (wg.clrF|parF)&wgBit(int32(r)) == 0 {
				fill(m.fb, int32(r), m.n, nil, true, math.Inf(-1))
			}
		}
	}

	const w, h = 8, 4
	launches := []struct {
		name string
		nd   NDRange
		n, s int64
		d    float64
	}{
		{"first", NewNDRange2D(w, h, 4, 2), 5, 3, 0},
		{"int scalar", NewNDRange2D(w, h, 4, 2), 5, 4, 0},
		{"float sign bit", NewNDRange2D(w, h, 4, 2), 5, 4, math.Copysign(0, -1)},
		{"local shape", NewNDRange2D(w, h, 2, 4), 5, 4, math.Copysign(0, -1)},
		{"all back", NewNDRange2D(w, h, 4, 2), 5, 3, 0},
	}
	sc := &wgScratch{} // one pooled machine for every launch
	for _, l := range launches {
		mk := func() []Arg {
			return []Arg{BufArg(make([]byte, 4*w*h)), BufArg(make([]byte, 4*w*h)), IntArg(l.n), IntArg(l.s), FloatArg(l.d)}
		}
		argsR, argsI, argsW := mk(), mk(), mk()
		for g := 0; g < l.nd.LaunchGroups(); g++ {
			group := l.nd.GroupAt(g)
			if err := RefWorkGroup(ref, l.nd, group, argsR); err != nil {
				t.Fatal(err)
			}
			if _, err := k.execWG(l.nd, group, argsI, ExecOpts{Backend: BackendInterp}, &wgScratch{}); err != nil {
				t.Fatal(err)
			}
			if sc.wm != nil {
				poison(sc.wm)
			}
			oneLane := BackendSnapshot().WGFallbackWGs
			if _, err := k.execWG(l.nd, group, argsW, ExecOpts{Backend: BackendWG}, sc); err != nil {
				t.Fatal(err)
			}
			if BackendSnapshot().WGFallbackWGs != oneLane {
				t.Fatalf("%s: group %d ran in one-lane sets", l.name, g)
			}
		}
		for i := range argsW[:2] {
			if string(argsR[i].Buf) != string(argsI[i].Buf) {
				t.Fatalf("%s: buffer %d: the interpreter differs from the referee", l.name, i)
			}
			if string(argsW[i].Buf) != string(argsI[i].Buf) {
				t.Errorf("%s: buffer %d: wg differs from the interpreter\n%s", l.name, i, entryDiff(argsW[i].Buf, argsI[i].Buf))
			}
		}
	}
}

// entryDiff lists the first words in which got and want differ.
func entryDiff(got, want []byte) string {
	s := ""
	for i, shown := 0, 0; i+4 <= len(got) && shown < 4; i += 4 {
		if string(got[i:i+4]) != string(want[i:i+4]) {
			s += fmt.Sprintf("word %d: got % x, want % x\n", i/4, got[i:i+4], want[i:i+4])
			shown++
		}
	}
	return s
}
