package vm

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// fwdParity runs the launch on the interpreter, the referee, and on wg fused
// and per-step (SetWGFuse), each under MaxSteps maxSteps, and requires of
// all three the same buffer bytes, the same full Stats and the same error
// text. It returns the referee's error.
func fwdParity(t *testing.T, k *Kernel, nd NDRange, mkArgs func() []Arg, maxSteps int64) error {
	t.Helper()
	defer SetWGFuse(WGFuseEnabled())
	type result struct {
		bufs string
		st   Stats
		err  string
	}
	run := func(be Backend) (result, error) {
		args := mkArgs()
		st, err := k.ExecLaunch(nd, args, ExecOpts{Backend: be, MaxSteps: maxSteps})
		var b strings.Builder
		for _, a := range args {
			b.Write(a.Buf)
		}
		return result{b.String(), st, fmt.Sprint(err)}, err
	}
	ref, err := run(BackendInterp)
	for _, fuse := range []bool{true, false} {
		SetWGFuse(fuse)
		got, _ := run(BackendWG)
		switch {
		case got.err != ref.err:
			t.Errorf("fuse %v: error %s, interpreter %s", fuse, got.err, ref.err)
		case got.bufs != ref.bufs:
			t.Errorf("fuse %v: buffers differ from the interpreter's", fuse)
		case got.st != ref.st:
			t.Errorf("fuse %v: Stats differ\ninterp: %+v\nwg:     %+v", fuse, ref.st, got.st)
		}
	}
	return err
}

// fwdDims counts the dimension operands of k's steps: constant ones
// (wgForward made them immediates) and ones still read from a register.
func fwdDims(k *Kernel) (consts, regs int) {
	cls := k.wgUniform(k.wg)
	for _, b := range k.wgBlocks() {
		for _, x := range b.code {
			if opTab[x.Op].sig != sigDim || cls[x.pc] == uDrop {
				continue
			}
			if x.B < 0 {
				consts++
			} else {
				regs++
			}
		}
	}
	return consts, regs
}

// TestWGForwarding: wg's per-step blocks read through in-block copies, take
// constant dimensions as immediates and drop the moves and constants this
// leaves dead (wgForward, wgUniform). Each row runs against the interpreter
// and the fused and per-step engines on buffer bytes, full Stats and error
// text, over groups that run whole or split at a branch. Where a trap or
// the budget ends the launch, the groups are one work-item each, or the
// trap is in lane 0 with only moves before it, so that every engine has run
// the same instructions when it stops.
func TestWGForwarding(t *testing.T) {
	ints := func(n int) []byte {
		b := make([]byte, 4*n)
		for i := range n {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(int32(i*7%11-3)))
		}
		return b
	}
	floats := func(n int) []byte { return floatBuf(n, func(i int) float32 { return float32(i%9)*0.75 - 2 }) }
	sig := `__kernel void t(__global float* out, __global int* a, float fp, int p, int n) {
`
	gid := "    int g = get_global_id(0);\n"
	// maxSteps -1 and -2 stand for one instruction less than every item runs,
	// and exactly that many: each runs every instruction once, so the
	// budget runs out at the closing ret, a block of its own, on all engines.
	type row struct {
		name     string
		body     string
		nd       NDRange
		p        int64
		maxSteps int64
		err      string
		check    func(k *Kernel) string // "" when the compiled shape is the row's
	}
	dims := func(wantConsts, wantRegs int) func(k *Kernel) string {
		return func(k *Kernel) string {
			if c, r := fwdDims(k); c != wantConsts || r != wantRegs {
				return fmt.Sprintf("%d constant and %d register dimensions, want %d and %d", c, r, wantConsts, wantRegs)
			}
			return ""
		}
	}
	budget := gid + `
    int c = g;
    int d = c;
    int e = d;
    float x = fp;
    float y = x;
    if (e < n) {
        out[e] = y;
    }`
	rows := []row{
		{name: "source redefined before the read", body: gid + `
    int c = g;
    g = g + 7;
    int d = c;
    c = g * 2;
    out[d] = (float)c + (float)g;`},
		{name: "copy chain, self-move and float copies", body: gid + `
    int c = g;
    int d = c;
    int e = d;
    e = e;
    d = e;
    float x = fp;
    float y = x;
    float z = y;
    y = z;
    x = y * 2.0f;
    out[d] = x + y + z;`},
		{name: "branch on a forwarded copy", body: gid + `
    int c = g < n;
    int d = c;
    if (d) {
        out[g] = fp;
    } else {
        out[g] = (float)a[g];
    }`,
			check: func(k *Kernel) string {
				// The branch reads the compare's result, not a copy of it.
				cls := k.wgUniform(k.wg)
				for _, b := range k.wgBlocks() {
					def := opNop
					for _, x := range b.code {
						if cls[x.pc] != uDrop && sigOperands[opTab[x.Op].sig][0] == oIw && x.A == b.term.condReg {
							def = x.Op
						}
					}
					if b.term.kind == wtCond && def != opILT {
						return fmt.Sprintf("block @%d branches on r%d, last defined by %s", b.start, b.term.condReg, opTab[def].name)
					}
				}
				return ""
			}},
		{name: "branch on a copy of a parameter", body: gid + `
    int c = p;
    int d = c;
    if (d) {
        out[g] = fp;
    }
    int e = p;
    out[g] = out[g] + (float)e;`,
			check: func(k *Kernel) string {
				for _, b := range k.wgBlocks() {
					if b.term.kind == wtCond && b.term.condReg != k.Params[3].IReg {
						return fmt.Sprintf("block @%d branches on r%d, not on p", b.start, b.term.condReg)
					}
				}
				return ""
			}},
		{name: "computed dimension", body: gid + `
    int d = p % 3;
    out[g] = (float)(get_global_id(d) + get_local_size(d) * 100 + get_group_id(g % 4) * 1000);`,
			check: dims(1, 3)},
		{name: "constant dimensions 3 and -1", body: gid + `
    int c = get_global_id(3) + get_local_id(-1) + get_group_id(3) + get_num_groups(-1) + get_local_size(3) + get_global_size(-1);
    out[g] = (float)(c + get_local_id(0) * 10 + get_global_size(0) * 100);`,
			check: dims(9, 0)},
		// Only moves run before the load traps in lane 0, so the
		// interpreter's item 0 has run what every lane of wg has.
		{name: "trap after dropped moves, uniform index", body: `
    int c = p;
    int d = c;
    int e = d;
    float x = (float)a[e];
    out[get_global_id(0)] = x + fp;`,
			p: 48, err: "load a: index 48 out of range"},
		{name: "trap after dropped moves, per-lane index", body: gid + `
    int c = g * p;
    int d = c;
    float x = fp;
    float y = x;
    int e = d + 1;
    out[g] = y * (float)a[e];`,
			nd: NewNDRange1D(8, 1), p: 9, err: "load a: index 55 out of range"},
		{name: "budget the dropped moves consume", body: budget, nd: NewNDRange1D(4, 1), maxSteps: -1, err: "instruction budget exceeded"},
		{name: "budget that fits", body: budget, nd: NewNDRange1D(4, 1), maxSteps: -2},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			k := MustCompile(sig+r.body+"\n}", "t")
			blocks, bad := k.WGBlockSteps()
			dropped := 0
			for _, b := range blocks {
				dropped += b[3]
			}
			if len(bad) > 0 || dropped == 0 {
				t.Fatalf("%d dropped, %v\n%s", dropped, bad, k.Disasm())
			}
			if r.check != nil {
				if msg := r.check(k); msg != "" {
					t.Fatalf("%s\n%s", msg, k.Disasm())
				}
			}
			nd := r.nd
			if nd.Dims == 0 {
				nd = NewNDRange1D(48, 16)
			}
			maxSteps := r.maxSteps
			if maxSteps < 0 {
				maxSteps = int64(len(k.Code)) - 2 - maxSteps
			}
			ps := []int64{r.p, r.p + 3}
			if r.err != "" {
				ps = ps[:1]
			}
			for _, p := range ps {
				err := fwdParity(t, k, nd, func() []Arg {
					return []Arg{BufArg(floats(48)), BufArg(ints(48)), FloatArg(1.25), IntArg(p), IntArg(37)}
				}, maxSteps)
				if (err == nil) != (r.err == "") || err != nil && !strings.Contains(err.Error(), r.err) {
					t.Errorf("p=%d: error %v, want %q", p, err, r.err)
				}
			}
		})
	}
}
