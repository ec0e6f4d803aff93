package device_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/passes"
	"fluidicl/internal/vm"
)

// mergeVM is the referee: fcl_merge compiled from its source.
var mergeVM = vm.MustCompile(passes.MergeKernelSource, passes.MergeKernelName)

// words encodes w as a buffer.
func words(w []uint32) []byte {
	b := make([]byte, 4*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

// mergeCase is one merge launch: the three buffers and the launch's
// fcl_nwords, fcl_lo and local size. Its grid covers [lo, nwords) as the
// runtimes size it, or one group when that range is empty.
type mergeCase struct {
	cpu, gpu, orig []byte
	nwords, lo     int64
	local          int
}

func (c mergeCase) nd() vm.NDRange {
	groups := int64(1)
	if span := c.nwords - c.lo; span > 0 {
		groups = min((span+int64(c.local)-1)/int64(c.local), 64)
	}
	return vm.NewNDRange1D(int(groups)*c.local, c.local)
}

// checkMerge runs every group of c through the built-in and, on copies of
// the buffers, through the VM on both engines, and compares each group's
// words, Stats and error. The built-in may decline a group only where the VM
// traps or the scalars pass its overflow bound, and then leaves memory alone.
func checkMerge(t *testing.T, name string, c mergeCase) {
	t.Helper()
	const bound = 1 << 40
	type run struct{ cpu, gpu, orig []byte }
	clone := func() run { return run{bytes.Clone(c.cpu), bytes.Clone(c.gpu), bytes.Clone(c.orig)} }
	args := func(r run) []vm.Arg {
		return []vm.Arg{vm.BufArg(r.cpu), vm.BufArg(r.gpu), vm.BufArg(r.orig), vm.IntArg(c.nwords), vm.IntArg(c.lo)}
	}
	nd := c.nd()
	bi, interp, wg := clone(), clone(), clone()
	for g := 0; g < nd.TotalGroups(); g++ {
		group := nd.GroupFromFlat(g)
		held := bytes.Clone(bi.gpu)
		st, ok := device.MergeGroup(nd, group, args(bi))
		want, err := mergeVM.ExecWorkGroup(nd, group, args(interp), vm.ExecOpts{Backend: vm.BackendInterp})
		wgst, wgerr := mergeVM.ExecWorkGroup(nd, group, args(wg), vm.ExecOpts{Backend: vm.BackendWG})
		if (err == nil) != (wgerr == nil) || err == nil && (wgst != want || !bytes.Equal(interp.gpu, wg.gpu)) {
			t.Fatalf("%s group %d: the engines disagree: %+v (%v) and %+v (%v)", name, g, want, err, wgst, wgerr)
		}
		if !ok {
			if err == nil && c.nwords >= -bound && c.nwords <= bound && c.lo >= -bound && c.lo <= bound {
				t.Fatalf("%s group %d: the built-in declined a group the VM runs", name, g)
			}
			if !bytes.Equal(bi.gpu, held) {
				t.Fatalf("%s group %d: the built-in declined and still wrote", name, g)
			}
			return // the VM trapped, or may have: the launch ends here
		}
		if err != nil {
			t.Fatalf("%s group %d: the built-in ran a group the VM traps in: %v", name, g, err)
		}
		if st != want {
			t.Fatalf("%s group %d: Stats\n%+v\nwant\n%+v", name, g, st, want)
		}
		if !bytes.Equal(bi.gpu, interp.gpu) || !bytes.Equal(bi.cpu, interp.cpu) || !bytes.Equal(bi.orig, interp.orig) {
			t.Fatalf("%s group %d: the built-in wrote other words than the VM", name, g)
		}
	}
}

// maskClasses are per-warp masks of the lanes whose fcl_cpu word differs.
var maskClasses = map[string]func(lane int) bool{
	"none":        func(int) bool { return false },
	"all":         func(int) bool { return true },
	"alternating": func(l int) bool { return l%2 == 0 },
	"odd":         func(l int) bool { return l%2 == 1 },
	"one lane":    func(l int) bool { return l%32 == 13 },
	"first lane":  func(l int) bool { return l%32 == 0 },
	"last lane":   func(l int) bool { return l%32 == 31 },
	"low half":    func(l int) bool { return l%32 < 16 },
	"high half":   func(l int) bool { return l%32 >= 16 },
	"straddles":   func(l int) bool { return l%32 >= 28 || l%32 < 3 },
}

// differing builds orig from rng, cpu from orig changed where diff says, and
// a gpu buffer of its own, n words each.
func differing(rng *rand.Rand, n int, diff func(int) bool) (cpu, gpu, orig []byte) {
	o, c, g := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := range o {
		o[i], g[i] = rng.Uint32(), rng.Uint32()
		c[i] = o[i]
		if diff(i) {
			c[i] = o[i] ^ (1 << uint(rng.Intn(32)))
		}
	}
	return words(c), words(g), words(o)
}

// TestBuiltinMergeMatchesVM: the built-in merge writes the VM's words and
// returns its Stats for every group, over every per-warp mask class and
// random masks, full and narrowed (fcl_lo) windows, partial last groups,
// buffers longer than the window, and NaN and signed-zero words.
func TestBuiltinMergeMatchesVM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, diff := range maskClasses {
		for _, w := range []struct {
			n, nwords, lo int64
			local         int
		}{
			{256, 256, 0, 64},   // a full merge, as a static split launches it
			{256, 200, 0, 64},   // a partial last group
			{300, 200, 0, 64},   // buffers longer than the window
			{512, 389, 77, 64},  // a narrowed twin merge: fcl_lo = 77
			{512, 512, 448, 64}, // a window of one group at the end
			{96, 96, 0, 48},     // warps cut by the group
			{70, 70, 5, 1},      // one lane per group
		} {
			cpu, gpu, orig := differing(rng, int(w.n), diff)
			checkMerge(t, name, mergeCase{cpu, gpu, orig, w.nwords, w.lo, w.local})
		}
	}
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(400)
		p := rng.Float64()
		cpu, gpu, orig := differing(rng, n, func(int) bool { return rng.Float64() < p })
		nwords := int64(rng.Intn(n + 1))
		lo := int64(rng.Intn(int(nwords) + 1))
		checkMerge(t, "random", mergeCase{cpu, gpu, orig, nwords, lo, []int{64, 32, 17}[rng.Intn(3)]})
	}

	// NaN and signed-zero bit patterns: the compare is on words, so a NaN
	// equal to itself bit for bit is unchanged and -0 differs from +0.
	nan, qnan := math.Float32bits(float32(math.NaN())), uint32(0x7fc00001)
	negz := math.Float32bits(float32(math.Copysign(0, -1)))
	orig := []uint32{nan, nan, 0, negz, qnan, 0, negz, 1}
	cpu := []uint32{nan, qnan, negz, 0, qnan, 0, negz, nan}
	checkMerge(t, "nan", mergeCase{words(cpu), words(make([]uint32, 8)), words(orig), 8, 0, 64})

	// Traps and overflow: the built-in declines and the VM decides.
	short := words(make([]uint32, 10))
	checkMerge(t, "short cpu", mergeCase{short, words(make([]uint32, 64)), words(make([]uint32, 64)), 64, 0, 64})
	checkMerge(t, "negative lo", mergeCase{words(make([]uint32, 64)), words(make([]uint32, 64)), words(make([]uint32, 64)), 64, -3, 64})
	checkMerge(t, "huge lo", mergeCase{short, short, short, 5, math.MaxInt64 - 3, 64})
	checkMerge(t, "empty window", mergeCase{short, short, short, -5, 0, 64})
}

// FuzzBuiltinMerge: random words, masks, windows and group sizes give the
// VM's words and Stats, or a group the VM traps in.
func FuzzBuiltinMerge(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), uint64(0xaaaaaaaaaaaaaaaa), int64(9), int64(0), uint8(64))
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f, 1}, uint64(1), int64(300), int64(70), uint8(32))
	f.Add(bytes.Repeat([]byte{7}, 1024), ^uint64(0), int64(256), int64(3), uint8(5))
	f.Add([]byte{1, 2, 3, 4}, uint64(0), int64(-1), int64(math.MinInt64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, nwords, lo int64, local uint8) {
		n := min(len(data)/4, 1024)
		rng := rand.New(rand.NewSource(int64(mask)))
		cpu, gpu, orig := differing(rng, n, func(i int) bool { return mask>>(uint(i)%64)&1 != 0 })
		copy(orig, data[:4*n])
		for i := 0; i < n; i++ {
			if mask>>(uint(i)%64)&1 == 0 {
				copy(cpu[4*i:4*i+4], orig[4*i:])
			}
		}
		checkMerge(t, "fuzz", mergeCase{cpu, gpu, orig, nwords, lo, 1 + int(local)%128})
	})
}
