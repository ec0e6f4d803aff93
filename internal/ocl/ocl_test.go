package ocl

import (
	"encoding/binary"
	"math"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

func f32buf(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func f32at(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

const vaddSrc = `
__kernel void vadd(__global float* a, __global float* b, __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}
`

func TestFullHostProgramFlow(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	prog, err := ctx.BuildProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i], b[i] = float32(i), 1
	}
	bufA := ctx.CreateBuffer(4 * n)
	bufB := ctx.CreateBuffer(4 * n)
	bufC := ctx.CreateBuffer(4 * n)
	out := make([]byte, 4*n)
	q := ctx.CreateQueue("app")
	env.Go("host", func(p *sim.Proc) {
		q.EnqueueWriteBuffer(bufA, f32buf(a...))
		q.EnqueueWriteBuffer(bufB, f32buf(b...))
		q.EnqueueNDRangeKernel(k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufA), BufArg(bufB), BufArg(bufC), IntArg(int64(n))}, LaunchOpts{})
		p.Wait(q.EnqueueReadBuffer(bufC, out))
	})
	env.Run()
	for i := 0; i < n; i++ {
		if got := f32at(out, i); got != float32(i)+1 {
			t.Fatalf("out[%d] = %v, want %v", i, got, float32(i)+1)
		}
	}
	if env.Now() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestBuildError(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.XeonW3550()))
	if _, err := ctx.BuildProgram("__kernel void f() { undefined_var = 1; }"); err == nil {
		t.Fatal("expected build error")
	}
	if _, err := ctx.BuildProgram("not a kernel at all"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCreateKernelUnknownName(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.XeonW3550()))
	prog, err := ctx.BuildProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.CreateKernel("nope"); err == nil {
		t.Fatal("expected unknown-kernel error")
	}
}

func TestCopyBufferStaysOnDevice(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q := ctx.CreateQueue("app")
	src := ctx.CreateBuffer(16)
	dst := ctx.CreateBuffer(16)
	var copyDone sim.Time
	env.Go("host", func(p *sim.Proc) {
		p.Wait(q.EnqueueWriteBuffer(src, []byte{9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}))
		after := p.Now()
		p.Wait(q.EnqueueCopyBuffer(src, dst))
		copyDone = p.Now() - after
	})
	env.Run()
	if dst.Bytes()[0] != 9 {
		t.Fatal("copy did not happen")
	}
	// Device-internal copy must be much cheaper than a PCIe round trip.
	if copyDone >= ctx.Dev.Cfg.Link.TransferTime(16) {
		t.Fatalf("internal copy took %v, not cheaper than link transfer %v",
			copyDone, ctx.Dev.Cfg.Link.TransferTime(16))
	}
}

func TestFinishWaitsForAllCommands(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q := ctx.CreateQueue("app")
	buf := ctx.CreateBuffer(1 << 20)
	var finishAt sim.Time
	env.Go("host", func(p *sim.Proc) {
		q.EnqueueWriteBuffer(buf, make([]byte, 1<<20))
		q.EnqueueWriteBuffer(buf, make([]byte, 1<<20))
		q.Finish(p)
		finishAt = p.Now()
	})
	env.Run()
	want := 2 * ctx.Dev.Cfg.Link.TransferTime(1<<20)
	if math.Abs(finishAt-want) > 1e-9 {
		t.Fatalf("Finish at %v, want %v", finishAt, want)
	}
}

func TestWriteSizeValidation(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q := ctx.CreateQueue("app")
	buf := ctx.CreateBuffer(4)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized write not rejected")
		}
	}()
	q.EnqueueWriteBuffer(buf, make([]byte, 8))
}

func TestOutInOutAnalysisExposed(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.XeonW3550()))
	prog, err := ctx.BuildProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("vadd")
	if !k.Info.ParamAccess["c"].Out() {
		t.Fatal("c should be out-only")
	}
	if !k.Info.ParamAccess["a"].In() {
		t.Fatal("a should be in-only")
	}
}

func TestTwoContextsShareNothing(t *testing.T) {
	env := sim.NewEnv()
	gpu := NewContext(env, device.New(env, device.TeslaC2070()))
	cpu := NewContext(env, device.New(env, device.XeonW3550()))
	bg := gpu.CreateBuffer(4)
	bc := cpu.CreateBuffer(4)
	qg := gpu.CreateQueue("g")
	env.Go("host", func(p *sim.Proc) {
		p.Wait(qg.EnqueueWriteBuffer(bg, []byte{1, 2, 3, 4}))
	})
	env.Run()
	if bc.Bytes()[0] != 0 {
		t.Fatal("CPU buffer affected by GPU write: address spaces not discrete")
	}
	if bg.Bytes()[0] != 1 {
		t.Fatal("GPU write lost")
	}
}

func TestLaunchResultPopulated(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	prog, err := ctx.BuildProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.MustKernel("vadd")
	n := 64
	bufs := []*Buffer{ctx.CreateBuffer(4 * n), ctx.CreateBuffer(4 * n), ctx.CreateBuffer(4 * n)}
	q := ctx.CreateQueue("app")
	var res *device.LaunchResult
	env.Go("host", func(p *sim.Proc) {
		ev, r := q.EnqueueNDRangeKernel(k, vm.NewNDRange1D(n, 16),
			[]Arg{BufArg(bufs[0]), BufArg(bufs[1]), BufArg(bufs[2]), IntArg(int64(n))}, LaunchOpts{})
		p.Wait(ev)
		res = r
	})
	env.Run()
	if res == nil || res.Executed != 4 || !res.Started || res.Err != nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Stats.WorkItems != n {
		t.Fatalf("stats work-items = %d, want %d", res.Stats.WorkItems, n)
	}
}

func TestQueuesOnSameDeviceShareTheLink(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q1 := ctx.CreateQueue("a")
	q2 := ctx.CreateQueue("b")
	n := 1 << 20
	b1, b2 := ctx.CreateBuffer(n), ctx.CreateBuffer(n)
	env.Go("host", func(p *sim.Proc) {
		e1 := q1.EnqueueWriteBuffer(b1, make([]byte, n))
		e2 := q2.EnqueueWriteBuffer(b2, make([]byte, n))
		p.WaitAll(e1, e2)
	})
	env.Run()
	one := ctx.Dev.Cfg.Link.TransferTime(n)
	if env.Now() < 1.9*one {
		t.Fatalf("transfers overlapped on one link: %v < %v", env.Now(), 2*one)
	}
}

func TestEnqueueCallOrdering(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.XeonW3550()))
	q := ctx.CreateQueue("app")
	var order []int
	env.Go("host", func(p *sim.Proc) {
		q.EnqueueWriteBuffer(ctx.CreateBuffer(1024), make([]byte, 1024))
		q.EnqueueCall(func() { order = append(order, 1) })
		q.EnqueueWriteBuffer(ctx.CreateBuffer(1024), make([]byte, 1024))
		ev := q.EnqueueCall(func() { order = append(order, 2) })
		p.Wait(ev)
	})
	env.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestReadSizeValidation(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q := ctx.CreateQueue("app")
	buf := ctx.CreateBuffer(4)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized read not rejected")
		}
	}()
	q.EnqueueReadBuffer(buf, make([]byte, 8))
}

func TestCopySizeValidation(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q := ctx.CreateQueue("app")
	src, dst := ctx.CreateBuffer(8), ctx.CreateBuffer(4)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized copy not rejected")
		}
	}()
	q.EnqueueCopyBuffer(src, dst)
}

func TestPartialRead(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	q := ctx.CreateQueue("app")
	buf := ctx.CreateBuffer(16)
	dst := make([]byte, 8)
	env.Go("host", func(p *sim.Proc) {
		p.Wait(q.EnqueueWriteBuffer(buf, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}))
		p.Wait(q.EnqueueReadBuffer(buf, dst))
	})
	env.Run()
	for i := 0; i < 8; i++ {
		if dst[i] != byte(i+1) {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
}

// TestScatterWriteSpans exercises the delta-refresh primitive: a spans write
// must land exactly the listed byte ranges on the device, leave the gaps
// untouched, and bill the link for ONE transfer whose payload is the sum of
// the span lengths (single latency for the whole delta).
func TestScatterWriteSpans(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	const size = 64
	buf := ctx.CreateBuffer(size)
	q := ctx.CreateQueue("app")

	base := make([]byte, size)
	for i := range base {
		base[i] = 0xEE
	}
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i + 1)
	}
	spans := []Span{{Off: 4, End: 12}, {Off: 20, End: 21}, {Off: 40, End: 64}}
	got := make([]byte, size)
	env.Go("host", func(p *sim.Proc) {
		p.Wait(q.EnqueueWriteBuffer(buf, base))
		p.Wait(q.EnqueueWriteBufferSpansTagged(buf, spans, src, "refresh"))
		p.Wait(q.EnqueueReadBuffer(buf, got))
	})
	env.Run()

	want := make([]byte, size)
	copy(want, base)
	covered := func(i int) bool {
		for _, s := range spans {
			if i >= s.Off && i < s.End {
				return true
			}
		}
		return false
	}
	for i := range want {
		if covered(i) {
			want[i] = src[i]
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x (covered=%v)", i, got[i], want[i], covered(i))
		}
	}
	sum := env.Meter.Summary().ByKind("GPU")
	// size (full write) + 8+1+24 (scatter payload); the refresh-labeled part
	// must also land in the BytesRefresh column.
	if wantH2D := int64(size + 33); sum.BytesH2D != wantH2D {
		t.Fatalf("BytesH2D = %d, want %d (scatter payload must be the span-length sum)", sum.BytesH2D, wantH2D)
	}
	if sum.BytesRefresh != 33 {
		t.Fatalf("BytesRefresh = %d, want 33", sum.BytesRefresh)
	}
}

// TestScatterWriteSpanValidation: malformed spans (out of order, overlapping
// or out of range) must panic immediately at enqueue time.
func TestScatterWriteSpanValidation(t *testing.T) {
	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	buf := ctx.CreateBuffer(16)
	q := ctx.CreateQueue("app")
	src := make([]byte, 16)
	for _, bad := range [][]Span{
		{{Off: 8, End: 12}, {Off: 0, End: 4}}, // out of order
		{{Off: 0, End: 8}, {Off: 4, End: 12}}, // overlapping
		{{Off: 0, End: 32}},                   // past buffer end
		{{Off: 6, End: 2}},                    // reversed
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spans %v: no panic", bad)
				}
			}()
			q.EnqueueWriteBufferSpansTagged(buf, bad, src, "refresh")
		}()
	}
}

// TestFreeListBestFitClearedAndReplaced pins the recycling contract: the
// smallest slice that holds n bytes in at most 2n of capacity is reused,
// zero-filled for ZeroBytes; a miss empties the list, Recycle replaces it,
// Free adds to it; requests below a page bypass it.
func TestFreeListBestFitClearedAndReplaced(t *testing.T) {
	defer Recycle(nil)
	const k = 1024
	dirty := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xff
		}
		return b
	}
	same := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }
	mid, small, big := dirty(100*k), dirty(64*k), dirty(1000*k)
	Recycle([][]byte{mid, nil, small, big})

	TakeBytes(8) // too small to be served from the list, or to empty it
	z := ZeroBytes(60 * k)
	if !same(z, small) || len(z) != 60*k {
		t.Fatalf("ZeroBytes(60k) did not take the 64k slice (len %d)", len(z))
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("ZeroBytes: reused byte %d = %#x, want 0", i, v)
		}
	}
	if s := TakeBytes(60 * k); !same(s, mid) {
		t.Error("TakeBytes(60k) did not take the 100k slice")
	}
	if s := TakeBytes(60 * k); same(s, big) {
		t.Error("TakeBytes(60k) took a slice of more than twice the size")
	}
	if s := TakeBytes(1000 * k); same(s, big) {
		t.Error("the miss did not empty the list")
	}

	Recycle([][]byte{mid, small})
	Recycle([][]byte{big})
	if s := TakeBytes(64 * k); same(s, small) {
		t.Error("Recycle kept the previous list")
	}

	env := sim.NewEnv()
	ctx := NewContext(env, device.New(env, device.TeslaC2070()))
	b := ctx.CreateBuffer(32 * k)
	data := b.Bytes()
	data[5] = 7
	b.Free()
	if b.Bytes() != nil {
		t.Error("a freed buffer kept its storage")
	}
	if again := ctx.CreateBuffer(32 * k).Bytes(); !same(again, data) || again[5] != 0 {
		t.Error("CreateBuffer did not reuse and clear the freed storage")
	}
}
