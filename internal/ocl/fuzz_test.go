package ocl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fluidicl/internal/device"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// storageKernelSrc reads one buffer and writes another, word by word.
const storageKernelSrc = `
__kernel void step(__global int* in, __global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[i] * 3 + 1; }
}
`

// storageSizes are the sizes of each context's three buffers: page-sized and
// above, so recycled storage goes through the free list.
var storageSizes = [3]int{4096, 4096, 8192}

// FuzzBufferStorage drives two contexts and three buffers on each through
// random sequences of handed-over whole writes, copying whole and partial
// writes, span writes, reads, copies, launches of a kernel that reads one
// argument and writes another, enqueued without waiting so every launch binds
// behind the transfers queued ahead of it, and recycling a buffer's storage
// once its queue is idle (Detach, Recycle). Every read must match
// a model in which each buffer owns a plain slice; a handed-over source must
// never change; and no two live buffers, nor a buffer and a handed-over
// source, may own the same backing array.
func FuzzBufferStorage(f *testing.F) {
	f.Add([]byte{0, 0, 0, 9, 7, 0, 0, 1, 5, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 9, 6, 0, 1, 0})
	f.Add([]byte{0, 1, 2, 3, 6, 1, 2, 0, 7, 1, 0, 0, 5, 1, 0, 0, 0, 8, 1, 0, 5, 1, 0, 1, 2})
	f.Add([]byte{4, 0, 1, 15, 9, 2, 7, 0, 1, 1, 2, 0, 1, 3, 5, 4, 8, 0, 1, 7, 0, 1, 2, 5, 0, 2, 0, 200})
	f.Add([]byte{1, 1, 0, 3, 7, 1, 0, 0, 8, 1, 0, 7, 1, 0, 0, 3, 1, 0, 2, 2, 40, 5, 1, 0, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		runStorage(t, ops)
	})
}

type handedOver struct{ src, pristine []byte }

type readCheck struct {
	label     string
	got, want []byte
}

type storageRun struct {
	ops    []byte
	qs     [2]*CommandQueue
	ks     [2]*Kernel
	bufs   [2][3]*Buffer
	model  [2][3][]byte
	handed []handedOver
	reads  []readCheck
}

// next consumes one byte of the sequence; an exhausted sequence reads zeros.
func (s *storageRun) next() int {
	if len(s.ops) == 0 {
		return 0
	}
	b := s.ops[0]
	s.ops = s.ops[1:]
	return int(b)
}

func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i*7 + 1)
	}
	return b
}

// scribbleAfter overwrites a copied-from source once the write that read it
// has landed: the buffer must not see it.
func (s *storageRun) scribbleAfter(c int, src []byte) {
	s.qs[c].EnqueueCall(func() {
		for i := range src {
			src[i] ^= 0x5a
		}
	})
}

func (s *storageRun) step(p *sim.Proc) {
	op, c, i := s.next()%9, s.next()%2, s.next()%3
	b, m, q, size := s.bufs[c][i], s.model[c][i], s.qs[c], storageSizes[i]
	switch op {
	case 0: // handed-over whole write
		src := pattern(size, s.next())
		s.handed = append(s.handed, handedOver{src, bytes.Clone(src)})
		q.EnqueueWriteBuffer(b, src)
		copy(m, src)
	case 1: // copying whole write
		src := pattern(size, s.next())
		q.EnqueueWriteBufferAtTagged(b, 0, src, "write")
		copy(m, src)
		s.scribbleAfter(c, src)
	case 2: // copying partial write, or a short handed-over one
		off := s.next() * 16 % size
		n := s.next() * 16 % (size - off + 1)
		src := pattern(n, s.next())
		if off == 0 && n < size && s.next()%2 == 0 {
			s.handed = append(s.handed, handedOver{src, bytes.Clone(src)})
			q.EnqueueWriteBuffer(b, src)
		} else {
			q.EnqueueWriteBufferAtTagged(b, off, src, "write")
			s.scribbleAfter(c, src)
		}
		copy(m[off:], src)
	case 3: // span write: one span in each quarter the mask selects
		src := pattern(size, s.next())
		var spans []Span
		mask, quarter := s.next(), size/4
		for j := 0; j < 4; j++ {
			if mask&(1<<j) != 0 {
				lo := j*quarter + s.next()%quarter
				spans = append(spans, Span{Off: lo, End: lo + s.next()%(j*quarter+quarter-lo+1)})
			}
		}
		q.EnqueueWriteBufferSpansTagged(b, spans, src, "refresh")
		for _, sp := range spans {
			copy(m[sp.Off:sp.End], src[sp.Off:sp.End])
		}
		s.scribbleAfter(c, src)
	case 4, 5: // read
		off := s.next() * 16 % size
		dst := make([]byte, s.next()*16%(size-off+1))
		q.EnqueueReadBufferFunc(b, off, len(dst), "read", func(d []byte) { copy(dst, d) })
		s.reads = append(s.reads, readCheck{"read", dst, bytes.Clone(m[off : off+len(dst)])})
	case 6: // copy to another buffer at least as large
		j := s.next() % 3
		if j == i || storageSizes[i] > storageSizes[j] {
			return
		}
		q.EnqueueCopyBuffer(b, s.bufs[c][j])
		copy(s.model[c][j], m[:size])
	case 7: // launch: buffer i in, buffer j out (possibly the same buffer)
		j := s.next() % 3
		n := min(size, storageSizes[j]) / 4
		args := []Arg{BufArg(b), BufArg(s.bufs[c][j]), IntArg(int64(n))}
		q.EnqueueNDRangeKernel(s.ks[c], vm.NewNDRange1D(n, 64), args, LaunchOpts{})
		out := s.model[c][j]
		for w := 0; w < n; w++ {
			v := int32(binary.LittleEndian.Uint32(m[4*w:]))
			binary.LittleEndian.PutUint32(out[4*w:], uint32(v*3+1))
		}
	case 8: // recycle once the queue is idle, and start over with a new buffer
		q.Finish(p)
		Recycle([][]byte{b.Detach()})
		s.bufs[c][i] = q.Ctx.CreateBuffer(size)
		clear(m)
	}
}

func runStorage(t *testing.T, ops []byte) {
	env := sim.NewEnv()
	s := &storageRun{ops: ops}
	for c, cfg := range []device.Config{device.XeonW3550(), device.TeslaC2070()} {
		ctx := NewContext(env, device.New(env, cfg))
		prog, err := ctx.BuildProgram(storageKernelSrc)
		if err != nil {
			t.Fatal(err)
		}
		s.ks[c], s.qs[c] = prog.MustKernel("step"), ctx.CreateQueue("app")
		for i, size := range storageSizes {
			s.bufs[c][i], s.model[c][i] = ctx.CreateBuffer(size), make([]byte, size)
		}
	}
	env.Go("host", func(p *sim.Proc) {
		for len(s.ops) > 0 {
			s.step(p)
		}
		s.qs[0].Finish(p)
		s.qs[1].Finish(p)
	})
	env.Run()
	for c := range s.bufs {
		for i, b := range s.bufs[c] {
			got := make([]byte, b.Size)
			b.ReadAt(got, 0)
			s.reads = append(s.reads, readCheck{"final contents", got, s.model[c][i]})
		}
	}
	for n, r := range s.reads {
		if !bytes.Equal(r.got, r.want) {
			t.Fatalf("%s %d of %d bytes: device and model differ", r.label, n, len(r.want))
		}
	}
	owner := map[*byte]string{}
	for n, h := range s.handed {
		if !bytes.Equal(h.src, h.pristine) {
			t.Fatalf("handed-over source %d was written", n)
		}
		if len(h.src) > 0 {
			owner[&h.src[0]] = "a handed-over source"
		}
	}
	var run [][]byte
	for c := range s.bufs {
		for i, b := range s.bufs[c] {
			if !b.owned || len(b.data) == 0 {
				continue
			}
			if o, dup := owner[&b.data[0]]; dup {
				t.Fatalf("buffer %d/%d owns the storage of %s", c, i, o)
			}
			owner[&b.data[0]] = "another buffer"
			run = append(run, b.Detach())
		}
	}
	Recycle(run) // the next sequence draws this storage
}
