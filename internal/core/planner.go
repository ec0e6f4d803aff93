package core

import (
	"encoding/binary"
	"slices"
	"sort"

	"fluidicl/internal/ocl"
)

// This file is the delta-refresh transfer planner (DESIGN.md S19), the one
// residency mechanism of both protocols. Every buffer keeps, per device, the
// byte set that device's copy is missing (Buffer.pend), and a copy is brought
// current with one scatter-write of just those bytes (flush). The N-way merge
// (nway.go) books exactly which byte runs each kernel changed and which
// device computed them; the twin protocol (twin.go) books a whole stale
// copy: the GPU's after the CPU computed a kernel alone, the CPU's when a
// merged result comes home.

// pendMaxSpans caps the fragmentation of a per-device pending set: past
// this many intervals the set is collapsed to its hull. Collapsing is
// sound — hull bytes the device already holds are re-sent with their
// current host values — and keeps the span arithmetic O(small).
const pendMaxSpans = 32

// maxPooledBufs caps each free list of the merge-path pools.
const maxPooledBufs = 32

// intervalSet is a set of bytes represented as sorted, disjoint,
// non-adjacent [Off, End) spans, mutated only inside the cooperative engine
// (no locks). Its backing array is kept across resets, so steady-state
// operation does not allocate.
type intervalSet struct {
	spans []ocl.Span
}

func (s *intervalSet) reset()      { s.spans = s.spans[:0] }
func (s *intervalSet) empty() bool { return len(s.spans) == 0 }

// setAll makes the set every byte of a size-byte buffer.
func (s *intervalSet) setAll(size int) {
	s.reset()
	s.add(0, size)
}

// add unions the span [off, end) into the set, coalescing overlapping and
// adjacent spans. Ascending adds (the common case: merge runs arrive in
// window order per chunk) append in O(1).
func (s *intervalSet) add(off, end int) {
	if off >= end {
		return
	}
	sp := s.spans
	n := len(sp)
	if n == 0 || off > sp[n-1].End {
		s.spans = append(sp, ocl.Span{Off: off, End: end})
		return
	}
	if off >= sp[n-1].Off {
		// Overlaps or touches the last span only.
		if end > sp[n-1].End {
			sp[n-1].End = end
		}
		return
	}
	// General out-of-order insert: find the first span that ends at or
	// after off, swallow every span the new interval touches.
	i := sort.Search(n, func(j int) bool { return sp[j].End >= off })
	j := i
	for j < n && sp[j].Off <= end {
		if sp[j].Off < off {
			off = sp[j].Off
		}
		if sp[j].End > end {
			end = sp[j].End
		}
		j++
	}
	if j == i {
		// Touches nothing: pure insertion before sp[i].
		sp = append(sp, ocl.Span{})
		copy(sp[i+1:], sp[i:])
		sp[i] = ocl.Span{Off: off, End: end}
		s.spans = sp
		return
	}
	sp[i] = ocl.Span{Off: off, End: end}
	s.spans = append(sp[:i+1], sp[j:]...)
}

// subtractRange removes [off, end) from s, in place: the spans it touches
// become at most their two ends outside it.
func (s *intervalSet) subtractRange(off, end int) {
	sp := s.spans
	i := sort.Search(len(sp), func(j int) bool { return sp[j].End > off })
	j := i
	for j < len(sp) && sp[j].Off < end {
		j++
	}
	if i == j || off >= end {
		return
	}
	var ends [2]ocl.Span
	k := 0
	if sp[i].Off < off {
		ends[k], k = ocl.Span{Off: sp[i].Off, End: off}, k+1
	}
	if sp[j-1].End > end {
		ends[k], k = ocl.Span{Off: end, End: sp[j-1].End}, k+1
	}
	s.spans = slices.Replace(sp, i, j, ends[:k]...)
}

// addSetMinus unions (a \ b) into s and returns the byte count of (a \ b).
// b's spans must be sorted and disjoint (they are: b is an intervalSet).
func (s *intervalSet) addSetMinus(a, b *intervalSet) int {
	total := 0
	bi := 0
	for _, sp := range a.spans {
		off := sp.Off
		for bi < len(b.spans) && b.spans[bi].End <= off {
			bi++
		}
		for k := bi; k < len(b.spans) && b.spans[k].Off < sp.End; k++ {
			if b.spans[k].Off > off {
				s.add(off, b.spans[k].Off)
				total += b.spans[k].Off - off
			}
			if b.spans[k].End > off {
				off = b.spans[k].End
			}
		}
		if off < sp.End {
			s.add(off, sp.End)
			total += sp.End - off
		}
	}
	return total
}

// capSpans collapses the set to its hull once it fragments past
// pendMaxSpans. Over-approximating a pending set is sound: the extra bytes
// are simply re-sent with their current host values.
func (s *intervalSet) capSpans() {
	if len(s.spans) <= pendMaxSpans {
		return
	}
	s.spans = append(s.spans[:0], ocl.Span{Off: s.spans[0].Off, End: s.spans[len(s.spans)-1].End})
}

// appendClip appends to dst the set's spans clipped to [off, end).
func (s *intervalSet) appendClip(dst []ocl.Span, off, end int) []ocl.Span {
	sp := s.spans
	for i := sort.Search(len(sp), func(j int) bool { return sp[j].End > off }); i < len(sp) && sp[i].Off < end; i++ {
		dst = append(dst, ocl.Span{Off: max(sp[i].Off, off), End: min(sp[i].End, end)})
	}
	return dst
}

// snapPend returns a pooled host image of b holding every pending byte.
func (r *Runtime) snapPend(b *Buffer) []byte {
	snap := r.bp.get(b.Size)
	for di := range b.pend {
		for _, s := range b.pend[di].spans {
			b.host.ReadAt(snap[s.Off:s.End], s.Off)
		}
	}
	return snap
}

// sendSource enqueues spans of b, bytes of its last whole host write, on
// device di's app queue from that write's source (Buffer.src): by reference
// when they are the whole buffer, else as one scatter "write".
func (r *Runtime) sendSource(b *Buffer, di int, spans []ocl.Span, src []byte) {
	if spans[0] == (ocl.Span{Off: 0, End: b.Size}) {
		r.app[di].EnqueueWriteBuffer(b.bufs[di], src)
	} else {
		r.app[di].EnqueueWriteBufferSpansTagged(b.bufs[di], spans, src, "write")
	}
}

// flush enqueues device di's pending bytes of b on its in-order app queue,
// so they land before anything queued there later, and empties its set:
// from Buffer.src while the shadow shares it (sendSource), else as one
// label scatter write from *snap, taken at first need. It reports the latter.
func (r *Runtime) flush(b *Buffer, di int, snap *[]byte, label string) bool {
	spans := b.pend[di].spans
	switch {
	case len(spans) == 0:
		return false
	case b.src != nil:
		r.sendSource(b, di, spans, b.src)
	default:
		if *snap == nil {
			*snap = r.snapPend(b)
		}
		r.app[di].EnqueueWriteBufferSpansTagged(b.bufs[di], spans, *snap, label)
	}
	b.pend[di].spans = nil
	return b.src == nil
}

// flushPend flushes every device's copy of b; the snapshot returns to the
// pool when the last write from it retires. It returns the snapshot writes.
func (r *Runtime) flushPend(b *Buffer, label string) int64 {
	var snap []byte
	left := 0
	for di := range b.pend {
		if r.flush(b, di, &snap, label) {
			left++
			r.app[di].EnqueueCall(func() {
				if left--; left == 0 {
					r.bp.put(snap)
				}
			})
		}
	}
	return int64(left)
}

// bytePool recycles a run's scratch slices across chunks and kernels (orig
// and flush snapshots, the twin's ship staging and GPU merge scratch). get
// returns the smallest adequate free slice with stale contents — callers
// fill every byte they read — or else storage from ocl's free list. Plain
// slices, no locks: every touch happens inside the cooperative engine.
type bytePool struct {
	free [][]byte
}

func (p *bytePool) get(n int) []byte {
	if b := p.reuse(n); b != nil {
		return b
	}
	return ocl.TakeBytes(n)
}

// reuse takes the smallest free slice that holds n bytes, or returns nil.
func (p *bytePool) reuse(n int) []byte {
	best := -1
	for i, b := range p.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := p.free[best]
	last := len(p.free) - 1
	p.free[best] = p.free[last]
	p.free = p.free[:last]
	return b[:n]
}

func (p *bytePool) put(b []byte) {
	if cap(b) == 0 || len(p.free) >= maxPooledBufs {
		return
	}
	p.free = append(p.free, b)
}

// diffMergeChunk folds one shipped chunk window into the host shadow: data
// holds the device bytes of window [off, off+len(data)), orig the pre-kernel
// host snapshot (nil when exact), host the merge target (both full-buffer
// indexed). A word differing from orig was computed by this chunk; equal
// words are either untouched or recomputed identically elsewhere (§4.3's
// merge, host-rooted). Changed runs are copied into host and recorded in
// dirty and own, feeding the delta-refresh planner. The compare walks 8
// bytes at a time, 4-byte words on mismatch and a sub-word tail byte-wise;
// when exact, the footprint certificate proves the chunk wrote the whole
// window, which is copied without comparing.
func diffMergeChunk(data, orig, host []byte, off int, exact bool, dirty, own *intervalSet) {
	n := len(data)
	if n == 0 {
		return
	}
	if exact {
		copy(host[off:off+n], data)
		dirty.add(off, off+n)
		own.add(off, off+n)
		return
	}
	run := -1 // window-relative start of the current changed run
	endRun := func(end int) {
		if run >= 0 {
			copy(host[off+run:off+end], data[run:end])
			dirty.add(off+run, off+end)
			own.add(off+run, off+end)
			run = -1
		}
	}
	w := 0
	for ; w+8 <= n; w += 8 {
		if binary.LittleEndian.Uint64(data[w:]) == binary.LittleEndian.Uint64(orig[off+w:]) {
			endRun(w)
			continue
		}
		if binary.LittleEndian.Uint32(data[w:]) != binary.LittleEndian.Uint32(orig[off+w:]) {
			if run < 0 {
				run = w
			}
		} else {
			endRun(w)
		}
		if binary.LittleEndian.Uint32(data[w+4:]) != binary.LittleEndian.Uint32(orig[off+w+4:]) {
			if run < 0 {
				run = w + 4
			}
		} else {
			endRun(w + 4)
		}
	}
	for ; w+4 <= n; w += 4 {
		if binary.LittleEndian.Uint32(data[w:]) != binary.LittleEndian.Uint32(orig[off+w:]) {
			if run < 0 {
				run = w
			}
		} else {
			endRun(w)
		}
	}
	for ; w < n; w++ {
		if data[w] != orig[off+w] {
			if run < 0 {
				run = w
			}
		} else {
			endRun(w)
		}
	}
	endRun(n)
}
