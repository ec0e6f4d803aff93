package core

import (
	"encoding/binary"
	"sort"

	"fluidicl/internal/ocl"
)

// This file is the delta-refresh transfer planner of the N-way topology
// runtime (DESIGN.md S19). After the twin protocol's generalization to N
// devices (nway.go), the post-kernel refresh used to rebroadcast every
// written buffer in full to every device. The planner replaces that with
// dirty-interval accounting: the host-rooted merge records exactly which
// byte runs each kernel changed and which device computed them, and each
// device's copy is brought current lazily — with a single scatter-write of
// only the bytes that device is actually missing — right before the next
// kernel that uses the buffer there.

// pendMaxSpans caps the fragmentation of a per-device pending set: past
// this many intervals the set is collapsed to its hull. Collapsing is
// sound — hull bytes the device already holds are re-sent with their
// current host values — and keeps the span arithmetic O(small).
const pendMaxSpans = 32

// maxPooledBufs caps each free list of the merge-path pools.
const maxPooledBufs = 32

// intervalSet is a set of bytes represented as sorted, disjoint,
// non-adjacent [Off, End) spans. All mutation happens inside the
// cooperative simulation engine, so there is no locking; the backing
// arrays are retained across resets so steady-state operation does not
// allocate (modeled on analysis.coverAcc, with the same O(1) ascending
// append fast path the merge's in-order runs hit).
type intervalSet struct {
	spans   []ocl.Span
	scratch []ocl.Span // spare backing array for subtract's rebuild
	one     [1]ocl.Span
}

func (s *intervalSet) reset()      { s.spans = s.spans[:0] }
func (s *intervalSet) empty() bool { return len(s.spans) == 0 }

// bytes returns the total byte count covered by the set.
func (s *intervalSet) bytes() int {
	n := 0
	for _, sp := range s.spans {
		n += sp.End - sp.Off
	}
	return n
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

// addSet unions o into s.
func (s *intervalSet) addSet(o *intervalSet) {
	for _, sp := range o.spans {
		s.add(sp.Off, sp.End)
	}
}

// subtractSpans removes the given sorted disjoint spans from s, rebuilding
// into the set's spare backing array (so repeated subtracts ping-pong two
// arrays and never allocate once capacities stabilize).
func (s *intervalSet) subtractSpans(o []ocl.Span) {
	if len(s.spans) == 0 || len(o) == 0 {
		return
	}
	out := s.scratch[:0]
	oi := 0
	for _, sp := range s.spans {
		off := sp.Off
		for oi < len(o) && o[oi].End <= off {
			oi++
		}
		for k := oi; k < len(o) && o[k].Off < sp.End; k++ {
			if o[k].Off > off {
				out = append(out, ocl.Span{Off: off, End: o[k].Off})
			}
			if o[k].End > off {
				off = o[k].End
			}
		}
		if off < sp.End {
			out = append(out, ocl.Span{Off: off, End: sp.End})
		}
	}
	s.scratch = s.spans[:0]
	s.spans = out
}

// subtract removes o's bytes from s.
func (s *intervalSet) subtract(o *intervalSet) { s.subtractSpans(o.spans) }

// subtractRange removes [off, end) from s.
func (s *intervalSet) subtractRange(off, end int) {
	if off >= end {
		return
	}
	s.one[0] = ocl.Span{Off: off, End: end}
	s.subtractSpans(s.one[:])
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

// bytePool recycles host-side scratch slices across chunks and kernels
// (per-chunk ship buffers, per-kernel orig snapshots, flush snapshots).
// Acquire returns the smallest adequate free slice with stale contents —
// callers fill every byte they read. Plain slices, no locks: every touch
// happens inside the cooperative engine.
type bytePool struct {
	free [][]byte
}

func (p *bytePool) get(n int) []byte {
	best := -1
	for i, b := range p.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return ocl.TakeBytes(n)
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

// spanPool recycles the span slices handed to in-flight scatter transfers
// (the transfer reads them at completion time, so the pending set's backing
// array is detached into the transfer and replaced from this pool).
type spanPool struct {
	free [][]ocl.Span
}

func (p *spanPool) get() []ocl.Span {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s[:0]
	}
	return nil
}

func (p *spanPool) put(s []ocl.Span) {
	if cap(s) == 0 || len(p.free) >= maxPooledBufs {
		return
	}
	p.free = append(p.free, s)
}

// diffMergeChunk folds one shipped chunk window into the host shadow: data
// holds the device bytes of window [off, off+len(data)), orig the pre-kernel
// host snapshot, host the merge target (both full-buffer indexed). A word
// differing from orig was computed by this chunk; equal words are either
// untouched or recomputed identically elsewhere (§4.3's merge, host-rooted).
// Changed runs are copied into host and recorded in dirty and own, feeding
// the delta-refresh planner.
//
// The compare walks 8 bytes at a time and drills into 4-byte words only on
// mismatch; the sub-word tail of a non-word-multiple window is merged
// byte-wise (the original loop silently dropped it). When exact is true the
// caller's footprint certificate proves the chunk wrote every byte of the
// window, so the whole window is copied without comparing.
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
