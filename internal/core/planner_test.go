package core

import (
	"bytes"
	"math/rand"
	"testing"

	"fluidicl/internal/ocl"
)

func spansOf(s *intervalSet) []ocl.Span { return s.spans }

func setEquals(s *intervalSet, want []ocl.Span) bool {
	if len(s.spans) != len(want) {
		return false
	}
	for i, sp := range s.spans {
		if sp != want[i] {
			return false
		}
	}
	return true
}

func TestIntervalSetAddCoalesce(t *testing.T) {
	var s intervalSet
	s.add(0, 4)
	s.add(4, 8) // adjacent: coalesces with the last span
	s.add(12, 16)
	if !setEquals(&s, []ocl.Span{{Off: 0, End: 8}, {Off: 12, End: 16}}) {
		t.Fatalf("spans = %v", spansOf(&s))
	}
	s.add(8, 12) // bridges the gap; swallows both neighbors
	if !setEquals(&s, []ocl.Span{{Off: 0, End: 16}}) {
		t.Fatalf("after bridge: spans = %v", spansOf(&s))
	}
	if s.bytes() != 16 {
		t.Fatalf("bytes = %d, want 16", s.bytes())
	}
	s.add(2, 10) // fully contained: no-op
	if !setEquals(&s, []ocl.Span{{Off: 0, End: 16}}) {
		t.Fatalf("after contained add: spans = %v", spansOf(&s))
	}
}

// TestIntervalSetPureInsertRegression pins the out-of-order insertion bug:
// adding a span that touches no existing span used to clobber the span at
// the insertion point before shifting, silently dropping its bytes (which
// surfaced as stale device data in multi-kernel topology runs).
func TestIntervalSetPureInsertRegression(t *testing.T) {
	var s intervalSet
	s.add(0, 4)
	s.add(100, 104)
	s.add(200, 204)
	s.add(50, 54) // pure insert between existing spans
	want := []ocl.Span{{Off: 0, End: 4}, {Off: 50, End: 54}, {Off: 100, End: 104}, {Off: 200, End: 204}}
	if !setEquals(&s, want) {
		t.Fatalf("spans = %v, want %v", spansOf(&s), want)
	}
}

func TestIntervalSetSubtract(t *testing.T) {
	var s intervalSet
	s.add(0, 100)
	s.subtractRange(20, 30) // punch a hole
	if !setEquals(&s, []ocl.Span{{Off: 0, End: 20}, {Off: 30, End: 100}}) {
		t.Fatalf("after hole: spans = %v", spansOf(&s))
	}
	var o intervalSet
	o.add(0, 25)   // clips the first span away entirely plus nothing of the second
	o.add(90, 200) // clips the tail
	for _, sp := range o.spans {
		s.subtractRange(sp.Off, sp.End)
	}
	if !setEquals(&s, []ocl.Span{{Off: 30, End: 90}}) {
		t.Fatalf("after subtract: spans = %v", spansOf(&s))
	}
	s.subtractRange(0, 1000)
	if !s.empty() {
		t.Fatalf("subtracting a superset left %v", spansOf(&s))
	}
}

func TestIntervalSetAddSetMinus(t *testing.T) {
	var dirty, own, pend intervalSet
	dirty.add(0, 100)
	own.add(40, 60)
	added := pend.addSetMinus(&dirty, &own)
	if added != 80 {
		t.Fatalf("added = %d, want 80", added)
	}
	if !setEquals(&pend, []ocl.Span{{Off: 0, End: 40}, {Off: 60, End: 100}}) {
		t.Fatalf("pend = %v", spansOf(&pend))
	}
	// Unioning into a non-empty set must still report only (a \ b)'s size.
	var more intervalSet
	more.add(90, 120)
	if got := pend.addSetMinus(&more, &own); got != 30 {
		t.Fatalf("second added = %d, want 30", got)
	}
	if !setEquals(&pend, []ocl.Span{{Off: 0, End: 40}, {Off: 60, End: 120}}) {
		t.Fatalf("pend = %v", spansOf(&pend))
	}
}

func TestIntervalSetCapSpans(t *testing.T) {
	var s intervalSet
	for i := 0; i <= pendMaxSpans; i++ {
		s.add(i*10, i*10+4)
	}
	s.capSpans()
	if !setEquals(&s, []ocl.Span{{Off: 0, End: pendMaxSpans*10 + 4}}) {
		t.Fatalf("cap did not collapse to hull: %v", spansOf(&s))
	}
}

// TestIntervalSetRandomizedParity drives the span arithmetic against a naive
// byte-set reference model.
func TestIntervalSetRandomizedParity(t *testing.T) {
	const size = 256
	rng := rand.New(rand.NewSource(7))
	var s intervalSet
	ref := make([]bool, size)
	for step := 0; step < 2000; step++ {
		off := rng.Intn(size)
		end := off + rng.Intn(size-off) + 1
		if rng.Intn(3) == 0 {
			s.subtractRange(off, end)
			for i := off; i < end; i++ {
				ref[i] = false
			}
		} else {
			s.add(off, end)
			for i := off; i < end; i++ {
				ref[i] = true
			}
		}
		got := make([]bool, size)
		prev := -1
		for _, sp := range s.spans {
			if sp.Off <= prev || sp.Off >= sp.End {
				t.Fatalf("step %d: spans not sorted/disjoint: %v", step, s.spans)
			}
			prev = sp.End
			for i := sp.Off; i < sp.End; i++ {
				got[i] = true
			}
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("step %d: byte %d: set=%v ref=%v (spans %v)", step, i, got[i], ref[i], s.spans)
			}
		}
	}
}

// naiveMerge is the reference model for diffMergeChunk: word-compare the
// aligned prefix, byte-compare the tail, copy differing units.
func naiveMerge(data, orig, host []byte, off int, dirty *intervalSet) {
	n := len(data)
	w := 0
	for ; w+4 <= n; w += 4 {
		if !bytes.Equal(data[w:w+4], orig[off+w:off+w+4]) {
			copy(host[off+w:off+w+4], data[w:w+4])
			dirty.add(off+w, off+w+4)
		}
	}
	for ; w < n; w++ {
		if data[w] != orig[off+w] {
			host[off+w] = data[w]
			dirty.add(off+w, off+w+1)
		}
	}
}

// TestDiffMergeChunkOddWindowTail pins the truncation fix: a ship window
// whose length is not a multiple of 4 must still merge its trailing bytes
// (the original word-stepped loop silently dropped them).
func TestDiffMergeChunkOddWindowTail(t *testing.T) {
	const size = 32
	orig := make([]byte, size)
	host := make([]byte, size)
	data := make([]byte, 11) // 2 full words + 3 tail bytes
	off := 8
	copy(data, orig[off:off+len(data)])
	data[1] = 0xAA  // inside the first word
	data[10] = 0xBB // the very last tail byte
	var dirty, own intervalSet
	diffMergeChunk(data, orig, host, off, false, &dirty, &own)
	if host[off+1] != 0xAA {
		t.Fatal("word-aligned change not merged")
	}
	if host[off+10] != 0xBB {
		t.Fatal("trailing byte of a non-word-multiple window was dropped by the merge")
	}
	if !bytes.Equal(host[off:off+len(data)], data) {
		t.Fatalf("window mismatch: host=%x data=%x", host[off:off+len(data)], data)
	}
}

func TestDiffMergeChunkExactCopiesWithoutComparing(t *testing.T) {
	const size = 64
	host := make([]byte, size)
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	// Poison one data word to equal the host's: exact mode must copy it
	// anyway and claim the whole window as dirty/owned, with no snapshot to
	// compare against.
	clear(data[4:8])
	var dirty, own intervalSet
	diffMergeChunk(data, nil, host, 16, true, &dirty, &own)
	if !bytes.Equal(host[16:32], data) {
		t.Fatal("exact merge did not copy the full window")
	}
	if !setEquals(&dirty, []ocl.Span{{Off: 16, End: 32}}) || !setEquals(&own, []ocl.Span{{Off: 16, End: 32}}) {
		t.Fatalf("exact merge dirty=%v own=%v, want full window", dirty.spans, own.spans)
	}
}

// TestDiffMergeChunkRandomParity checks the 8-byte fast-path merge against
// the naive reference over random windows (odd sizes and offsets included).
func TestDiffMergeChunkRandomParity(t *testing.T) {
	const size = 512
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		orig := make([]byte, size)
		rng.Read(orig)
		host := append([]byte(nil), orig...)
		refHost := append([]byte(nil), orig...)
		off := rng.Intn(size - 1)
		n := rng.Intn(size-off) + 1
		data := append([]byte(nil), orig[off:off+n]...)
		for c := rng.Intn(8); c > 0; c-- {
			data[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
		var dirty, own, refDirty intervalSet
		diffMergeChunk(data, orig, host, off, false, &dirty, &own)
		naiveMerge(data, orig, refHost, off, &refDirty)
		if !bytes.Equal(host, refHost) {
			t.Fatalf("trial %d (off=%d n=%d): merged host differs from reference", trial, off, n)
		}
		// The fast path may widen dirty runs to word granularity but must
		// cover every byte the reference found changed and stay in-window.
		cover := func(b int) bool {
			for _, sp := range dirty.spans {
				if b >= sp.Off && b < sp.End {
					return true
				}
			}
			return false
		}
		for _, sp := range refDirty.spans {
			for b := sp.Off; b < sp.End; b++ {
				if !cover(b) {
					t.Fatalf("trial %d: changed byte %d missing from dirty set %v", trial, b, dirty.spans)
				}
			}
		}
		for _, sp := range dirty.spans {
			if sp.Off < off || sp.End > off+n {
				t.Fatalf("trial %d: dirty span %v escapes window [%d,%d)", trial, sp, off, off+n)
			}
		}
	}
}

// TestMergePathZeroAllocs guards the pooled merge path: once the pools and
// span arrays are primed, a chunk merge plus the planner's set arithmetic
// performs zero heap allocations per operation.
func TestMergePathZeroAllocs(t *testing.T) {
	const size = 4096
	orig := make([]byte, size)
	host := make([]byte, size)
	src := make([]byte, size)
	for i := 0; i < size; i += 64 {
		src[i] = byte(i>>6) + 1 // a changed word every 64 bytes
	}
	var bp bytePool
	var dirty, own, pend intervalSet
	op := func() {
		data := bp.get(1024)
		copy(data, src[512:512+1024])
		dirty.reset()
		own.reset()
		diffMergeChunk(data, orig, host, 512, false, &dirty, &own)
		bp.put(data)
		pend.reset()
		pend.addSetMinus(&dirty, &own)
		for _, sp := range own.spans {
			pend.subtractRange(sp.Off, sp.End)
		}
		pend.subtractRange(600, 700)
		pend.capSpans()
	}
	op() // prime pool slices and span-array capacities
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("steady-state merge path allocated %v allocs/op, want 0", allocs)
	}
}

func TestBytePoolReturnsSmallestAdequate(t *testing.T) {
	var p bytePool
	big := make([]byte, 0, 1000)
	small := make([]byte, 0, 100)
	p.put(big)
	p.put(small)
	got := p.get(50)
	if cap(got) != 100 {
		t.Fatalf("get(50) returned cap %d, want the smallest adequate (100)", cap(got))
	}
	if len(got) != 50 {
		t.Fatalf("get(50) returned len %d", len(got))
	}
	if got2 := p.get(500); cap(got2) != 1000 {
		t.Fatalf("get(500) returned cap %d, want 1000", cap(got2))
	}
	if got3 := p.get(2000); cap(got3) < 2000 {
		t.Fatalf("empty-pool get did not allocate adequately (cap %d)", cap(got3))
	}
}

// bytes returns the total byte count covered by the set.
func (s *intervalSet) bytes() int {
	n := 0
	for _, sp := range s.spans {
		n += sp.End - sp.Off
	}
	return n
}
