package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestDisabledTracingZeroAllocs pins the contract the whole stack relies on:
// with no recorder attached, every instrumentation call — nil-recorder
// methods and meter updates — allocates nothing, so always-on metering and
// the disabled trace path add zero allocs/op to hot loops (and therefore to
// BenchmarkOverallPerformance at the repo root).
func TestDisabledTracingZeroAllocs(t *testing.T) {
	var rec *Recorder // disabled
	var m Meter
	mi := m.AddDevice("dev", "GPU")
	allocs := testing.AllocsPerRun(1000, func() {
		if rec.Enabled() {
			t.Fatal("nil recorder claims enabled")
		}
		rec.Span(0, "x", 0, 1)
		rec.Instant(0, "x", 0)
		m.LaunchBegin(mi, 1)
		m.LaunchEnd(mi, 1, 2)
		m.TransferEnd(mi, 0.1, 0.2, 64, true, false)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkDisabledTracing is the benchmark-shaped guard for the same
// contract; run with -benchmem to see the 0 B/op, 0 allocs/op.
func BenchmarkDisabledTracing(b *testing.B) {
	var rec *Recorder
	var m Meter
	mi := m.AddDevice("dev", "CPU")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Span(0, "x", 0, 1)
		rec.Instant(0, "x", 0)
		m.LaunchBegin(mi, 1)
		m.LaunchEnd(mi, 1, 2)
		m.TransferEnd(mi, 0.1, 0.2, 64, false, false)
	}
}

// TestConcurrentRecording exercises one recorder from many goroutines; run
// under -race (make race / scripts/check.sh) it proves recording is
// race-clean, which the host-parallel harness requires.
func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	const goroutines, events = 8, 200
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			trk := rec.Track(fmt.Sprintf("track-%d", g%3))
			for i := 0; i < events; i++ {
				rec.Span(trk, "span", float64(i), float64(i+1), KV{K: "i", V: int64(i)})
				rec.Instant(trk, "inst", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Events()); got != goroutines*events*2 {
		t.Fatalf("recorded %d events, want %d", got, goroutines*events*2)
	}
	if got := len(rec.Tracks()); got != 3 {
		t.Fatalf("registered %d tracks, want 3", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteChrome produced invalid JSON")
	}
}

func TestRecorderTrackReuse(t *testing.T) {
	rec := NewRecorder()
	a := rec.Track("a")
	b := rec.Track("b")
	if a == b {
		t.Fatalf("distinct names share a track id: %d", a)
	}
	if again := rec.Track("a"); again != a {
		t.Fatalf("re-registering %q: got id %d, want %d", "a", again, a)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	rec := NewRecorder()
	trk := rec.Track("dev")
	rec.Span(trk, "k", 0, 1.5e-6, KV{K: "bytes", V: 64})
	rec.Instant(trk, "i", 2e-6)
	var a, b bytes.Buffer
	if err := rec.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serializations of the same recording differ")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", a.String())
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	// 1 process_name + 2 per track + 2 events.
	if got := len(parsed.TraceEvents); got != 5 {
		t.Fatalf("got %d trace events, want 5", got)
	}
}

// TestNilRecorderWriteChrome: exporting a nil recorder still yields a valid
// (empty) trace file.
func TestNilRecorderWriteChrome(t *testing.T) {
	var rec *Recorder
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil recorder produced invalid JSON")
	}
}

func TestMeterOverlap(t *testing.T) {
	var m Meter
	cpu := m.AddDevice("cpu", "CPU")
	gpu := m.AddDevice("gpu", "GPU")
	// GPU computes [0,10]; CPU computes [2,6] entirely inside it.
	m.LaunchBegin(gpu, 0)
	m.LaunchBegin(cpu, 2)
	m.LaunchEnd(cpu, 2, 6)
	m.LaunchEnd(gpu, 0, 10)
	s := m.Summary()
	if s.BothBusy != 4 {
		t.Fatalf("BothBusy = %v, want 4", s.BothBusy)
	}
	if got := s.OverlapFrac(); got != 1 {
		t.Fatalf("OverlapFrac = %v, want 1 (CPU fully overlapped)", got)
	}
	c := s.ByKind("CPU")
	g := s.ByKind("GPU")
	if c.Busy != 4 {
		t.Fatalf("CPU rollup = %+v", c)
	}
	if g.Busy != 10 {
		t.Fatalf("GPU rollup = %+v", g)
	}
}

func TestMeterTransferDirections(t *testing.T) {
	var m Meter
	d := m.AddDevice("gpu", "GPU")
	m.TransferEnd(d, 1, 2, 100, true, true)
	m.TransferEnd(d, 0, 3, 50, false, false)
	s := m.Summary().ByKind("GPU")
	if s.BytesH2D != 100 || s.BytesD2H != 50 {
		t.Fatalf("bytes H2D=%d D2H=%d, want 100/50", s.BytesH2D, s.BytesD2H)
	}
	if s.LinkWait != 1 || s.LinkBusy != 5 {
		t.Fatalf("link wait=%v busy=%v, want 1/5", s.LinkWait, s.LinkBusy)
	}
}

// TestSummaryAdd: two runs' summaries add device by device, merged by
// kind, so two GPUs of one topology fold into one GPU entry named after the
// first; BothBusy adds as is.
func TestSummaryAdd(t *testing.T) {
	var m Meter
	cpu := m.AddDevice("cpu", "CPU")
	gpu0 := m.AddDevice("gpu0", "GPU")
	gpu1 := m.AddDevice("gpu1", "GPU")
	m.LaunchBegin(cpu, 0)
	m.LaunchBegin(gpu0, 0)
	m.LaunchBegin(gpu1, 1)
	m.LaunchEnd(gpu0, 0, 1)
	m.LaunchEnd(gpu1, 1, 2) // two or more busy over [0, 2]
	m.LaunchEnd(cpu, 0, 3)
	m.TransferEnd(gpu0, 0, 1, 4096, true, true)
	run := m.Summary()
	run.Devices[cpu].WGs, run.Devices[gpu0].WGs, run.Devices[gpu1].WGs = 6, 2, 4
	var sum Summary
	sum.Add(run)
	sum.Add(run)
	want := Summary{BothBusy: 4, Devices: []DeviceMeter{
		{Name: "cpu", Kind: "CPU", Busy: 6, WGs: 12},
		{Name: "gpu0", Kind: "GPU", Busy: 4, WGs: 12, LinkBusy: 2, BytesH2D: 8192, BytesRefresh: 8192},
	}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("two runs add to %+v, want %+v", sum, want)
	}
	if run.Devices[gpu0].WGs != 2 || run.Devices[gpu0].Busy != 1 {
		t.Fatalf("adding changed the run's own summary: %+v", run.Devices[gpu0])
	}
	if g := sum.ByKind("GPU"); g.WGs != 12 || g.Busy != 4 {
		t.Errorf("ByKind(GPU) = %+v, want 12 groups over 4 s", g)
	}
}
