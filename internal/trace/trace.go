// Package trace is the observability layer of the simulated FluidiCL stack:
// a low-overhead, virtual-time event recorder plus an always-on aggregate
// meter.
//
// Two levels of instrumentation coexist:
//
//   - Meter (meter.go) is a plain-struct accumulator embedded by value in
//     sim.Env. It is always on, allocation-free, and feeds the per-run
//     trace.Summary (per-device busy time, work-group counts, bytes moved
//     per direction, compute-overlap fraction) attached to sched.Result.
//
//   - Recorder (this file) captures individual events — kernel launches,
//     buffer transfers, link contention, FluidiCL scheduling decisions — for
//     export as Chrome trace_event JSON (chrome.go). It is opt-in: a nil
//     *Recorder is a valid, inert recorder, and every method on it returns
//     immediately, so the disabled path adds zero allocations (pinned by
//     TestDisabledTracingZeroAllocs). Callers that would build an event name
//     or argument list must guard on Enabled() first so those costs are only
//     paid when recording.
//
// The recorder is safe for concurrent use, and recording does not perturb
// the simulation: no virtual time is charged, so runs with and without a
// recorder produce identical timelines, and identical runs produce
// byte-identical trace files (pinned by a golden test in internal/harness).
package trace

import "sync"

// Event phases, mirroring the Chrome trace_event "ph" field.
const (
	PhSpan    byte = 'X' // complete event: Start + Dur
	PhInstant byte = 'i' // instantaneous event at Start
)

// KV is one integer argument attached to an event (rendered in the Chrome
// "args" object). Arguments are integers only so recording never formats.
type KV struct {
	K string
	V int64
}

// Event is one recorded occurrence on a track. Times are virtual seconds.
type Event struct {
	Track int
	Name  string
	Ph    byte
	Start float64
	Dur   float64
	Args  []KV
}

// Recorder collects events on named tracks. The zero value is ready to use;
// a nil *Recorder is a valid disabled recorder.
type Recorder struct {
	mu     sync.Mutex
	tracks []string
	events []Event
}

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether recording is active (false for a nil receiver).
// Callers must check it before doing any work that exists only to feed the
// recorder — formatting names, gathering arguments — so the disabled path
// stays allocation-free.
func (r *Recorder) Enabled() bool { return r != nil }

// Track returns the id of the named track, registering it on first use.
// Track ids are assigned in first-registration order, which is deterministic
// for deterministic callers. Returns -1 on a nil recorder.
func (r *Recorder) Track(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, t := range r.tracks {
		if t == name {
			return i
		}
	}
	r.tracks = append(r.tracks, name)
	return len(r.tracks) - 1
}

// Span records a complete event covering [start, end] on a track. No-op on a
// nil recorder or a negative track id.
func (r *Recorder) Span(track int, name string, start, end float64, args ...KV) {
	if r == nil || track < 0 {
		return
	}
	r.add(Event{Track: track, Name: name, Ph: PhSpan, Start: start, Dur: end - start, Args: args})
}

// Instant records an instantaneous event at time t on a track. No-op on a
// nil recorder or a negative track id.
func (r *Recorder) Instant(track int, name string, t float64, args ...KV) {
	if r == nil || track < 0 {
		return
	}
	r.add(Event{Track: track, Name: name, Ph: PhInstant, Start: t, Args: args})
}

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a snapshot copy of the recorded events, in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Tracks returns a snapshot copy of the registered track names, in id order.
func (r *Recorder) Tracks() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.tracks))
	copy(out, r.tracks)
	return out
}
