package core

import (
	"fmt"
	"sort"
	"strings"

	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
)

// TraceEvent is one timestamped runtime event.
type TraceEvent struct {
	T    sim.Time
	KID  int
	What string
}

// Trace records the runtime's cooperative-execution timeline when enabled
// with EnableTrace. It is an observability aid: `fluidibench trace <bench>`
// prints it, and tests assert orderings on it (e.g. "status messages always
// follow their data").
type Trace struct {
	Events []TraceEvent
}

// EnableTrace turns on event recording for subsequent kernel executions.
// Only the twin protocol narrates its decisions; an N-way runtime's timeline
// stays empty.
func (r *Runtime) EnableTrace() *Trace {
	r.trace = &Trace{}
	return r.trace
}

func (r *Runtime) tracef(kid int, format string, args ...interface{}) {
	rec := r.Env.Trace
	if !r.narrate || (r.trace == nil && rec == nil) {
		return
	}
	what := fmt.Sprintf(format, args...)
	if r.trace != nil {
		r.trace.Events = append(r.trace.Events, TraceEvent{
			T:    r.Env.Now(),
			KID:  kid,
			What: what,
		})
	}
	if rec != nil {
		// Every FluidiCL scheduling decision (subkernel dispatch, ships,
		// merges, elisions, completion races) also lands on the runtime's
		// own recorder track, as instants on the shared virtual clock.
		rec.Instant(r.fclTrack(rec), what, r.Env.Now(),
			trace.KV{K: "kid", V: int64(kid)})
	}
}

// fclTrack returns (registering on first use) the recorder track carrying
// the FluidiCL runtime's scheduling decisions.
func (r *Runtime) fclTrack(rec *trace.Recorder) int {
	if r.fclTrk == 0 {
		r.fclTrk = rec.Track("FluidiCL runtime") + 1
	}
	return r.fclTrk - 1
}

// String renders the timeline, one event per line, time-ordered.
func (t *Trace) String() string {
	evs := make([]TraceEvent, len(t.Events))
	copy(evs, t.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%10.3f us  k%-2d %s\n", e.T*1e6, e.KID, e.What)
	}
	return b.String()
}

// Find returns the events whose description contains substr, time-ordered.
func (t *Trace) Find(substr string) []TraceEvent {
	var out []TraceEvent
	for _, e := range t.Events {
		if strings.Contains(e.What, substr) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
