package core

import (
	"fmt"

	"fluidicl/internal/trace"
)

// RuntimeTrack names the recorder track that carries the twin protocol's
// scheduling decisions (subkernel dispatch, ships, merges, elisions,
// completion races) as instants on the shared virtual clock, each with its
// kernel's "kid". It is the protocol's one decision record: the Chrome
// trace shows it, and `fluidibench trace <bench>` prints it as text. An
// N-way runtime records no decisions.
const RuntimeTrack = "FluidiCL runtime"

func (r *Runtime) tracef(kid int, format string, args ...interface{}) {
	rec := r.Env.Trace
	if rec == nil {
		return
	}
	if r.fclTrk == 0 {
		r.fclTrk = rec.Track(RuntimeTrack) + 1
	}
	rec.Instant(r.fclTrk-1, fmt.Sprintf(format, args...), r.Env.Now(),
		trace.KV{K: "kid", V: int64(kid)})
}
