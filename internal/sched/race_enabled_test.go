//go:build race

package sched_test

// raceEnabled reports whether the race detector is on; its instrumentation
// allocates, so allocation guards skip under -race.
const raceEnabled = true
