package device

import (
	"sync/atomic"
	"testing"
)

// SweepTally counts, while its hooks are installed, the in-range groups
// that launches with a sweep record executed to record them, and the
// replays that executed instead to be checked against their records.
type SweepTally struct {
	Recorded, Checked atomic.Int64
}

// WatchSweeps installs the record hooks (record.go) for the rest of the
// test. With check, every group that would replay executes instead, and a
// run that stores other words or produces other Stats than its record
// fails its launch. Tests that call it must not run in parallel.
func WatchSweeps(t testing.TB, check bool) *SweepTally {
	tally := &SweepTally{}
	recordHook = func() { tally.Recorded.Add(1) }
	if check {
		checkHook = func() { tally.Checked.Add(1) }
	}
	t.Cleanup(func() { recordHook, checkHook = nil, nil })
	return tally
}
