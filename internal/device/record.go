package device

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"fluidicl/internal/vm"
)

// A static sweep runs one app at many static splits (sched.Sweep). Splits
// that compute the reference result start each launch from the same bytes,
// so each in-range work-group of the range-guarded kernel computes the same
// Stats and stores the same words at every split. A LaunchRecord holds them for one launch of the
// sweep: the first split to run a group executes and records it, and a later
// split replays it — applies the stored words and prices the Stats with
// WGTime — instead of executing it again. DESIGN.md §3, "One execution per
// group across a static sweep", gives the argument.

// LaunchRecord is one launch of a static sweep, shared by every split that
// runs it, concurrently or not. The zero value is an empty record.
type LaunchRecord struct {
	mu sync.Mutex
	// Set by the first launch to use the record, and fixed from then on: the
	// key a later launch must repeat (kernel, full grid, engine, scalar
	// arguments other than the guard pair), the launch-start bytes of every
	// buffer the kernel reads, and the cross-group certificate.
	set     bool
	kernel  *vm.Kernel
	nd      vm.NDRange // the full grid; the slice fields are zero
	backend vm.Backend
	args    []vm.Arg // scalar arguments; buffer slots are empty
	snap    [][]byte // per argument: launch-start bytes of a buffer the kernel reads
	shared  uint64   // bit i: snap[i] is a handed-over source, kept by reference
	indep   bool     // no group stores to a word another group loads

	groups   []*groupRecord // by flattened group ID
	recorded int            // groups recorded at least once
	arena    []storedWord   // backs the groups' words
}

// groupRecord is one execution of an in-range group.
type groupRecord struct {
	lo    int // the first group of the side it ran on: [lo, fgid) ran before it
	stats vm.Stats
	words []storedWord // in store order; a window of the record's arena
}

// storedWord is one store a group made: the word's final value in argument
// arg at byte offset off.
type storedWord struct {
	arg, off int32
	bits     uint32
}

// Replay asks runLaunch to serve a launch's in-range groups from a sweep
// record. The kernel is range-guarded: its last two arguments are ints lo
// and hi, and only the groups whose flattened ID lies in [lo, hi] do any work.
type Replay struct {
	Rec *LaunchRecord
	// Shared: bit i marks buffer argument i as a handed-over source, which
	// nothing writes while the launch is bound to it (package ocl sets it
	// when it binds the launch).
	Shared uint64
}

// Test hooks, nil outside tests (export_test.go sets them).
var (
	// recordHook sees every in-range group executed to be recorded.
	recordHook func()
	// checkHook, when set, makes every group that would replay execute
	// instead and sees it; a run that differs from its record fails the
	// launch.
	checkHook func()
)

// admit reports whether launch l may use the record and returns its group
// range. The first launch sets the record up; a later one is admitted only
// if it repeats the key and starts from the recorded bytes. A launch whose
// buffer arguments share storage is never admitted: the certificate and the
// words' argument indices assume they do not.
func (r *LaunchRecord) admit(l *Launch, shared uint64) (lo, hi int, ok bool) {
	args := l.Args
	n := len(args)
	if n < 2 || n != len(l.Kernel.Params) || args[n-2].Kind != vm.ArgInt || args[n-1].Kind != vm.ArgInt || aliased(args) {
		return 0, 0, false
	}
	lo, hi = int(args[n-2].I), int(args[n-1].I)
	nd := l.ND
	nd.GroupBase, nd.GroupCount = [3]int{}, [3]int{}
	r.mu.Lock()
	if !r.set {
		defer r.mu.Unlock()
		r.set, r.kernel, r.nd, r.backend = true, l.Kernel, nd, l.Backend
		r.args = make([]vm.Arg, n)
		r.snap = make([][]byte, n)
		for i, a := range args {
			r.args[i] = vm.Arg{Kind: a.Kind, I: a.I, F: a.F}
			switch {
			case a.Kind != vm.ArgBuffer || !l.Kernel.Info.ParamAccess[l.Kernel.Params[i].Name].Read:
			case shared&(1<<i) != 0:
				r.snap[i] = a.Buf
				r.shared |= 1 << i
			default:
				r.snap[i] = bytes.Clone(a.Buf)
			}
		}
		r.indep = l.Kernel.GroupsIndependent(l.ND, args)
		r.groups = make([]*groupRecord, nd.TotalGroups())
		return lo, hi, true
	}
	r.mu.Unlock()
	if r.kernel != l.Kernel || r.nd != nd || r.backend != l.Backend || len(r.args) != n {
		return 0, 0, false
	}
	for i, a := range args[:n-2] {
		b := r.args[i]
		if a.Kind != b.Kind || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) {
			return 0, 0, false
		}
		// A handed-over source cannot change while bound: the same one holds
		// the same bytes.
		s := r.snap[i]
		if s != nil && !(r.shared&shared&(1<<i) != 0 && sameStorage(a.Buf, s)) && !bytes.Equal(a.Buf, s) {
			return 0, 0, false
		}
	}
	return lo, hi, true
}

// aliased reports two buffer arguments on one storage.
func aliased(args []vm.Arg) bool {
	for i, a := range args {
		for _, b := range args[i+1:] {
			if a.Kind == vm.ArgBuffer && b.Kind == vm.ArgBuffer && len(a.Buf) > 0 && len(b.Buf) > 0 && &a.Buf[0] == &b.Buf[0] {
				return true
			}
		}
	}
	return false
}

// sameStorage reports two slices of one backing array, from its start.
func sameStorage(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// serve runs in-range group fgid of an admitted launch whose side begins at
// group lo. It replays the group's record when the groups that ran before it
// on this side are the ones that ran before it when it was recorded, or when
// no group stores to a word another group loads; otherwise it executes the
// group, with an undo log to learn which words it stored, and records it.
func (r *LaunchRecord) serve(l *Launch, group [3]int, fgid, lo int, sc *launchScratch) (vm.Stats, error) {
	r.mu.Lock()
	g := r.groups[fgid]
	r.mu.Unlock()
	replay := g != nil && (g.lo == lo || r.indep)
	if replay && checkHook == nil {
		for _, w := range g.words {
			binary.LittleEndian.PutUint32(l.Args[w.arg].Buf[w.off:], w.bits)
		}
		return g.stats, nil
	}
	u := sc.log()
	defer sc.settled(u)
	st, err := l.Kernel.ExecWorkGroup(l.ND, group, l.Args, vm.ExecOpts{Undo: u, Backend: l.Backend})
	if err != nil {
		return st, err
	}
	words := sc.words[:0]
	bufs, recs := u.Stores()
	for _, s := range recs {
		buf := bufs[s.Buf]
		arg := 0
		for !sameStorage(l.Args[arg].Buf, buf) {
			arg++
		}
		words = append(words, storedWord{arg: int32(arg), off: s.Off, bits: binary.LittleEndian.Uint32(buf[s.Off:])})
	}
	sc.words = words
	if replay {
		checkHook()
		if st != g.stats || !slices.Equal(words, g.words) {
			return st, fmt.Errorf("device: group %d of %s stored other words or Stats than its record", fgid, l.Label)
		}
		return st, nil
	}
	if recordHook != nil {
		recordHook()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groups[fgid] == nil {
		r.recorded++
	}
	if cap(r.arena)-len(r.arena) < len(words) {
		// A new block sized for the groups still to come, if they store as
		// many words; full blocks stay where the groups' windows point.
		r.arena = make([]storedWord, 0, len(words)*max(1, len(r.groups)-r.recorded+1))
	}
	at := len(r.arena)
	r.arena = append(r.arena, words...)
	r.groups[fgid] = &groupRecord{lo: lo, stats: st, words: r.arena[at:len(r.arena):len(r.arena)]}
	return st, nil
}
