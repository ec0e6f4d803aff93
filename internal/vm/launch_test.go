package vm

import (
	"encoding/binary"
	"testing"
)

var launchBackends = []Backend{BackendInterp, BackendWG}

// TestExecLaunchErrorPartialWrites pins what a faulting launch leaves
// behind on every backend: the groups before the faulting one fully applied,
// the faulting group's stores up to the fault applied, later groups not run,
// and the stats so far — faulting group included — returned with the error.
func TestExecLaunchErrorPartialWrites(t *testing.T) {
	k := MustCompile(`
__kernel void faulty(__global int* a, int n) {
    int i = get_global_id(0);
    a[i] = i + 100;
    if (i == 37) { a[n * n] = 1; }
}
`, "faulty")
	const n, local = 48, 4
	const faultGroup = 37 / local
	nd := NewNDRange1D(n, local)
	for _, be := range launchBackends {
		buf := make([]byte, 4*n)
		st, err := k.ExecLaunch(nd, []Arg{BufArg(buf), IntArg(n)}, ExecOpts{Backend: be})
		if err == nil {
			t.Fatalf("%v: expected out-of-range error", be)
		}
		// The lockstep engine runs a store for the whole group before the
		// faulting one; the per-item engines stop at work-item 37. Items 38
		// and 39 are therefore unspecified, everything else is not.
		for i := 0; i < n; i++ {
			switch got := i32at(buf, i); {
			case i <= 37 && got != int32(i+100):
				t.Errorf("%v: a[%d] = %d, want %d (store before the fault)", be, i, got, i+100)
			case i >= (faultGroup+1)*local && got != 0:
				t.Errorf("%v: a[%d] = %d, want 0 (group after the fault ran)", be, i, got)
			}
		}
		if st.WorkGroups != faultGroup+1 || st.GlobalStores < 38 {
			t.Errorf("%v: stats so far = %d groups, %d stores; want %d groups, >= 38 stores",
				be, st.WorkGroups, st.GlobalStores, faultGroup+1)
		}
	}
}

// TestExecLaunchAliasedArgs passes the same buffer as two arguments: every
// backend must execute the launch in place against the shared storage.
func TestExecLaunchAliasedArgs(t *testing.T) {
	k := MustCompile(`
__kernel void twice(__global int* a, __global int* b, int n) {
    int i = get_global_id(0);
    if (i < n) { b[i] = a[i] + 1; }
}
`, "twice")
	const n = 32
	nd := NewNDRange1D(n, 4)
	for _, be := range launchBackends {
		buf := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(i))
		}
		args := []Arg{BufArg(buf), BufArg(buf), IntArg(n)}
		if _, err := k.ExecLaunch(nd, args, ExecOpts{Backend: be}); err != nil {
			t.Fatalf("%v: %v", be, err)
		}
		for i := 0; i < n; i++ {
			if got := i32at(buf, i); got != int32(i+1) {
				t.Fatalf("%v: a[%d] = %d, want %d", be, i, got, i+1)
			}
		}
	}
}
