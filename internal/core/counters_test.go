package core

import (
	"reflect"
	"testing"

	"fluidicl/internal/vm"
)

// TestCounterNamesPinned pins every -jsonout counter key: CI greps
// refresh_deltas, wg_fused_blocks and wg_cert_reject_*, and the sparse JSON
// omits zero counters, so only this list catches a renamed key whose counter
// happens to be zero in the pinned runs.
func TestCounterNamesPinned(t *testing.T) {
	want := []string{
		"uploads_skipped", "prime_copies_elided", "ship_bytes_skipped", "merge_words_elided",
		"splits_unvetoed", "refresh_bytes_skipped", "refresh_deltas",
		"closure_wgs", "interp_wgs", "fused_instrs", "total_instrs",
		"wg_loop_wgs", "wg_fallback_wgs", "wg_kernels", "wg_regions",
		"wg_fused_blocks", "wg_fused_steps", "wg_fuse_fallback_steps", "wg_strided_wgs",
		"wg_cert_reject_shape", "wg_cert_reject_alias", "wg_cert_reject_no_summary",
		"wg_cert_reject_local_store", "wg_cert_reject_unknown_store",
		"wg_cert_reject_unknown_read", "wg_cert_reject_overlap", "wg_cert_reject_budget",
	}
	var got []string
	var c Counters
	i := int64(0)
	for _, r := range c.refs() {
		got = append(got, r.key)
		i++
		*r.v = i // distinct values: every ref must name distinct storage
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counter keys\n got %v\nwant %v", got, want)
	}
	// One key per wg reject reason the VM knows, under the VM's name for it.
	names := vm.WGRejectNames()
	for r := int(vm.WGRejNone) + 1; r < len(names); r++ {
		if key := want[19+r-1]; key != "wg_cert_reject_"+names[r] {
			t.Errorf("reject reason %d (%s) is emitted as %q", r, names[r], key)
		}
	}
	if len(want) != 19+len(names)-1 {
		t.Errorf("%d counters for %d reject reasons", len(want), len(names)-1)
	}
	if d := c.Sub(c); d != (Counters{}) {
		t.Errorf("c.Sub(c) = %+v, want zero", d)
	}
	sum := c.plus(c, 1)
	i = 0
	sum.Each(func(name string, v int64) {
		i++
		if v != 2*i {
			t.Errorf("%s: c+c = %d, want %d", name, v, 2*i)
		}
	})
}
