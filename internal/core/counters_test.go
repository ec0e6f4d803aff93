package core

import (
	"reflect"
	"strings"
	"testing"

	"fluidicl/internal/vm"
)

// TestCounterNamesPinned pins every -jsonout counter key: CI greps
// refresh_deltas, wg_fused_instrs_dyn, wg_fuse_reject_* and wg_loop_*, and the sparse
// JSON omits zero counters, so only this list catches a renamed key whose
// counter happens to be zero in the pinned runs.
func TestCounterNamesPinned(t *testing.T) {
	want := []string{
		"uploads_skipped", "prime_copies_elided", "ship_bytes_skipped", "merge_words_elided",
		"splits_unvetoed", "refresh_bytes_skipped", "refresh_deltas",
		"interp_wgs", "total_instrs",
		"wg_loop_wgs", "wg_fallback_wgs", "wg_kernels", "wg_regions",
		"wg_fused_blocks", "wg_fused_steps", "wg_fuse_fallback_steps",
		"wg_fused_instrs_dyn", "wg_step_instrs_dyn", "wg_strided_wgs",
		"wg_cert_reject_shape", "wg_cert_reject_alias", "wg_cert_reject_no_summary",
		"wg_cert_reject_local_store", "wg_cert_reject_unknown_store",
		"wg_cert_reject_unknown_read", "wg_cert_reject_overlap", "wg_cert_reject_budget",
		"wg_fuse_reject_shape", "wg_fuse_reject_wiring", "wg_fuse_reject_live_scratch",
		"wg_fuse_reject_cap", "wg_fuse_reject_wide_regs", "wg_fuse_reject_cond_terminator",
		"wg_loop_fused", "wg_loop_reject_no_cycle", "wg_loop_reject_index_not_linear",
		"wg_loop_reject_counter_redefined",
		"wg_loop_batches_dyn", "wg_loop_trips_dyn", "wg_loop_nonuniform_dyn",
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
	// One key per wg certificate reject reason and per fusion reject reason
	// the VM knows, under the VM's name for it (the disassembly's hyphens
	// become underscores).
	certs, fuses := vm.WGRejectNames(), vm.WGFuseRejectNames()
	const firstCert = 19
	firstFuse := firstCert + len(certs) - 1
	for r := int(vm.WGRejNone) + 1; r < len(certs); r++ {
		if key := want[firstCert+r-1]; key != "wg_cert_reject_"+certs[r] {
			t.Errorf("reject reason %d (%s) is emitted as %q", r, certs[r], key)
		}
	}
	for r := int(vm.WGFuseRejNone) + 1; r < len(fuses); r++ {
		if key := want[firstFuse+r-1]; key != "wg_fuse_reject_"+strings.ReplaceAll(fuses[r], "-", "_") {
			t.Errorf("fuse reject reason %d (%s) is emitted as %q", r, fuses[r], key)
		}
	}
	loops := vm.WGLoopRejectNames()
	firstLoop := firstFuse + len(fuses) - 1 // wg_loop_fused, then one key per reason
	for r := int(vm.WGLoopRejNone) + 1; r < len(loops); r++ {
		if key := want[firstLoop+r]; key != "wg_loop_reject_"+strings.ReplaceAll(loops[r], "-", "_") {
			t.Errorf("loop reject reason %d (%s) is emitted as %q", r, loops[r], key)
		}
	}
	if len(want) != firstLoop+len(loops)+3 {
		t.Errorf("%d counters for %d+%d+%d reject reasons", len(want), len(certs)-1, len(fuses)-1, len(loops)-1)
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
