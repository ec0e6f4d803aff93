package vm_test

import (
	"testing"

	"fluidicl/internal/vm"
)

// TestWGFuseColdScratchStats guards against a regression where the fused
// jams took several columnar-log subslices before filling them: a later
// reservation could grow (reallocate) the log, orphaning the earlier
// subslices, so their offsets replayed as zeros and the Seq/Rand/WarpTx
// classification drifted. The bug only fired while the log's backing array
// was still growing — i.e. on the first work-group a fresh scratch machine
// executes — so this test compiles a fresh kernel per backend order and
// runs the fused pass FIRST, before any unfused pass can warm the pool.
// SYR2K's body is the widest case (four columns reserved at once), and the
// GPU-transformed variants are what the twin protocol's GPU runs.
func TestWGFuseColdScratchStats(t *testing.T) {
	defer vm.SetWGFuse(true)
	for _, name := range []string{"SYRK", "SYR2K", "GESUMMV", "2MM"} {
		for _, gpuVar := range []bool{false, true} {
			// Each run compiles its own kernels (benchApp) so the per-kernel
			// scratch pools start cold, exactly like a scheduler strategy's
			// first work-group.
			run := func(fuse bool) []vm.Stats {
				vm.SetWGFuse(fuse)
				var out []vm.Stats
				for _, l := range benchApp(t, name, gpuVar) {
					for g := 0; g < l.nd.LaunchGroups(); g++ {
						st, err := l.k.ExecWorkGroup(l.nd, l.nd.GroupAt(g), l.args, vm.ExecOpts{Backend: vm.BackendWG})
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, st)
					}
				}
				return out
			}
			before := vm.BackendSnapshot().WGFusedInstrsDyn
			stF := run(true)
			if vm.BackendSnapshot().WGFusedInstrsDyn == before {
				t.Errorf("%s gpuvar=%v: the fused pass ran no fused closure", name, gpuVar)
			}
			stU := run(false)
			for g := range stF {
				if stF[g] != stU[g] {
					t.Errorf("%s gpuvar=%v group %d stats diverge on cold scratch:\n  fused   %+v\n  unfused %+v",
						name, gpuVar, g, stF[g], stU[g])
				}
			}
		}
	}
}
