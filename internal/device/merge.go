package device

import (
	"encoding/binary"

	"fluidicl/internal/vm"
)

// GroupFunc is a built-in kernel's native body, the way OpenCL 1.2 built-in
// kernels are the runtime's own code: it runs one work-group of a launch in
// place of the VM and returns the Stats the VM returns for that group. It
// reports false, with memory untouched, for a group whose arguments it does
// not cover; the VM runs that group instead.
type GroupFunc func(nd vm.NDRange, group [3]int, args []vm.Arg) (vm.Stats, bool)

// coalesceWidth is the VM's warp: the lanes whose accesses through one
// memory op coalesce (vm.Stats.WarpTransactions).
const coalesceWidth = 32

// MergeGroup is fcl_merge (passes.MergeKernelSource, the paper's Fig. 9
// diff-merge) as a built-in kernel. Lane t of the group merges word
// i = get_global_id(0) + fcl_lo when i < fcl_nwords, so the lanes that merge
// are a prefix of the group; of those, a lane whose fcl_cpu word differs from
// its fcl_orig word copies it to fcl_gpu. The Stats are the interpreter's
// for the compiled kernel, counted from that prefix and the lanes that
// differ (DESIGN.md §3, "Built-in merge"); the VM stays the referee
// (TestBuiltinMergeMatchesVM). Groups the VM would trap in, or whose indices
// could overflow, go to the VM.
func MergeGroup(nd vm.NDRange, group [3]int, args []vm.Arg) (vm.Stats, bool) {
	const bound = 1 << 40
	if len(args) != 5 || nd.LocalSize[1] != 1 || nd.LocalSize[2] != 1 || args[3].Kind != vm.ArgInt || args[4].Kind != vm.ArgInt {
		return vm.Stats{}, false
	}
	words := int64(bound)
	for _, a := range args[:3] {
		if a.Kind != vm.ArgBuffer || a.Buf == nil {
			return vm.Stats{}, false
		}
		words = min(words, int64(len(a.Buf)/4))
	}
	nwords, lo := args[3].I, args[4].I
	if nwords < -bound || nwords > bound || lo < -bound || lo > bound {
		return vm.Stats{}, false
	}
	nwi := int64(nd.LocalSize[0])
	base := int64(group[0])*nwi + lo
	in := min(max(nwords-base, 0), nwi)
	// Per lane: get_global_id, the add of fcl_lo and the range compare, and
	// two branches, the range's and the word compare's, which a lane out of
	// range reaches too; a lane in range adds the word compare.
	st := vm.Stats{WorkGroups: 1, WorkItems: int(nwi), IntOps: 3*nwi + in, Branches: 2 * nwi}
	if in == 0 {
		return st, true
	}
	if base < 0 || base+in > words {
		return vm.Stats{}, false
	}
	cpu, gpu, orig := args[0].Buf[4*base:4*(base+in)], args[1].Buf[4*base:4*(base+in)], args[2].Buf[4*base:4*(base+in)]
	var diff, runs int64
	first, last := -1, -1
	differed := false
	for t := 0; t < int(in); t++ {
		w := binary.LittleEndian.Uint32(cpu[4*t:])
		d := w != binary.LittleEndian.Uint32(orig[4*t:])
		if d {
			binary.LittleEndian.PutUint32(gpu[4*t:], w)
			if t%coalesceWidth == 0 || !differed {
				runs++
			}
			if first < 0 {
				first = t
			}
			last = t
			diff++
		}
		differed = d
	}
	// Each lane in range loads fcl_cpu[i] and fcl_orig[i]; each lane that
	// differs loads fcl_cpu[i] again and stores fcl_gpu[i]. Every op runs at
	// most once per work-item, so every access is the first of its op in its
	// work-item and books random bytes. Across a warp, adjacent lanes'
	// words coalesce: the two range loads open one transaction per warp with
	// a lane in range, the re-load and the store one per run of differing
	// lanes.
	st.GlobalLoads, st.GlobalStores = 2*in+diff, diff
	st.GlobalLoadBytes, st.GlobalStoreBytes = 4*st.GlobalLoads, 4*diff
	st.RandBytes = st.GlobalLoadBytes + st.GlobalStoreBytes
	st.WarpTransactions = 2*((in+coalesceWidth-1)/coalesceWidth) + 2*runs
	st.ParamReadMask = 1<<0 | 1<<2
	if diff > 0 {
		st.ParamWriteMask = 1 << 1
		st.WrLo[1], st.WrHi[1] = int32(4*(base+int64(first))), int32(4*(base+int64(last))+4)
	}
	return st, true
}
