package vm

// Whole-work-group compilation.
//
// buildWG lowers a kernel's bytecode into a form the lockstep engine
// (wgexec.go) can run: the CFG is split at barriers into barrier-free
// regions, and every basic block is compiled into a list of banked steps
// (wgsteps.go), each of which loops over all work-items currently at that
// block against structure-of-arrays register banks. One block dispatch then
// serves the whole set of work-items instead of one, which is where the
// engine's speedup over the per-item interpreter comes from.
//
// The pass is purely structural; whether a given *launch* may actually run
// in lockstep is decided at execution time by the noninterference
// certificate (wgcert.go), which falls back to the interpreter per
// work-group when it cannot prove that cross-work-item execution order is
// unobservable. Kernels the static analyzer flags with divergent barriers
// are rejected here outright, so unsupported shapes never reach the engine.

// wgTerm kinds.
const (
	wtFall uint8 = iota
	wtJmp
	wtCond
	wtRet
	wtBarrier
)

// wgTerm describes a block terminator for the lockstep engine.
type wgTerm struct {
	kind    uint8
	jz      bool  // for wtCond: branch taken when reg == 0
	condReg int32 // for wtCond
	tgt     int   // wtJmp/wtCond: branch target leader pc
	next    int   // fallthrough / barrier-resume leader pc
}

// wblock is one basic block compiled for whole-group execution.
type wblock struct {
	start  int
	body   int   // end of the block body (terminator excluded)
	nInstr int64 // step-budget charge per work-item
	steps  []wstep
	// red, when non-nil, is the region-fused lowering of steps (wgfuse.go):
	// the whole body jammed into one loop over the work-items, run instead of
	// steps while WGFuseEnabled, for full-group dispatches.
	red  *wgReduce
	term wgTerm
}

// wgAccess is one static global- or local-memory access inside a region,
// recorded for the launch-time certificate.
type wgAccess struct {
	pc     int
	idxReg int32
	slot   int32
	local  bool
	store  bool
}

// wgRegion is one barrier-free region: every pc reachable from the entry
// without crossing a barrier or returning. Regions from different entries
// may share pcs; shared accesses are checked in every region that contains
// them, which is conservative.
type wgRegion struct {
	entry int
	accs  []wgAccess
}

// FusedSpan records one annotated run of instructions for disassembly: Len
// consecutive instructions starting at pc Start, labelled Name.
type FusedSpan struct {
	Start int
	Len   int
	Name  string
}

// wgProgram is the whole-work-group compilation of a kernel.
type wgProgram struct {
	blocks  []*wblock // indexed by pc; non-nil at block leaders only
	leader  []bool    // leader[pc]: pc starts a basic block
	regions []wgRegion
	// spans lists each block as a wg-loop span for disassembly annotation.
	spans []FusedSpan
	// fused lists each region-fused block body (wgfuse.go) for disassembly;
	// nofuse lists every other non-empty body, named by its WGFuseReject
	// reason (plus the offending register or pc).
	fused  []FusedSpan
	nofuse []FusedSpan
	// loops lists the loop verdict of every fused reduction body (wgloop.go),
	// spanning the body; Name is the whole disassembly annotation.
	loops []FusedSpan
	// iIn and iOut are the int registers live into and out of each block, by
	// leader pc (wgLiveness over the whole kernel; nil for wide register files).
	iIn, iOut map[int]uint64
}

// buildWG compiles the whole-work-group program from the well-formed bytecode
// Compile emits. It rejects kernels whose barriers the static analyzer
// reports as divergent: those can legally error at runtime, and the
// interpreter already produces that error with exact semantics.
func (k *Kernel) buildWG() {
	if k.HasBarrier {
		if k.sum == nil || k.sum.HasDivergentBarrier() {
			return
		}
	} else if len(k.PrivArrs) > 0 {
		// The interpreter runs a barrier-free group's work-items through
		// one shared state whose private slabs are not cleared between items
		// (wiState.reset), so a read-before-write observes the previous
		// item's leftovers. Lockstep execution cannot reproduce that
		// sequential carry-over; barrier kernels use per-item zeroed slabs in
		// every engine, so only this shape must fall back.
		return
	}
	code := k.Code
	n := len(code)

	leader := make([]bool, n+1)
	leader[0] = true
	for pc, in := range code {
		switch in.Op {
		case opJMP, opJZ, opJNZ:
			leader[in.A] = true
			leader[pc+1] = true
		case opBARRIER, opRET:
			leader[pc+1] = true
		}
	}

	blocks := make([]*wblock, n)
	var spans []FusedSpan
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		blk := k.buildWBlock(start, end)
		if blk == nil {
			return
		}
		blocks[start] = blk
		spans = append(spans, FusedSpan{Start: start, Len: end - start, Name: "wg.loop"})
		start = end
	}

	wg := &wgProgram{blocks: blocks, leader: leader[:n], spans: spans}
	wg.buildRegions(code)
	k.fuseWG(wg)
	k.wg = wg
	backendCtr.wgKernels.Add(1)
	backendCtr.wgRegions.Add(int64(len(wg.regions)))
}

// buildWBlock compiles the basic block code[start:end) into banked steps,
// one per instruction, plus a terminator descriptor. Conditional branches are
// not fused with their compare: the engine partitions the work-item set on
// the condition register, so the compare stays a normal banked step and the
// per-instruction stats come out identical.
func (k *Kernel) buildWBlock(start, end int) *wblock {
	code := k.Code
	blk := &wblock{start: start, nInstr: int64(end - start)}
	last := code[end-1]
	bodyEnd := end
	switch last.Op {
	case opJMP:
		bodyEnd = end - 1
		blk.term = wgTerm{kind: wtJmp, tgt: int(last.A)}
	case opJZ, opJNZ:
		bodyEnd = end - 1
		blk.term = wgTerm{kind: wtCond, jz: last.Op == opJZ, condReg: last.B, tgt: int(last.A), next: end}
	case opRET:
		bodyEnd = end - 1
		blk.term = wgTerm{kind: wtRet}
	case opBARRIER:
		bodyEnd = end - 1
		blk.term = wgTerm{kind: wtBarrier, next: end}
	default:
		blk.term = wgTerm{kind: wtFall, next: end}
	}
	blk.body = bodyEnd

	for pc := start; pc < bodyEnd; pc++ {
		if code[pc].Op == opNop {
			continue // no semantics; still counted in nInstr for the budget
		}
		s := k.buildWStep(pc)
		if s == nil {
			return nil
		}
		blk.steps = append(blk.steps, s)
	}
	return blk
}

// buildRegions computes the barrier-free regions: one per entry (pc 0 and
// the pc after every barrier), each containing the accesses reachable from
// the entry without crossing another barrier or returning.
func (wg *wgProgram) buildRegions(code []Instr) {
	n := len(code)
	entries := []int{0}
	for pc, in := range code {
		if in.Op == opBARRIER {
			entries = append(entries, pc+1)
		}
	}
	visited := make([]bool, n)
	var stack []int
	for _, e := range entries {
		for i := range visited {
			visited[i] = false
		}
		r := wgRegion{entry: e}
		stack = append(stack[:0], e)
		for len(stack) > 0 {
			pc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if pc >= n || visited[pc] {
				continue
			}
			visited[pc] = true
			in := code[pc]
			switch in.Op {
			case opJMP:
				stack = append(stack, int(in.A))
			case opJZ, opJNZ:
				stack = append(stack, int(in.A), pc+1)
			case opBARRIER, opRET:
				// region boundary: do not continue
			default:
				stack = append(stack, pc+1)
			}
			switch in.Op {
			case opLDGF, opLDGI:
				r.accs = append(r.accs, wgAccess{pc: pc, idxReg: in.C, slot: in.B})
			case opSTGF, opSTGI:
				r.accs = append(r.accs, wgAccess{pc: pc, idxReg: in.C, slot: in.B, store: true})
			case opLDLF, opLDLI:
				r.accs = append(r.accs, wgAccess{pc: pc, idxReg: in.C, slot: in.B, local: true})
			case opSTLF, opSTLI:
				r.accs = append(r.accs, wgAccess{pc: pc, idxReg: in.C, slot: in.B, local: true, store: true})
			}
			// Private-array accesses are per-work-item storage and cannot
			// interfere across items; the certificate ignores them.
		}
		wg.regions = append(wg.regions, r)
	}
}
