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
// The pass is purely structural; whether a given *launch* may run in
// whole-group sets is decided at execution time by the admission certificate
// (wgcert.go): where it cannot prove that cross-work-item execution order is
// unobservable, each group runs in one-lane sets in work-item order. Every
// kernel compiles: private arrays are per work-item in every engine, and a
// barrier the static analyzer flags as divergent is checked where it runs
// (runGroup's phase end reports items that diverged or skipped it).

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
	// code is the body's non-nop instructions as its steps run them: k.Code's,
	// forwarded (wgForward). The fused plans and the loop walk read k.Code.
	code  []wgIns
	steps []wstep
	// once is steps with every group-uniform step run once (wguniform.go),
	// what a full-group dispatch runs; nil when the block has none.
	once []wstep
	// cls holds each step's Stats class (optab.go) and ops counts them: the
	// dispatcher books a set's op counts per block, not per step.
	cls []opClass
	ops opCounts
	// red, when non-nil, is the region-fused lowering of steps (wgfuse.go):
	// the whole body jammed into one loop over the work-items, run instead of
	// steps while WGFuseEnabled, for full-group dispatches and, when it has a
	// loop plan, for any set.
	red  *wgReduce
	term wgTerm
}

// wgIns is one instruction of a block body and its pc.
type wgIns struct {
	Instr
	pc int
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
	blocks []*wblock // indexed by pc; non-nil at block leaders only
	// regions lists the entry pc of every barrier-free region: pc 0 and the
	// pc after every barrier.
	regions []int
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
	// iIn and iOut are the int registers live into and out of each block,
	// fOut the float registers live out of it, by leader pc (wgLiveness over
	// the whole kernel; nil for wide register files). With them come the
	// masks a group's entry reads (wmach.enter): clrI and clrF are the
	// registers other than parameters that pc 0 may read before any write,
	// defI and defF those some instruction writes.
	iIn, iOut, fOut        map[int]uint64
	clrI, clrF, defI, defF uint64
}

// buildWG compiles the whole-work-group program from the well-formed bytecode
// Compile emits.
func (k *Kernel) buildWG() {
	code := k.Code
	n := len(code)

	leader := make([]bool, n+1)
	leader[0] = true
	regions := []int{0}
	for pc, in := range code {
		switch in.Op {
		case opJMP, opJZ, opJNZ:
			leader[in.A] = true
			leader[pc+1] = true
		case opBARRIER:
			leader[pc+1] = true
			regions = append(regions, pc+1)
		case opRET:
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
		blocks[start] = k.buildWBlock(start, end)
		spans = append(spans, FusedSpan{Start: start, Len: end - start, Name: "wg.loop"})
		start = end
	}

	wg := &wgProgram{blocks: blocks, regions: regions, spans: spans}
	k.fuseWG(wg)
	cls := make([]uint8, len(code)) // every step per lane for a wide register file
	if wg.iOut != nil {
		for _, b := range blocks {
			if b != nil {
				k.wgForward(b)
			}
		}
		cls = k.wgUniform(wg)
	}
	for _, b := range blocks {
		if b != nil {
			k.buildSteps(b, cls)
		}
	}
	k.wg = wg
	backendCtr.wgKernels.Add(1)
	backendCtr.wgRegions.Add(int64(len(wg.regions)))
}

// buildWBlock describes the basic block code[start:end): its body's
// instructions and op counts and its terminator (buildSteps compiles the
// steps). Conditional branches are not fused with their compare: the engine
// partitions the work-item set on the condition register, so the compare
// stays a normal banked step and the per-instruction stats come out
// identical.
func (k *Kernel) buildWBlock(start, end int) *wblock {
	code := k.Code
	blk := &wblock{start: start, body: end - 1, nInstr: int64(end - start)}
	switch last := code[end-1]; last.Op {
	case opJMP:
		blk.term = wgTerm{kind: wtJmp, tgt: int(last.A)}
	case opJZ, opJNZ:
		blk.term = wgTerm{kind: wtCond, jz: last.Op == opJZ, condReg: last.B, tgt: int(last.A), next: end}
	case opRET:
		blk.term = wgTerm{kind: wtRet}
	case opBARRIER:
		blk.term = wgTerm{kind: wtBarrier, next: end}
	default:
		blk.term, blk.body = wgTerm{kind: wtFall, next: end}, end
	}
	for pc := start; pc < blk.body; pc++ {
		if in := code[pc]; in.Op != opNop { // a nop has no semantics; nInstr still counts it
			blk.code = append(blk.code, wgIns{in, pc})
			blk.ops[opTab[in.Op].class]++
		}
	}
	return blk
}

// wgForward rewrites the block's instructions for its steps (DESIGN.md §8,
// "Forwarding"). A read of a register whose last definition in the block is
// an imov or fmov reads the move's source instead, as forwarded (a chain of
// moves reads its first source), while that source is not redefined; so
// does the branch's condition. A move that then reads its own destination
// changes nothing. A dimension operand held in an in-block ldi becomes that
// constant: B -1, the dimension in IImm (wgBit(-1) is 0, so the liveness
// masks see no read). wgUniform then drops those moves, and the moves and
// constants whose destinations are dead.
func (k *Kernel) wgForward(blk *wblock) {
	var at [2][64]int // per file (int, float): 1 + the index in code of each register's last definition, 0 for none
	src := func(f int, r int32) int32 {
		if i := at[f][r]; i > 0 && blk.code[i-1].Op == [2]Op{opIMOV, opFMOV}[f] && at[f][blk.code[i-1].B] < i {
			return blk.code[i-1].B
		}
		return r
	}
	for i := range blk.code {
		in := &blk.code[i].Instr
		ops := sigOperands[opTab[in.Op].sig]
		for j, p := range [3]*int32{&in.A, &in.B, &in.C} {
			switch ops[j] {
			case oI, oIdx, oDim:
				*p = src(0, *p)
			case oF:
				*p = src(1, *p)
			}
		}
		if ops[1] == oDim {
			if d := at[0][in.B]; d > 0 && blk.code[d-1].Op == opLDI {
				in.B, in.IImm = -1, blk.code[d-1].IImm
			}
		}
		switch {
		case in.A == in.B && (in.Op == opIMOV || in.Op == opFMOV): // now a no-op, not a definition
		case ops[0] == oIw:
			at[0][in.A] = i + 1
		case ops[0] == oFw:
			at[1][in.A] = i + 1
		}
	}
	if blk.term.kind == wtCond {
		blk.term.condReg = src(0, blk.term.condReg)
	}
}

// runSteps runs the block's steps over set and books their op counts: all
// of them, or, when a step fails, those of the steps before it.
func (b *wblock) runSteps(m *wmach, set []int32) bool {
	steps := b.steps
	if m.full && b.once != nil {
		steps = b.once
	}
	for i, stp := range steps {
		if !stp(m, set) {
			var ran opCounts
			for _, c := range b.cls[:i] {
				ran[c]++
			}
			m.st.bookOps(&ran, int64(len(set)))
			return false
		}
	}
	m.st.bookOps(&b.ops, int64(len(set)))
	return true
}
