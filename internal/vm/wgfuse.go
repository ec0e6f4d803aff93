package vm

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Region fusion for the lockstep engine (DESIGN.md S20).
//
// The banked steps of wgsteps.go execute step-major: a k-step block makes k
// passes over the SoA banks per dispatch and pays k indirect calls. This pass
// runs at wg-compile time and lowers the one block shape that carries the
// executed instructions — the multiply-accumulate body of a reduction loop
// (wgfuseReduce) — into a plan that loops over the work-items once, the
// ld/fmadd sequences jammed into one inner loop and pattern-internal scratch
// registers kept in scalars instead of bank slabs. When the loop control
// around the body is lane-uniform the plan runs all T trips of the loop per
// work-item in one dispatch (wgloop.go). Every other block runs per-step.
//
// Fusibility proof, in three parts:
//
//  1. Reordering: banked steps are lane-local on registers, and the engine
//     only runs launches the noninterference certificate (wgcert.go) admitted,
//     so any order that keeps each work-item's own program order leaves every
//     buffer byte and register trajectory of an error-free run unchanged.
//  2. Stats: every batched counter is an order-independent sum or mask. The
//     order-sensitive locality tracker sees the same streams as per-step
//     execution, except for the jam's own load sites, which are booked in
//     closed form against the transposed state the replay uses, one state
//     machine per site and phase (DESIGN.md S20, "Loop-level fusion").
//  3. Scalar elision: a scratch register's bank write is dropped only when
//     the register is dead at the block exit (wgLiveness) and the terminator
//     does not read it (conditional terminators are rejected outright).
//
// Every block that stays per-step carries exactly one WGFuseReject reason
// (counted, and annotated in the disassembly); wg_fused_instrs_dyn /
// wg_step_instrs_dyn attribute the executed coverage. SetWGFuse keeps the
// per-step path selectable for the fused-vs-unfused differential tests.

// wgFuseFlag holds the process-wide fused-execution switch (on unless a
// differential test turns it off).
var wgFuseFlag atomic.Bool

func init() { wgFuseFlag.Store(true) }

// WGFuseEnabled reports whether the lockstep engine dispatches the fused
// plans (the default) or the per-step lists.
func WGFuseEnabled() bool { return wgFuseFlag.Load() }

// SetWGFuse selects fused (true) or per-step (false) wg block execution
// process-wide. Safe to call concurrently; work-groups already running
// keep the mode they resolved at entry.
func SetWGFuse(on bool) { wgFuseFlag.Store(on) }

// WGFuseReject enumerates the reasons the fusion pass left a block body on
// the per-step path. Every unfused block carries exactly one; the per-reason
// counters surface through BackendSnapshot → core.CounterSnapshot →
// fluidibench, and the disassembly names the reason per block.
type WGFuseReject uint8

const (
	// WGFuseRejNone: not rejected (the block fused).
	WGFuseRejNone WGFuseReject = iota
	// WGFuseRejShape: the body's opcode sequence is not a reduction chain.
	WGFuseRejShape
	// WGFuseRejWiring: the opcodes match the grammar but the operands are not
	// wired like it (a source redefined earlier in the jam, an accumulator
	// aliased with a scratch register, a clobbered running product).
	WGFuseRejWiring
	// WGFuseRejLiveScratch: a register the jam would keep in a scalar is
	// live at the block exit.
	WGFuseRejLiveScratch
	// WGFuseRejCap: a reduction chain beyond the compile-time plan capacity.
	WGFuseRejCap
	// WGFuseRejWideRegs: the kernel's register files do not fit the 64-bit
	// liveness masks.
	WGFuseRejWideRegs
	// WGFuseRejCondTerm: the block ends in a conditional branch, which reads
	// a register the body defines.
	WGFuseRejCondTerm

	wgFuseRejCount = int(WGFuseRejCondTerm) + 1
)

var wgFuseRejectNames = [wgFuseRejCount]string{
	"none", "shape", "wiring", "live-scratch", "cap", "wide-regs", "cond-terminator",
}

func (r WGFuseReject) String() string {
	if int(r) < wgFuseRejCount {
		return wgFuseRejectNames[r]
	}
	return "unknown"
}

// wgNoFuse is a matcher's verdict on a block it did not fuse: the reason,
// plus the offending register or pc for the disassembly ("" when the reason
// says it all).
type wgNoFuse struct {
	why WGFuseReject
	at  string
}

func (r wgNoFuse) String() string {
	if r.at == "" {
		return r.why.String()
	}
	return r.why.String() + " " + r.at
}

// wgLiveScratch is the dead-scratch proof: it names the lowest-numbered
// scratch register that is live at the block exit, or returns the zero
// verdict (WGFuseRejNone) when there is none.
func wgLiveScratch(scratchI, liveI, scratchF, liveF uint64) wgNoFuse {
	if v := scratchI & liveI; v != 0 {
		return wgNoFuse{WGFuseRejLiveScratch, fmt.Sprintf("r%d", bits.TrailingZeros64(v))}
	}
	if v := scratchF & liveF; v != 0 {
		return wgNoFuse{WGFuseRejLiveScratch, fmt.Sprintf("f%d", bits.TrailingZeros64(v))}
	}
	return wgNoFuse{}
}

// ---------------------------------------------------------------------------
// Block-level liveness
// ---------------------------------------------------------------------------

// wgUseDef returns the int/float register use and def bitmasks of one
// instruction. Unknown opcodes are treated as reading every register and
// defining none, which is conservative for the dead-scratch proof.
func wgUseDef(in Instr) (iu, fu, id, fd uint64) {
	b := func(r int32) uint64 { return 1 << uint(r) }
	switch in.Op {
	case opNop, opRET, opBARRIER, opJMP:
	case opGOFF, opWDIM:
		id = b(in.A)
	case opLDI:
		id = b(in.A)
	case opLDF:
		fd = b(in.A)
	case opIMOV, opINEG, opNOTB, opIABS:
		iu, id = b(in.B), b(in.A)
	case opFMOV, opFNEG, opSQRT, opFABS, opEXP, opLOG, opFLOOR, opCEIL:
		fu, fd = b(in.B), b(in.A)
	case opIADD, opISUB, opIMUL, opIDIV, opIMOD, opIMIN, opIMAX,
		opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		iu, id = b(in.B)|b(in.C), b(in.A)
	case opFADD, opFSUB, opFMUL, opFDIV, opPOW, opFMIN, opFMAX:
		fu, fd = b(in.B)|b(in.C), b(in.A)
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE:
		fu, id = b(in.B)|b(in.C), b(in.A)
	case opI2F:
		iu, fd = b(in.B), b(in.A)
	case opF2I:
		fu, id = b(in.B), b(in.A)
	case opJZ, opJNZ:
		iu = b(in.B)
	case opLDGF, opLDLF, opLDPF:
		iu, fd = b(in.C), b(in.A)
	case opLDGI, opLDLI, opLDPI:
		iu, id = b(in.C), b(in.A)
	case opSTGF, opSTLF, opSTPF:
		iu, fu = b(in.C), b(in.A)
	case opSTGI, opSTLI, opSTPI:
		iu = b(in.C) | b(in.A)
	case opGID, opLID, opGRP, opNGR, opLSZ, opGSZ:
		iu, id = b(in.B), b(in.A)
	default:
		iu, fu = ^uint64(0), ^uint64(0)
	}
	return
}

// wgLiveness computes per-block live-in (int) and live-out (int and float)
// register masks by backward dataflow over the bytecode CFG, keyed by block
// leader pc. A non-nil only restricts the dataflow to the blocks it marks:
// every other block is a sink with nothing live, which turns the int live-in
// of a block into its upward-exposed uses within that subgraph (wgloop.go).
// Only called when NumI and NumF both fit a 64-bit mask.
func (k *Kernel) wgLiveness(wg *wgProgram, only []bool) (iIn, iOut, fOut map[int]uint64) {
	iIn, fIn := map[int]uint64{}, map[int]uint64{}
	iOut, fOut = map[int]uint64{}, map[int]uint64{}
	for changed := true; changed; {
		changed = false
		for s := len(k.Code) - 1; s >= 0; s-- {
			b := wg.blocks[s]
			if b == nil || only != nil && !only[s] {
				continue
			}
			var io, fo uint64
			for _, sp := range b.term.succs() { // -1 and the end of the code look up as nothing live
				io |= iIn[sp]
				fo |= fIn[sp]
			}
			li, lf := io, fo
			for pc := s + int(b.nInstr) - 1; pc >= s; pc-- {
				iu, fu, id, fd := wgUseDef(k.Code[pc])
				li = (li &^ id) | iu
				lf = (lf &^ fd) | fu
			}
			if io != iOut[s] || fo != fOut[s] || li != iIn[s] || lf != fIn[s] {
				changed = true
				iOut[s], fOut[s] = io, fo
				iIn[s], fIn[s] = li, lf
			}
		}
	}
	return iIn, iOut, fOut
}

// ---------------------------------------------------------------------------
// Fusion pass
// ---------------------------------------------------------------------------

// fuseWG matches every block body against the reduction jam's grammar and,
// when the shape, the operand wiring, and the dead-scratch proof all hold,
// attaches the fused plan to the block. The engine runs it in place of the
// per-step list whenever the whole group arrives at the block together
// (runGroup); every other block, and every other dispatch, runs per-step.
// Counters attribute the outcome per compiled instruction and reject reason.
func (k *Kernel) fuseWG(wg *wgProgram) {
	var nBlocks, nSteps, nFallback int64
	var nRej [wgFuseRejCount]int64
	wide := k.NumI > 64 || k.NumF > 64
	var fOut map[int]uint64
	if !wide {
		wg.iIn, wg.iOut, fOut = k.wgLiveness(wg, nil)
	}
	for _, blk := range wg.blocks {
		if blk == nil {
			continue
		}
		body := blk.body - blk.start
		if body <= 0 {
			continue
		}
		rej := wgNoFuse{why: WGFuseRejWideRegs}
		if !wide {
			blk.red, rej = k.wgfuseReduce(wg, blk, wg.iOut[blk.start], fOut[blk.start])
		}
		if blk.red != nil {
			wg.fused = append(wg.fused, FusedSpan{Start: blk.start, Len: body, Name: "wg.fuse"})
			nBlocks++
			nSteps += int64(body)
		} else {
			wg.nofuse = append(wg.nofuse, FusedSpan{Start: blk.start, Len: body, Name: rej.String()})
			nRej[rej.why]++
			nFallback += int64(body)
		}
	}
	backendCtr.wgFusedBlocks.Add(nBlocks)
	backendCtr.wgFusedSteps.Add(nSteps)
	backendCtr.wgFuseFallbackSteps.Add(nFallback)
	for i, n := range nRej {
		backendCtr.wgFuseRej[i].Add(n)
	}
}

var (
	wgAffOps = []Op{opIMOV, opIMOV, opIMUL, opIMOV, opIADD}
	wgIncOps = []Op{opIMOV, opLDI, opIADD, opIMOV}
)

func wgBit(r int32) uint64 { return 1 << uint(r) }

// opsAt reports whether code[pc:pc+len(ops)] lies within [pc, end) and
// matches the opcode sequence exactly.
func (k *Kernel) opsAt(pc, end int, ops ...Op) bool {
	if pc+len(ops) > end {
		return false
	}
	for i, o := range ops {
		if k.Code[pc+i].Op != o {
			return false
		}
	}
	return true
}

// wgWiring is the verdict for an operand-wiring failure at pc.
func wgWiring(pc int) wgNoFuse { return wgNoFuse{WGFuseRejWiring, fmt.Sprintf("@%d", pc)} }

// wgAff is one parsed index: idx = ib[x]*ib[y] + ib[z] for the affine group
// (imov, imov, imul, imov, iadd), or idx = ib[z] for a plain imov (aff
// false; x and y alias z).
type wgAff struct {
	aff     bool
	x, y, z int
}

// parseWAff validates the operand wiring of the five-instruction affine
// index group at pc and checks that its sources read banks not redefined
// earlier in the jam (*defs accumulates int defs in program order). It
// returns the pristine source registers of idx = x*y + z.
func parseWAff(code []Instr, pc int, defs *uint64) (wgAff, bool) {
	i0, i1, mul, i3, add := code[pc], code[pc+1], code[pc+2], code[pc+3], code[pc+4]
	if mul.B != i0.A || mul.C != i1.A || add.B != mul.A || add.C != i3.A ||
		i1.A == i0.A || i3.A == mul.A {
		return wgAff{}, false
	}
	if *defs&wgBit(i0.B) != 0 {
		return wgAff{}, false
	}
	*defs |= wgBit(i0.A)
	if *defs&wgBit(i1.B) != 0 {
		return wgAff{}, false
	}
	*defs |= wgBit(i1.A) | wgBit(mul.A)
	if *defs&wgBit(i3.B) != 0 {
		return wgAff{}, false
	}
	*defs |= wgBit(i3.A) | wgBit(add.A)
	return wgAff{aff: true, x: int(i0.B), y: int(i1.B), z: int(i3.B)}, true
}

// parseWInc validates the loop-increment group (imov, ldi, iadd, imov):
// ctr += imm, where ctr is the only bank-visible def.
func parseWInc(code []Instr, pc int, defs *uint64) (ctr int, imm int64, ok bool) {
	i0, ldi, add, i3 := code[pc], code[pc+1], code[pc+2], code[pc+3]
	if add.B != i0.A || add.C != ldi.A || ldi.A == i0.A || i3.B != add.A || i0.B != i3.A {
		return 0, 0, false
	}
	if *defs&wgBit(i0.B) != 0 {
		return 0, 0, false
	}
	*defs |= wgBit(i0.A) | wgBit(ldi.A) | wgBit(add.A) | wgBit(i3.A)
	return int(i3.A), ldi.IImm, true
}

// wgLoadErr formats the fused loads' out-of-range error exactly like the
// per-step load does (wstepLoadGlobal over byteOff).
func wgLoadErr(kname string, f *wgFactor, idx int64, bufLen int) *execError {
	return &execError{kname, f.pc, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", f.name, idx, bufLen)}
}

// Plan capacity of the reduction-chain jam. The parsed chain lives in
// fixed-size arrays inside the plan, so a dispatch allocates nothing; bodies
// beyond the cap stay per-step (reason cap).
const (
	wgMaxTerms   = 4
	wgMaxFactors = 3
	wgMaxIncs    = 4
	wgMaxLoads   = wgMaxTerms * wgMaxFactors
)

// wgFactor is one load of a reduction term: v = buf[idx]. sx, sy and sz are
// the per-trip increments of the index sources (the immediate of the body's
// own inc for a source that is one of its counters, zero otherwise), so over
// consecutive trips idx advances by the constant sx*y + x*sy + sz.
type wgFactor struct {
	idx        wgAff
	sx, sy, sz int64
	slot       int32
	mem        int32 // static mem-op id; < 0 records nothing
	pc         int   // of the ldgf, for the out-of-range error
	name       string
}

// wgRedTerm is one multiply-accumulate term over the nf loads of the plan
// from li on: accs[acc] += [seed *] v0 * v1 * ...
type wgRedTerm struct {
	seed   int // float register the product starts from; -1 when seedless
	acc    int // index into wgReduce.accs (terms may share an accumulator)
	li, nf int
}

// wgReduce is the parsed plan of one reduction-chain body.
type wgReduce struct {
	kname string
	nt    int
	terms [wgMaxTerms]wgRedTerm
	nAcc  int
	accs  [wgMaxTerms]int // distinct accumulator registers
	// terms is sorted by accumulator, stably: a's terms, in program order, are
	// terms[first[a]:first[a+1]]. pair[a]: they are one or two and each has
	// two factors, the shapes the leaves wgDot1 and wgDot2 run.
	first [wgMaxTerms + 1]int
	pair  [wgMaxTerms]bool
	ni    int
	ctrs  [wgMaxIncs]int
	imms  [wgMaxIncs]int64
	// Loads in program order, and the order-independent Stats of one trip.
	nLoads   int
	loads    [wgMaxLoads]wgFactor
	intOps   int64
	floatOps int64
	mask     uint64
	// loop is the loop-level plan (wgloop.go); nil keeps the body on one trip
	// per dispatch.
	loop *wgLoop
}

// wgfuseReduce jams the multiply-accumulate loop bodies of the dense
// linear-algebra kernels. One grammar over the block body covers them all:
//
//	body   := term+ inc+
//	term   := [fmov f, seed] factor+ fadd acc, acc, f
//	factor := index ldgf v, [slot + idx] [fmul f, f, v]
//	index  := aff(imov, imov, imul, imov, iadd) | imov
//	inc    := imov, ldi, iadd, imov
//
// where the fmul is absent exactly on the first factor of a seedless term
// (its loaded value starts the product). SYRK/2MM/GEMM are one seeded term
// of two factors, SYR2K two of them, GESUMMV two seedless terms with a
// direct second index, BICG and corr_kernel4 one seedless term, corr_mean
// a single load; the GPU variant's unroll counter (passes.TransformGPU) is
// just a second inc. Execution is item-major (trips): per work-item the
// terms run in program order inside the trip loop — they may share an
// accumulator — with products and accumulators in scalars, so only
// accumulators and counters are written back to their banks.
func (k *Kernel) wgfuseReduce(wg *wgProgram, blk *wblock, liveI, liveF uint64) (*wgReduce, wgNoFuse) {
	code := k.Code
	pc, end := blk.start, blk.body
	shape := wgNoFuse{why: WGFuseRejShape}
	p := &wgReduce{kname: k.Name}

	// One walk tokenizes the opcodes and checks the operands. A body that is
	// not a reduction chain at all reports shape wherever the walk stops;
	// the first operand-wiring failure is only remembered, and an oversized
	// chain only counted, so that both are reported for in-shape bodies only.
	//
	// Operand rules: int sources must be pristine (parseWAff/parseWInc), the
	// running product must thread through the fmuls unclobbered, and the
	// three float roles — seeds (read from their banks), scratch (kept in
	// scalars) and accumulators (written back) — must not overlap.
	var bad wgNoFuse
	wired := func(ok bool, at int) {
		if !ok && bad.why == WGFuseRejNone {
			bad = wgWiring(at)
		}
	}
	overCap := false
	var defsI, seedsF, scratchF, accF uint64
	scratch := func(r int32) bool { // r becomes a scalar-only def
		scratchF |= wgBit(r)
		return (seedsF|accF)&wgBit(r) == 0
	}
	for pc < end && !k.opsAt(pc, end, wgIncOps...) {
		tm := wgRedTerm{seed: -1, li: p.nLoads}
		cur := int32(-1) // register holding the running product
		if fmv := code[pc]; fmv.Op == opFMOV {
			wired((scratchF|accF)&wgBit(fmv.B) == 0, pc)
			seedsF |= wgBit(fmv.B)
			wired(scratch(fmv.A), pc)
			tm.seed, cur = int(fmv.B), fmv.A
			pc++
		}
		for {
			var f wgFactor
			var idxReg int32
			switch {
			case k.opsAt(pc, end, wgAffOps...) && k.opsAt(pc+5, end, opLDGF):
				aff, ok := parseWAff(code, pc, &defsI)
				wired(ok, pc)
				f.idx, idxReg = aff, code[pc+4].A
				p.intOps += 2
				pc += 5
			case k.opsAt(pc, end, opIMOV, opLDGF):
				mv := code[pc]
				wired(defsI&wgBit(mv.B) == 0, pc)
				defsI |= wgBit(mv.A)
				f.idx, idxReg = wgAff{x: int(mv.B), y: int(mv.B), z: int(mv.B)}, mv.A
				pc++
			default:
				return nil, shape
			}
			ld := code[pc]
			wired(ld.C == idxReg && ld.A != cur && scratch(ld.A), pc)
			f.slot, f.mem, f.pc, f.name = ld.B, ld.D, pc, k.Params[ld.B].Name
			if ld.B < 64 {
				p.mask |= 1 << uint(ld.B)
			}
			pc++
			if tm.seed >= 0 || tm.nf > 0 {
				if !k.opsAt(pc, end, opFMUL) {
					return nil, shape
				}
				fm := code[pc]
				wired(fm.B == cur && fm.C == ld.A && scratch(fm.A), pc)
				cur = fm.A
				p.floatOps++
				pc++
			} else {
				cur = ld.A
			}
			if tm.nf < wgMaxFactors && p.nLoads < wgMaxLoads {
				p.loads[p.nLoads] = f
				p.nLoads++
			} else {
				overCap = true
			}
			tm.nf++
			if k.opsAt(pc, end, opFADD) {
				fad := code[pc]
				wired(fad.A == fad.B && fad.C == cur && (seedsF|scratchF)&wgBit(fad.A) == 0, pc)
				accF |= wgBit(fad.A)
				for tm.acc = 0; tm.acc < p.nAcc && p.accs[tm.acc] != int(fad.A); tm.acc++ {
				}
				if tm.acc == p.nAcc && p.nAcc < wgMaxTerms {
					p.accs[p.nAcc] = int(fad.A)
					p.nAcc++
				}
				p.floatOps++
				pc++
				break
			}
		}
		if p.nt < wgMaxTerms {
			p.terms[p.nt] = tm
			p.nt++
		} else {
			overCap = true
		}
	}
	var ctrsI uint64
	var inc [64]int64 // per-trip advance of each int register: its inc's immediate
	for ; pc < end; pc += len(wgIncOps) {
		if !k.opsAt(pc, end, wgIncOps...) {
			return nil, shape
		}
		ctr, imm, ok := parseWInc(code, pc, &defsI)
		wired(ok, pc)
		if p.ni < wgMaxIncs {
			p.ctrs[p.ni], p.imms[p.ni] = ctr, imm
			p.ni++
		} else {
			overCap = true
		}
		ctrsI |= wgBit(int32(ctr))
		inc[ctr] = imm
		p.intOps++
	}
	switch {
	case p.nt == 0 || p.ni == 0:
		return nil, shape
	case blk.term.kind == wtCond:
		return nil, wgNoFuse{why: WGFuseRejCondTerm}
	case overCap:
		return nil, wgNoFuse{why: WGFuseRejCap}
	case bad.why != WGFuseRejNone:
		return nil, bad
	}
	// Dead-scratch proof: everything but the accumulators and the counters
	// stays in scalars.
	if rej := wgLiveScratch(defsI&^ctrsI, liveI, scratchF, liveF); rej.why != WGFuseRejNone {
		return nil, rej
	}
	for i := 0; i < p.nLoads; i++ {
		f := &p.loads[i]
		if f.sz = inc[f.idx.z]; f.idx.aff {
			f.sx, f.sy = inc[f.idx.x], inc[f.idx.y]
		}
	}
	parsed, nt := p.terms, 0
	for a := 0; a < p.nAcc; a++ {
		p.first[a], p.pair[a] = nt, true
		for _, tm := range parsed[:p.nt] {
			if tm.acc == a {
				p.terms[nt] = tm
				nt++
				p.pair[a] = p.pair[a] && tm.nf == 2 && nt-p.first[a] <= 2
			}
		}
	}
	p.first[p.nAcc] = nt
	p.loop = k.wgLoopFor(wg, blk, p, ctrsI)
	return p, wgNoFuse{}
}

// run dispatches the body for a full group: every trip the loop makes from
// here when the loop-level plan's uniformity precheck holds (the walk of
// wgloop.go then supplies the trip count and the exit, and its register
// definitions are broadcast once the trips have run), one trip otherwise.
func (p *wgReduce) run(m *wmach) bool {
	lp := p.loop
	if lp == nil {
		return p.trips(m, 1)
	}
	if !m.budgetScalar || !lp.uniform(m) {
		m.loopNonuniform++
		return p.trips(m, 1)
	}
	trips, exit, defd, ok := lp.walk(m)
	if trips == 0 {
		return ok && p.trips(m, 1)
	}
	if !p.trips(m, trips) {
		return false
	}
	// What the skeleton defined and the code at the exit may still read.
	for defd &= m.k.wg.iIn[exit]; defd != 0; defd &= defd - 1 {
		reg := bits.TrailingZeros64(defd)
		bank := m.ib[reg*m.n:][:m.n]
		for t := range bank {
			bank[t] = m.sfile[reg]
		}
	}
	m.loopBatches++
	m.loopTrips += trips
	m.next = exit
	return true
}

// trips executes T consecutive trips of the body for the whole group,
// item-major. Per work-item every index is strength-reduced to base +
// j*stride and proven in range for all T trips before the first one runs
// (wgFirstOut; the body stores nothing, so reporting the trap a lane would
// hit before running the lane is unobservable); the proven trips then run in
// program order over []float32 views of the buffers, with the explicit
// float32 roundings of the per-step path, and the locality of each access
// site is booked in closed form against the transposed tracker state. With
// T = 1 it is the plain fused body.
func (p *wgReduce) trips(m *wmach, T int64) bool {
	n, nl := m.n, p.nLoads
	ib, fb := m.ib, m.fb
	var views [wgMaxLoads][]float32
	for li := 0; li < nl; li++ {
		views[li] = m.views[p.loads[li].slot]
	}
	var seq, rnd, warp int64
	var base, stride, pbase, pstride [wgMaxLoads]int64
	var seeds [wgMaxTerms]float32
	for t := 0; t < n; t++ {
		failJ, failLi := T, 0 // the least (trip, load) in program order that traps
		for li := 0; li < nl; li++ {
			f := &p.loads[li]
			b, s := ib[f.idx.z*n+t], f.sz
			if f.idx.aff {
				x, y := ib[f.idx.x*n+t], ib[f.idx.y*n+t]
				b += x * y
				s += f.sx*y + x*f.sy
			}
			base[li], stride[li] = b, s
			if j := wgFirstOut(b, s, failJ, uint64(len(views[li]))); j < failJ {
				failJ, failLi = j, li
			}
		}
		if failJ < T {
			f := &p.loads[failLi]
			m.err = wgLoadErr(p.kname, f, base[failLi]+failJ*stride[failLi], len(m.args[f.slot].Buf))
			return false
		}
		for ti := 0; ti < p.nt; ti++ {
			if sd := p.terms[ti].seed; sd >= 0 {
				seeds[ti] = float32(fb[sd*n+t])
			}
		}
		// Accumulator-major: nothing but its own terms touches an accumulator,
		// so each runs all T trips of them with its value in a register.
		for a := 0; a < p.nAcc; a++ {
			acc := float32(fb[p.accs[a]*n+t])
			lo := p.first[a]
			tm, sd := p.terms[lo:p.first[a+1]], seeds[lo:]
			switch {
			case !p.pair[a]:
				acc = wgChain(tm, sd, &views, base, &stride, acc, T)
			case len(tm) == 1: // SYRK, 2MM, BICG, corr_kernel4; GESUMMV twice
				acc = wgDot1(&views, &base, &stride, tm[0].li, tm[0].seed >= 0, sd[0], T, acc)
			default: // SYR2K
				acc = wgDot2(&views, &base, &stride, tm[0].li, tm[1].li, tm[0].seed >= 0, sd[0], tm[1].seed >= 0, sd[1], T, acc)
			}
			fb[p.accs[a]*n+t] = float64(acc)
		}
		// Closed-form locality (DESIGN.md S20): every access succeeded, so
		// consecutive offsets of one site differ by exactly 4*stride.
		for li := 0; li < nl; li++ {
			id := p.loads[li].mem
			if id < 0 {
				continue
			}
			b, s := base[li], stride[li]
			at := int(id)*n + t
			if m.seenB[at] {
				d := int32(b*4) - m.lastB[at]
				if d < 0 {
					d = -d
				}
				if d <= cacheLineBytes {
					seq++
				} else {
					rnd++
				}
			} else {
				rnd++
				m.seenB[at] = true
			}
			if -cacheLineBytes/4 <= s && s <= cacheLineBytes/4 {
				seq += T - 1
			} else {
				rnd += T - 1
			}
			m.lastB[at] = int32((b + (T-1)*s) * 4)
			warp += T
			if t%warpSize != 0 {
				warp -= wgCoalesced(b-pbase[li], s-pstride[li], T)
			}
		}
		pbase, pstride = base, stride
	}
	for i := 0; i < p.ni; i++ {
		step := p.imms[i] * T
		cb := ib[p.ctrs[i]*n : p.ctrs[i]*n+n]
		for t := range cb {
			cb[t] += step
		}
	}
	m.booked = true
	cnt := int64(n) * T
	st := m.st
	st.IntOps += p.intOps * cnt
	st.FloatOps += p.floatOps * cnt
	st.ParamReadMask |= p.mask
	st.GlobalLoads += int64(nl) * cnt
	st.GlobalLoadBytes += 4 * int64(nl) * cnt
	st.SeqBytes += 4 * seq
	st.RandBytes += 4 * rnd
	st.WarpTransactions += warp
	return true
}

// wgFirstOut returns the first trip j in [0, T) whose index b + j*s leaves a
// buffer of W words, or T when none does. The indices are monotone in j, so
// all are inside iff the first and the last are — decided without a division
// when T and |s| are at most 2^31: b is inside [0, W) by then and W < 2^61,
// so b + (T-1)*s cannot wrap. Beyond that bound, and for a lane that does
// leave, the first failing trip is the closed form; every quotient is below
// W, and the index the caller reports, b + j*s modulo 2^64, is the per-step
// path's own arithmetic.
func wgFirstOut(b, s, T int64, W uint64) int64 {
	const lim = 1 << 31
	j := T
	switch {
	case uint64(b) >= W:
		j = 0
	case T <= lim && -lim <= s && s <= lim && uint64(b+(T-1)*s) < W:
	case s > 0:
		j = int64((W-1-uint64(b))/uint64(s)) + 1
	case s < 0: // uint64(-s) is |s| for MinInt64 too
		j = int64(uint64(b)/uint64(-s)) + 1
	}
	return min(j, T)
}

// wgDot1 runs T proven trips of the pair at loads li, li+1: a += [sd *]
// x[i] * y[k], the cursors i and k advancing by their strides in registers.
func wgDot1(views *[wgMaxLoads][]float32, base, stride *[wgMaxLoads]int64, li int, seeded bool, sd float32, T int64, a float32) float32 {
	x, y, i, sx, k, sy := views[li], views[li+1], base[li], stride[li], base[li+1], stride[li+1]
	for ; T > 0; T-- {
		v := x[i]
		if seeded {
			v = float32(sd * v)
		}
		a = float32(a + float32(v*y[k]))
		i, k = i+sx, k+sy
	}
	return a
}

// wgDot2 runs T proven trips of two pairs on one accumulator, per trip the
// one at li and then the one at l2 (SYR2K): four cursors in registers.
func wgDot2(views *[wgMaxLoads][]float32, base, stride *[wgMaxLoads]int64, li, l2 int, seeded bool, sd float32, seeded2 bool, sd2 float32, T int64, a float32) float32 {
	x, y, i, sx, k, sy := views[li], views[li+1], base[li], stride[li], base[li+1], stride[li+1]
	x2, y2, i2, sx2, k2, sy2 := views[l2], views[l2+1], base[l2], stride[l2], base[l2+1], stride[l2+1]
	for ; T > 0; T-- {
		v, w := x[i], x2[i2]
		if seeded {
			v = float32(sd * v)
		}
		a = float32(a + float32(v*y[k]))
		if seeded2 {
			w = float32(sd2 * w)
		}
		a = float32(a + float32(w*y2[k2]))
		i, k, i2, k2 = i+sx, k+sy, i2+sx2, k2+sy2
	}
	return a
}

// wgChain runs T proven trips of one accumulator's terms, of any arity: per
// trip the terms in program order, each the product of its loads, the cursors
// advancing by their strides.
func wgChain(terms []wgRedTerm, seeds []float32, views *[wgMaxLoads][]float32, cur [wgMaxLoads]int64, stride *[wgMaxLoads]int64, a float32, T int64) float32 {
	for ; T > 0; T-- {
		for ti := range terms {
			tm := &terms[ti]
			lo, hi := tm.li, tm.li+tm.nf
			pr := views[lo][cur[lo]]
			if tm.seed >= 0 {
				pr = float32(seeds[ti] * pr)
			}
			cur[lo] += stride[lo]
			for li := lo + 1; li < hi; li++ {
				pr = float32(pr * views[li][cur[li]])
				cur[li] += stride[li]
			}
			a = float32(a + pr)
		}
	}
	return a
}

// wgCoalesced counts the trips j in [0, T) on which two adjacent lanes'
// accesses of one site coalesce: their word distance db + j*ds is at most
// one (the tracker's |byte distance| <= 4).
func wgCoalesced(db, ds, T int64) int64 {
	if ds == 0 {
		if -1 <= db && db <= 1 {
			return T
		}
		return 0
	}
	var c int64
	for v := int64(-1); v <= 1; v++ {
		if q := v - db; q%ds == 0 {
			if j := q / ds; 0 <= j && j < T {
				c++
			}
		}
	}
	return c
}
