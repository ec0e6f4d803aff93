package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Region fusion for the lockstep engine (DESIGN.md S20).
//
// The banked steps of wgsteps.go execute step-major: each step makes its
// own pass over the work-item set, so a k-step block traverses the SoA
// banks k times per dispatch and pays k indirect calls. This pass runs at
// wg-compile time and lowers whole block bodies into a single fused
// closure that loops over the work-items once (once per accumulate term
// for the reduction jam), with every touched bank
// hoisted into a subslice (one up-front length assertion, bounds checks
// eliminated inside the loop), the ld/fmadd/st sequences jammed into one
// wide inner loop, and pattern-internal scratch registers kept in scalars
// instead of bank slabs when the block-level liveness analysis proves them
// dead at the block exit.
//
// Fusibility proof, in three parts:
//
//  1. Reordering: banked steps are lane-local on registers, and the wg
//     engine only runs launches the noninterference certificate
//     (wgcert.go/wgreject.go) admitted, so cross-item global/local
//     interference inside a region is already excluded. Switching a block
//     from step-major to item-major order — or any other order that keeps
//     each work-item's own program order — therefore cannot change any
//     buffer byte or register trajectory on error-free runs; on error
//     runs, parity is by presence, not text, exactly as documented for
//     the engine itself (wgexec.go).
//  2. Stats: every batched counter (op counts, load/store totals, param
//     masks) is an order-independent sum or mask, so adding the block
//     total once equals adding it per step. The order-sensitive memory-
//     locality tracker is fed through the same recording machinery as the
//     unfused steps (per-item streams in program order, or the columnar
//     log while the phase is uniform), so the phase-end replay sees
//     identical streams.
//  3. Scalar elision: a scratch register's bank write may be dropped only
//     when the register is provably dead at the block exit (wgLiveness, a
//     standard backward dataflow over the bytecode CFG) and the block
//     terminator does not read it (the matchers reject conditional
//     terminators outright).
//
// Every block that stays per-step carries exactly one WGFuseReject reason
// (counted per reason and annotated in the disassembly); wg_fused_blocks /
// wg_fused_steps / wg_fuse_fallback_steps attribute the static coverage and
// wg_fused_instrs_dyn / wg_step_instrs_dyn the executed one. SetWGFuse keeps
// the unfused path selectable for the fused-vs-unfused differential tests;
// the fused closures are always compiled so it can be flipped between
// launches.

// wgFuseFlag holds the process-wide fused-execution switch (on unless a
// differential test turns it off).
var wgFuseFlag atomic.Bool

func init() { wgFuseFlag.Store(true) }

// WGFuseEnabled reports whether the lockstep engine dispatches the fused
// block closures (the default) or the per-step lists.
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
	// WGFuseRejShape: the body's opcode sequence matches no jam shape.
	WGFuseRejShape
	// WGFuseRejWiring: the opcodes match a shape but the operands are not
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

// wgLiveness computes per-block live-out register masks (int and float) by
// backward dataflow over the bytecode CFG, keyed by block leader pc. Only
// called when NumI and NumF both fit a 64-bit mask.
func (k *Kernel) wgLiveness(wg *wgProgram) (iOut, fOut map[int]uint64) {
	code := k.Code
	n := len(code)
	type lblock struct {
		s, e  int
		succs []int
	}
	var blocks []lblock
	for s := 0; s < n; {
		e := s + 1
		for e < n && !wg.leader[e] {
			e++
		}
		b := lblock{s: s, e: e}
		switch last := code[e-1]; last.Op {
		case opJMP:
			b.succs = []int{int(last.A)}
		case opJZ, opJNZ:
			b.succs = []int{int(last.A)}
			if e < n {
				b.succs = append(b.succs, e)
			}
		case opRET:
		default: // fallthrough and barrier resume at e
			if e < n {
				b.succs = append(b.succs, e)
			}
		}
		blocks = append(blocks, b)
		s = e
	}
	iIn := make(map[int]uint64, len(blocks))
	fIn := make(map[int]uint64, len(blocks))
	iOut = make(map[int]uint64, len(blocks))
	fOut = make(map[int]uint64, len(blocks))
	for changed := true; changed; {
		changed = false
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			b := blocks[bi]
			var io, fo uint64
			for _, sp := range b.succs {
				io |= iIn[sp]
				fo |= fIn[sp]
			}
			li, lf := io, fo
			for pc := b.e - 1; pc >= b.s; pc-- {
				iu, fu, id, fd := wgUseDef(code[pc])
				li = (li &^ id) | iu
				lf = (lf &^ fd) | fu
			}
			if io != iOut[b.s] || fo != fOut[b.s] || li != iIn[b.s] || lf != fIn[b.s] {
				changed = true
				iOut[b.s], fOut[b.s] = io, fo
				iIn[b.s], fIn[b.s] = li, lf
			}
		}
	}
	return iOut, fOut
}

// ---------------------------------------------------------------------------
// Fusion pass
// ---------------------------------------------------------------------------

// wgJams lists the jam shapes in match order. Their opcode patterns are
// mutually exclusive, so the first matcher that gets past its opcode match
// decides the block's verdict.
var wgJams = [...]func(*Kernel, *wblock, uint64, uint64) (wfused, wgNoFuse){
	(*Kernel).wgfuseReduce,
	(*Kernel).wgfuseScatter,
	(*Kernel).wgfuseStoreTail,
}

// fuseWG matches every block body against the jam shapes and, when the
// shape, the operand wiring, and the dead-scratch proof all hold, attaches
// a single fused closure to the block. The engine dispatches it in place of
// the per-step list whenever the whole group arrives at the block together
// and no deferred-write log is active (runGroup); every other block, and
// every other dispatch, runs per-step. Counters attribute the outcome per
// compiled instruction and per reject reason.
func (k *Kernel) fuseWG(wg *wgProgram) {
	var nBlocks, nSteps, nFallback int64
	var nRej [wgFuseRejCount]int64
	wide := k.NumI > 64 || k.NumF > 64
	var iOut, fOut map[int]uint64
	if !wide {
		iOut, fOut = k.wgLiveness(wg)
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
			for _, jam := range wgJams {
				if blk.fused, rej = jam(k, blk, iOut[blk.start], fOut[blk.start]); rej.why != WGFuseRejShape {
					break
				}
			}
		}
		if blk.fused != nil {
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

// wgWiring is the verdict for an operand-wiring failure at pc.
func wgWiring(pc int) wgNoFuse { return wgNoFuse{WGFuseRejWiring, fmt.Sprintf("@%d", pc)} }

// wgAff is one parsed index: idx = ib[x]*ib[y] + ib[z] for the affine group
// (imov, imov, imul, imov, iadd), or idx = ib[z] for a plain imov (aff
// false).
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
// unfused superinstructions do.
func wgLoadErr(kname string, pc int, name string, idx int64, bufLen int) *execError {
	return &execError{kname, pc, fmt.Sprintf("load %s: index %d out of range (buffer %d bytes)", name, idx, bufLen)}
}

// Plan capacity of the reduction-chain jam. The parsed chain lives in
// fixed-size arrays inside the closure's captured plan, so a dispatch
// allocates nothing; bodies beyond the cap stay per-step (reason cap).
const (
	wgMaxTerms   = 4
	wgMaxFactors = 3
	wgMaxIncs    = 4
	wgMaxLoads   = wgMaxTerms * wgMaxFactors
)

// wgFactor is one load of a reduction term: v = buf[idx].
type wgFactor struct {
	idx  wgAff
	slot int32
	mem  int32 // static mem-op id; < 0 records nothing
	pc   int   // of the ldgf, for the out-of-range error
	name string
}

// wgRedTerm is one multiply-accumulate term: acc += [seed *] v0 * v1 * ...
type wgRedTerm struct {
	seed int // float register the product starts from; -1 when seedless
	acc  int
	nf   int
	f    [wgMaxFactors]wgFactor
}

// wgReduce is the parsed plan of one reduction-chain body.
type wgReduce struct {
	kname string
	nt    int
	terms [wgMaxTerms]wgRedTerm
	ni    int
	ctrs  [wgMaxIncs]int
	imms  [wgMaxIncs]int64
	// Loads in program order: their columnar-log ids and, batched per
	// dispatch, the order-independent Stats of the whole body.
	nLoads   int
	memIDs   [wgMaxLoads]int32
	intOps   int64
	floatOps int64
	mask     uint64
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
// just a second inc. Execution is term-major: each term makes one pass over
// the work-items with the running product in a scalar, so only accumulators
// and counters are written back to their banks — per item that is still
// program order, which is all the reordering proof needs.
func (k *Kernel) wgfuseReduce(blk *wblock, liveI, liveF uint64) (wfused, wgNoFuse) {
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
		tm := wgRedTerm{seed: -1}
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
				f.idx, idxReg = wgAff{z: int(mv.B)}, mv.A
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
				tm.f[tm.nf] = f
				p.memIDs[p.nLoads] = f.mem
				p.nLoads++
			} else {
				overCap = true
			}
			tm.nf++
			if k.opsAt(pc, end, opFADD) {
				fad := code[pc]
				wired(fad.A == fad.B && fad.C == cur && (seedsF|scratchF)&wgBit(fad.A) == 0, pc)
				accF |= wgBit(fad.A)
				tm.acc = int(fad.A)
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
	return p.run, wgNoFuse{}
}

// run executes the whole reduction body for a full group.
func (p *wgReduce) run(m *wmach) bool {
	n := m.n
	var cols [wgMaxLoads][]int32
	if m.colMode {
		m.colsFor(p.memIDs[:p.nLoads], cols[:p.nLoads])
	}
	c := 0
	for ti := 0; ti < p.nt; ti++ {
		tm := &p.terms[ti]
		if !tm.run(m, p.kname, cols[c:c+tm.nf]) {
			return false
		}
		c += tm.nf
	}
	for i := 0; i < p.ni; i++ {
		imm := p.imms[i]
		cb := m.ib[p.ctrs[i]*n : p.ctrs[i]*n+n]
		for t := range cb {
			cb[t] += imm
		}
	}
	cnt := int64(n)
	st := m.st
	st.IntOps += p.intOps * cnt
	st.FloatOps += p.floatOps * cnt
	st.ParamReadMask |= p.mask
	st.GlobalLoads += int64(p.nLoads) * cnt
	st.GlobalLoadBytes += 4 * int64(p.nLoads) * cnt
	return true
}

// run makes the term's pass over the work-items: cols[i] is factor i's
// access column (nil outside columnar mode or when the load records
// nothing). Two-factor terms — every multiply-accumulate body of the paper
// apps — take run2; other arities take the factor loop below.
func (tm *wgRedTerm) run(m *wmach, kname string, cols [][]int32) bool {
	if tm.nf == 2 {
		return tm.run2(m, kname, cols[0], cols[1])
	}
	n := m.n
	ib, fb := m.ib, m.fb
	acc := fb[tm.acc*n : tm.acc*n+n]
	seeded := tm.seed >= 0
	sd := acc
	if seeded {
		sd = fb[tm.seed*n : tm.seed*n+n]
	}
	rec := m.rec
	for t := 0; t < n; t++ {
		var p float32
		if seeded {
			p = float32(sd[t])
		}
		for fi := 0; fi < tm.nf; fi++ {
			f := &tm.f[fi]
			idx := ib[f.idx.z*n+t]
			if f.idx.aff {
				idx += ib[f.idx.x*n+t] * ib[f.idx.y*n+t]
			}
			buf := m.args[f.slot].Buf
			off := idx * 4
			if idx < 0 || off+4 > int64(len(buf)) {
				m.err = wgLoadErr(kname, f.pc, f.name, idx, len(buf))
				return false
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			if seeded || fi > 0 {
				p = float32(p * v)
			} else {
				p = v
			}
			if col := cols[fi]; col != nil {
				col[t] = int32(off)
			} else if f.mem >= 0 {
				rec[t] = append(rec[t], wgAcc{id: f.mem, off: int32(off)})
			}
		}
		acc[t] = float64(float32(acc[t]) + p)
	}
	return true
}

// run2 is run for a term of exactly two factors, with every bank, buffer
// and column hoisted into a local subslice so the item loop carries no
// bounds checks on them. A direct index aliases its x/y slices to z; they
// are never read.
func (tm *wgRedTerm) run2(m *wmach, kname string, col0, col1 []int32) bool {
	n := m.n
	ib, fb := m.ib, m.fb
	f0, f1 := &tm.f[0], &tm.f[1]
	buf0, buf1 := m.args[f0.slot].Buf, m.args[f1.slot].Buf
	zs0, zs1 := ib[f0.idx.z*n:f0.idx.z*n+n], ib[f1.idx.z*n:f1.idx.z*n+n]
	xs0, ys0, xs1, ys1 := zs0, zs0, zs1, zs1
	aff0, aff1 := f0.idx.aff, f1.idx.aff
	if aff0 {
		xs0, ys0 = ib[f0.idx.x*n:f0.idx.x*n+n], ib[f0.idx.y*n:f0.idx.y*n+n]
	}
	if aff1 {
		xs1, ys1 = ib[f1.idx.x*n:f1.idx.x*n+n], ib[f1.idx.y*n:f1.idx.y*n+n]
	}
	acc := fb[tm.acc*n : tm.acc*n+n]
	seeded := tm.seed >= 0
	sd := acc
	if seeded {
		sd = fb[tm.seed*n : tm.seed*n+n]
	}
	if col0 != nil {
		col0 = col0[:n]
	}
	if col1 != nil {
		col1 = col1[:n]
	}
	mem0, mem1 := f0.mem, f1.mem
	rec := m.rec
	for t := 0; t < n; t++ {
		idx0 := zs0[t]
		if aff0 {
			idx0 += xs0[t] * ys0[t]
		}
		off0 := idx0 * 4
		if idx0 < 0 || off0+4 > int64(len(buf0)) {
			m.err = wgLoadErr(kname, f0.pc, f0.name, idx0, len(buf0))
			return false
		}
		p := math.Float32frombits(binary.LittleEndian.Uint32(buf0[off0:]))
		if seeded {
			p = float32(float32(sd[t]) * p)
		}
		idx1 := zs1[t]
		if aff1 {
			idx1 += xs1[t] * ys1[t]
		}
		off1 := idx1 * 4
		if idx1 < 0 || off1+4 > int64(len(buf1)) {
			m.err = wgLoadErr(kname, f1.pc, f1.name, idx1, len(buf1))
			return false
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(buf1[off1:]))
		acc[t] = float64(float32(acc[t]) + float32(p*v))
		if col0 != nil {
			col0[t] = int32(off0)
		} else if mem0 >= 0 {
			rec[t] = append(rec[t], wgAcc{id: mem0, off: int32(off0)})
		}
		if col1 != nil {
			col1[t] = int32(off1)
		} else if mem1 >= 0 {
			rec[t] = append(rec[t], wgAcc{id: mem1, off: int32(off1)})
		}
	}
	return true
}

// wgfuseScatter jams the strided scatter loop body (scatter_columns shape):
//
//	aff idx; ldf c; stgf buf[idx] = c; inc ctr
func (k *Kernel) wgfuseScatter(blk *wblock, liveI, liveF uint64) (wfused, wgNoFuse) {
	pc, end := blk.start, blk.body
	if end-pc != 11 || !k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opLDF, opSTGF,
		opIMOV, opLDI, opIADD, opIMOV) {
		return nil, wgNoFuse{why: WGFuseRejShape}
	}
	if blk.term.kind == wtCond {
		return nil, wgNoFuse{why: WGFuseRejCondTerm}
	}
	code := k.Code
	var defsI uint64
	aff, ok := parseWAff(code, pc, &defsI)
	if !ok {
		return nil, wgWiring(pc)
	}
	ldf, stg := code[pc+5], code[pc+6]
	if stg.C != code[pc+4].A || stg.A != ldf.A {
		return nil, wgWiring(pc + 6)
	}
	ctr, incImm, ok := parseWInc(code, pc+7, &defsI)
	if !ok {
		return nil, wgWiring(pc + 7)
	}
	if rej := wgLiveScratch(defsI&^wgBit(int32(ctr)), liveI, wgBit(ldf.A), liveF); rej.why != WGFuseRejNone {
		return nil, rej
	}
	slot, mem, stPC := stg.B, stg.D, pc+6
	name := k.Params[slot].Name
	kname := k.Name
	bits := math.Float32bits(float32(ldf.FImm))
	return func(m *wmach) bool {
		n := m.n
		ib := m.ib
		buf := m.args[slot].Buf
		xs, ys, zs := ib[aff.x*n:aff.x*n+n], ib[aff.y*n:aff.y*n+n], ib[aff.z*n:aff.z*n+n]
		cb := ib[ctr*n : ctr*n+n]
		var col []int32
		rec := m.rec
		if m.colMode && mem >= 0 {
			col = m.colFor(mem)
		}
		u := m.undo
		st := m.st
		for t := 0; t < n; t++ {
			idx := xs[t]*ys[t] + zs[t]
			off, err := byteOff(idx, len(buf))
			if err != nil {
				m.err = &execError{kname, stPC, fmt.Sprintf("store %s: %v", name, err)}
				return false
			}
			if u != nil {
				var old [4]byte
				copy(old[:], buf[off:off+4])
				u.recs = append(u.recs, UndoRecord{Buf: buf, Off: int(off), Old: old})
			}
			binary.LittleEndian.PutUint32(buf[off:], bits)
			st.noteGlobalWrite(slot, off)
			if col != nil {
				col[t] = off
			} else if mem >= 0 {
				rec[t] = append(rec[t], wgAcc{id: mem, off: off})
			}
			cb[t] += incImm
		}
		cnt := int64(n)
		st.IntOps += 3 * cnt
		st.GlobalStores += cnt
		st.GlobalStoreBytes += 4 * cnt
		return true
	}, wgNoFuse{}
}

// wgfuseStoreTail jams the result write-back tail of the matmul kernels:
//
//	aff idx; fmov v, acc; stgf buf[idx] = v
func (k *Kernel) wgfuseStoreTail(blk *wblock, liveI, liveF uint64) (wfused, wgNoFuse) {
	pc, end := blk.start, blk.body
	if end-pc != 7 || !k.opsAt(pc, end, opIMOV, opIMOV, opIMUL, opIMOV, opIADD, opFMOV, opSTGF) {
		return nil, wgNoFuse{why: WGFuseRejShape}
	}
	if blk.term.kind == wtCond {
		return nil, wgNoFuse{why: WGFuseRejCondTerm}
	}
	code := k.Code
	var defsI uint64
	aff, ok := parseWAff(code, pc, &defsI)
	if !ok {
		return nil, wgWiring(pc)
	}
	fmv, stg := code[pc+5], code[pc+6]
	if stg.C != code[pc+4].A || stg.A != fmv.A {
		return nil, wgWiring(pc + 6)
	}
	if rej := wgLiveScratch(defsI, liveI, wgBit(fmv.A), liveF); rej.why != WGFuseRejNone {
		return nil, rej
	}
	slot, mem, stPC := stg.B, stg.D, pc+6
	name := k.Params[slot].Name
	kname := k.Name
	src := int(fmv.B)
	return func(m *wmach) bool {
		n := m.n
		ib, fb := m.ib, m.fb
		buf := m.args[slot].Buf
		xs, ys, zs := ib[aff.x*n:aff.x*n+n], ib[aff.y*n:aff.y*n+n], ib[aff.z*n:aff.z*n+n]
		sv := fb[src*n : src*n+n]
		var col []int32
		rec := m.rec
		if m.colMode && mem >= 0 {
			col = m.colFor(mem)
		}
		u := m.undo
		st := m.st
		for t := 0; t < n; t++ {
			idx := xs[t]*ys[t] + zs[t]
			off, err := byteOff(idx, len(buf))
			if err != nil {
				m.err = &execError{kname, stPC, fmt.Sprintf("store %s: %v", name, err)}
				return false
			}
			bits := math.Float32bits(float32(sv[t]))
			if u != nil {
				var old [4]byte
				copy(old[:], buf[off:off+4])
				u.recs = append(u.recs, UndoRecord{Buf: buf, Off: int(off), Old: old})
			}
			binary.LittleEndian.PutUint32(buf[off:], bits)
			st.noteGlobalWrite(slot, off)
			if col != nil {
				col[t] = off
			} else if mem >= 0 {
				rec[t] = append(rec[t], wgAcc{id: mem, off: off})
			}
		}
		cnt := int64(n)
		st.IntOps += 2 * cnt
		st.GlobalStores += cnt
		st.GlobalStoreBytes += 4 * cnt
		return true
	}, wgNoFuse{}
}
