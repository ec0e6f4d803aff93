package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Backend knob
// ---------------------------------------------------------------------------

// Backend selects the work-group execution engine. All backends execute the
// same bytecode with identical semantics — byte-identical buffers, identical
// Stats (and therefore identical virtual time) — and differ only in host
// wall-clock cost.
type Backend int32

// Backends.
const (
	// BackendAuto resolves to the process default (see SetBackend and the
	// FLUIDICL_BACKEND environment variable).
	BackendAuto Backend = iota
	// BackendInterp is the switch-dispatch bytecode interpreter.
	BackendInterp
	// BackendClosure is the threaded-code engine: at compile time each
	// kernel's bytecode is lowered to an array of Go closures, one per basic
	// block, with common sequences fused into superinstructions (fuse.go).
	BackendClosure
	// BackendWG is the whole-work-group engine (the built-in default): the
	// kernel's CFG is split at barriers into barrier-free regions and each
	// basic block runs as a loop over all work-items of the group against
	// structure-of-arrays register banks (wg.go / wgexec.go). Kernels or
	// launches the per-launch noninterference certificate cannot prove safe
	// fall back to the closure path per work-group.
	BackendWG
)

// String returns the flag spelling of b.
func (b Backend) String() string {
	switch b {
	case BackendInterp:
		return "interp"
	case BackendClosure:
		return "closure"
	case BackendWG:
		return "wg"
	default:
		return "auto"
	}
}

// ParseBackend parses a backend name as accepted by the fluidibench
// -backend flag and the FLUIDICL_BACKEND environment variable, in any case.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "interp", "interpreter":
		return BackendInterp, nil
	case "closure", "closures":
		return BackendClosure, nil
	case "wg", "workgroup":
		return BackendWG, nil
	case "auto", "":
		return BackendAuto, nil
	}
	return BackendAuto, fmt.Errorf("vm: unknown backend %q (want interp, closure or wg)", s)
}

// builtinBackend is what BackendAuto resolves to when neither SetBackend nor
// FLUIDICL_BACKEND chose an engine: the whole-work-group engine, the one the
// benchmark measures. Closure is its per-group fallback for launches the
// certificate rejects; interp and closure stay selectable as referees.
const builtinBackend = BackendWG

// defaultBackend holds the process-wide backend (never BackendAuto);
// backendEnvErr what was wrong with FLUIDICL_BACKEND, if anything.
var (
	defaultBackend atomic.Int32
	backendEnvErr  error
)

func init() {
	b, err := ParseBackend(os.Getenv("FLUIDICL_BACKEND"))
	if err != nil {
		backendEnvErr = fmt.Errorf("FLUIDICL_BACKEND: %w", err)
	}
	SetBackend(b)
}

// BackendEnvErr reports a FLUIDICL_BACKEND value that names no backend. The
// process then runs the built-in default, so anything that promises a
// specific engine (fluidibench, the CI parity legs) checks this first.
func BackendEnvErr() error { return backendEnvErr }

// DefaultBackend returns the process-wide backend that BackendAuto resolves
// to: builtinBackend unless FLUIDICL_BACKEND or SetBackend chose another.
func DefaultBackend() Backend {
	return Backend(defaultBackend.Load())
}

// SetBackend sets the process-wide default backend. BackendAuto resets to
// builtinBackend. Safe to call concurrently; executions already in progress
// keep the backend they resolved at entry.
func SetBackend(b Backend) {
	if b == BackendAuto {
		b = builtinBackend
	}
	defaultBackend.Store(int32(b))
}

// resolve maps BackendAuto to the process default.
func (b Backend) resolve() Backend {
	if b == BackendAuto {
		return DefaultBackend()
	}
	return b
}

// ---------------------------------------------------------------------------
// Backend counters
// ---------------------------------------------------------------------------

// backendCtr tallies process-wide backend activity: how many work-groups ran
// on each engine, and the static superinstruction coverage of every compiled
// kernel. Harness tools (fluidibench -jsonout) surface these through
// core.CounterSnapshot.
var backendCtr struct {
	closureWGs  atomic.Int64
	interpWGs   atomic.Int64
	fusedInstrs atomic.Int64
	totalInstrs atomic.Int64

	wgLoopWGs     atomic.Int64
	wgFallbackWGs atomic.Int64
	wgRegions     atomic.Int64
	wgKernels     atomic.Int64

	// wgStridedWGs counts work-groups admitted to the lockstep engine by
	// the strided disjointness certificate (the identical-form certificate
	// having failed); wgRej counts fallbacks per WGReject reason.
	wgStridedWGs atomic.Int64
	wgRej        [wgRejCount]atomic.Int64
	// wgCertRuns counts certificate computations (decision-cache misses).
	wgCertRuns atomic.Int64

	// Region-fusion coverage (wgfuse.go), attributed at wg-compile time:
	// blocks fused into a single jammed closure, the instructions those
	// blocks cover, and the body instructions left on the per-step
	// fallback path.
	wgFusedBlocks       atomic.Int64
	wgFusedSteps        atomic.Int64
	wgFuseFallbackSteps atomic.Int64
	// wgFuseRej counts the unfused block bodies per WGFuseReject reason.
	wgFuseRej [wgFuseRejCount]atomic.Int64

	// Dynamic fusion accounting, folded in once per work-group: body
	// instructions (per work-item) executed through fused closures vs
	// through per-step lists.
	wgFusedInstrsDyn atomic.Int64
	wgStepInstrsDyn  atomic.Int64

	// Loop-level fusion (wgloop.go), see BackendCounters.
	wgLoopVerdicts      [wgLoopRejCount]atomic.Int64
	wgLoopBatchesDyn    atomic.Int64
	wgLoopTripsDyn      atomic.Int64
	wgLoopNonuniformDyn atomic.Int64
}

// BackendCounters is a snapshot of process-wide backend activity.
type BackendCounters struct {
	// ClosureWGs / InterpWGs count work-group executions per engine.
	ClosureWGs int64
	InterpWGs  int64
	// FusedInstrs / TotalInstrs count static instructions covered by fused
	// superinstructions vs all compiled instructions, across every kernel
	// compilation in the process.
	FusedInstrs int64
	TotalInstrs int64

	// WGLoopWGs counts work-groups executed by the whole-work-group engine;
	// WGFallbackWGs counts work-groups that requested the wg backend but fell
	// back to the per-item path (unsupported kernel shape or a launch the
	// noninterference certificate rejected).
	WGLoopWGs     int64
	WGFallbackWGs int64
	// WGRegions / WGKernels count barrier-free regions and kernels compiled
	// by the work-group compilation pass, across every kernel compilation in
	// the process.
	WGRegions int64
	WGKernels int64

	// WGStridedWGs counts work-groups the strided disjointness certificate
	// admitted after the identical-form certificate failed. WGRejects
	// attributes every fallback to one WGReject reason, indexed by that
	// enum (index WGRejNone is always zero).
	WGStridedWGs int64
	WGRejects    [wgRejCount]int64

	// WGFusedBlocks / WGFusedSteps count basic blocks region-fused by the
	// wg fusion pass (wgfuse.go) and the instructions those blocks cover;
	// WGFuseFallbackSteps counts body instructions compiled on the
	// per-step fallback path instead. All attributed at wg-compile time.
	WGFusedBlocks       int64
	WGFusedSteps        int64
	WGFuseFallbackSteps int64
	// WGFuseRejects attributes every unfused block body to one
	// WGFuseReject reason, indexed by that enum (index WGFuseRejNone is
	// always zero).
	WGFuseRejects [wgFuseRejCount]int64

	// WGFusedInstrsDyn / WGStepInstrsDyn count the block-body instructions
	// the lockstep engine executed, per work-item, through fused closures
	// vs through per-step lists (a fused block dispatched to a partial set
	// counts as per-step). Exact functions of the input, unlike the
	// compile-time counts above.
	WGFusedInstrsDyn int64
	WGStepInstrsDyn  int64

	// WGLoopVerdicts counts the loop verdict of every fused reduction body
	// compiled: index WGLoopRejNone the loops fused, the others the bodies
	// left on one trip per dispatch, by WGLoopReject reason.
	WGLoopVerdicts [wgLoopRejCount]int64
	// WGLoopBatchesDyn counts fused-body dispatches that ran their whole
	// loop, WGLoopTripsDyn the trips those covered, WGLoopNonuniformDyn the
	// dispatches of a loop-fused body that ran one trip because the
	// uniformity precheck failed (registers, or already-diverged budgets).
	WGLoopBatchesDyn    int64
	WGLoopTripsDyn      int64
	WGLoopNonuniformDyn int64
}

// WGRejectNames returns the reason name for each WGRejects index.
func WGRejectNames() [wgRejCount]string { return wgRejectNames }

// WGFuseRejectNames returns the reason name for each WGFuseRejects index.
func WGFuseRejectNames() [wgFuseRejCount]string { return wgFuseRejectNames }

// WGLoopRejectNames returns the reason name for each WGLoopVerdicts index.
func WGLoopRejectNames() [wgLoopRejCount]string { return wgLoopRejectNames }

// BackendSnapshot returns the process-wide backend counters.
func BackendSnapshot() BackendCounters {
	bc := BackendCounters{
		ClosureWGs:    backendCtr.closureWGs.Load(),
		InterpWGs:     backendCtr.interpWGs.Load(),
		FusedInstrs:   backendCtr.fusedInstrs.Load(),
		TotalInstrs:   backendCtr.totalInstrs.Load(),
		WGLoopWGs:     backendCtr.wgLoopWGs.Load(),
		WGFallbackWGs: backendCtr.wgFallbackWGs.Load(),
		WGRegions:     backendCtr.wgRegions.Load(),
		WGKernels:     backendCtr.wgKernels.Load(),
		WGStridedWGs:  backendCtr.wgStridedWGs.Load(),

		WGFusedBlocks:       backendCtr.wgFusedBlocks.Load(),
		WGFusedSteps:        backendCtr.wgFusedSteps.Load(),
		WGFuseFallbackSteps: backendCtr.wgFuseFallbackSteps.Load(),

		WGFusedInstrsDyn: backendCtr.wgFusedInstrsDyn.Load(),
		WGStepInstrsDyn:  backendCtr.wgStepInstrsDyn.Load(),

		WGLoopBatchesDyn:    backendCtr.wgLoopBatchesDyn.Load(),
		WGLoopTripsDyn:      backendCtr.wgLoopTripsDyn.Load(),
		WGLoopNonuniformDyn: backendCtr.wgLoopNonuniformDyn.Load(),
	}
	for i := range bc.WGRejects {
		bc.WGRejects[i] = backendCtr.wgRej[i].Load()
	}
	for i := range bc.WGFuseRejects {
		bc.WGFuseRejects[i] = backendCtr.wgFuseRej[i].Load()
	}
	for i := range bc.WGLoopVerdicts {
		bc.WGLoopVerdicts[i] = backendCtr.wgLoopVerdicts[i].Load()
	}
	return bc
}

// ---------------------------------------------------------------------------
// Closure machine
// ---------------------------------------------------------------------------

// Driver sentinels returned by block closures in place of a next pc.
const (
	pcRET     = -1 // work-item returned
	pcBARRIER = -2 // work-item reached a barrier (resume pc already stored)
	pcERR     = -3 // execution failed (cmach.err holds the error)
)

// closFn executes one basic block (or fused run) and returns the next pc, or
// a sentinel.
type closFn func(m *cmach) int

// stepFn executes one non-control-flow instruction (or one fused
// superinstruction). It returns false when execution failed; the error is in
// cmach.err.
type stepFn func(m *cmach) bool

// cmach is the closure backend's execution context: everything the
// interpreter's run() kept in locals, hoisted into a struct the compiled
// closures share. One cmach serves a whole work-group; per-work-item fields
// (w, iregs, fregs, lid, firstInWarp) are re-pointed per run.
type cmach struct {
	k     *Kernel
	iregs []int64
	fregs []float64
	w     *wiState

	nd     NDRange
	group  [3]int
	lid    [3]int
	args   []Arg
	locals [][]byte
	tr     *memTracker
	// stat accumulates the group's Stats in place; st points at it (kept as
	// a pointer so fused steps share the interpreter's *Stats helpers). The
	// value is copied out before release.
	stat Stats
	st   *Stats
	undo *UndoLog

	firstInWarp bool
	steps       int64
	maxSteps    int64
	err         error
}

// release drops references to caller-owned memory so a pooled cmach never
// retains buffers or stats beyond the work-group that used it.
func (m *cmach) release() {
	m.iregs, m.fregs, m.w = nil, nil, nil
	m.args, m.locals, m.tr, m.st = nil, nil, nil, nil
	m.undo, m.err = nil, nil
}

// runClos executes one work-item through the kernel's compiled closures
// until RET or BARRIER, with exactly the semantics of (*Kernel).run.
func (k *Kernel) runClos(m *cmach, w *wiState) (atBarrier bool, err error) {
	if w.pc == 0 {
		for i, p := range k.Params {
			switch p.Kind {
			case ArgInt:
				w.iregs[p.IReg] = m.args[i].I
			case ArgFloat:
				w.fregs[p.FReg] = float64(float32(m.args[i].F))
			}
		}
	}
	m.w = w
	m.iregs = w.iregs
	m.fregs = w.fregs
	m.steps = 0
	m.err = nil
	clos := k.clos
	pc := w.pc
	for pc >= 0 {
		pc = clos[pc](m)
	}
	switch pc {
	case pcRET:
		return false, nil
	case pcBARRIER:
		return true, nil
	default:
		return false, m.err
	}
}

// cdim mirrors the interpreter's dimVal: out-of-range dimensions read 0.
func cdim(vals [3]int, d int64) int64 {
	if d < 0 || d > 2 {
		return 0
	}
	return int64(vals[d])
}

// ---------------------------------------------------------------------------
// Per-instruction step builders
// ---------------------------------------------------------------------------

// buildStep compiles the instruction at pc into a stepFn mirroring the
// interpreter's switch case for it, with operands decoded once at build
// time. Control-flow instructions (JMP/JZ/JNZ/BARRIER/RET) are block
// terminators, not steps, and return nil; so does opNop (no semantics — the
// block's instruction count still covers its step budget).
func (k *Kernel) buildStep(pc int) stepFn {
	in := k.Code[pc]
	a, b, c := in.A, in.B, in.C
	switch in.Op {
	case opLDI:
		imm := in.IImm
		return func(m *cmach) bool { m.iregs[a] = imm; return true }
	case opLDF:
		imm := in.FImm
		return func(m *cmach) bool { m.fregs[a] = imm; return true }
	case opIMOV:
		return func(m *cmach) bool { m.iregs[a] = m.iregs[b]; return true }
	case opFMOV:
		return func(m *cmach) bool { m.fregs[a] = m.fregs[b]; return true }
	case opIADD:
		return func(m *cmach) bool { m.iregs[a] = m.iregs[b] + m.iregs[c]; m.st.IntOps++; return true }
	case opISUB:
		return func(m *cmach) bool { m.iregs[a] = m.iregs[b] - m.iregs[c]; m.st.IntOps++; return true }
	case opIMUL:
		return func(m *cmach) bool { m.iregs[a] = m.iregs[b] * m.iregs[c]; m.st.IntOps++; return true }
	case opIDIV:
		return func(m *cmach) bool {
			if m.iregs[c] == 0 {
				m.err = &execError{m.k.Name, pc, "integer division by zero"}
				return false
			}
			m.iregs[a] = m.iregs[b] / m.iregs[c]
			m.st.IntOps++
			return true
		}
	case opIMOD:
		return func(m *cmach) bool {
			if m.iregs[c] == 0 {
				m.err = &execError{m.k.Name, pc, "integer modulo by zero"}
				return false
			}
			m.iregs[a] = m.iregs[b] % m.iregs[c]
			m.st.IntOps++
			return true
		}
	case opINEG:
		return func(m *cmach) bool { m.iregs[a] = -m.iregs[b]; m.st.IntOps++; return true }
	case opFADD:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(m.fregs[b]) + float32(m.fregs[c]))
			m.st.FloatOps++
			return true
		}
	case opFSUB:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(m.fregs[b]) - float32(m.fregs[c]))
			m.st.FloatOps++
			return true
		}
	case opFMUL:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(m.fregs[b]) * float32(m.fregs[c]))
			m.st.FloatOps++
			return true
		}
	case opFDIV:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(m.fregs[b]) / float32(m.fregs[c]))
			m.st.FloatOps++
			return true
		}
	case opFNEG:
		return func(m *cmach) bool { m.fregs[a] = -m.fregs[b]; m.st.FloatOps++; return true }
	case opI2F:
		return func(m *cmach) bool { m.fregs[a] = float64(float32(m.iregs[b])); m.st.IntOps++; return true }
	case opF2I:
		return func(m *cmach) bool {
			f := m.fregs[b]
			if math.IsNaN(f) {
				f = 0
			}
			m.iregs[a] = int64(f) // C truncation toward zero
			m.st.IntOps++
			return true
		}
	case opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		cf := intCmpFn(in.Op)
		return func(m *cmach) bool {
			m.iregs[a] = b2i(cf(m.iregs[b], m.iregs[c]))
			m.st.IntOps++
			return true
		}
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE:
		cf := floatCmpFn(in.Op)
		return func(m *cmach) bool {
			m.iregs[a] = b2i(cf(m.fregs[b], m.fregs[c]))
			m.st.FloatOps++
			return true
		}
	case opNOTB:
		return func(m *cmach) bool { m.iregs[a] = b2i(m.iregs[b] == 0); m.st.IntOps++; return true }
	case opLDGF:
		return k.stepLoadGlobal(pc, in, true)
	case opLDGI:
		return k.stepLoadGlobal(pc, in, false)
	case opSTGF:
		return k.stepStoreGlobal(pc, in, true)
	case opSTGI:
		return k.stepStoreGlobal(pc, in, false)
	case opLDLF, opLDLI, opSTLF, opSTLI:
		return k.stepSlab(pc, in, false)
	case opLDPF, opLDPI, opSTPF, opSTPI:
		return k.stepSlab(pc, in, true)
	case opGID:
		return func(m *cmach) bool {
			d := m.iregs[b]
			m.iregs[a] = cdim(m.group, d)*cdim(m.nd.LocalSize, d) + cdim(m.lid, d)
			m.st.IntOps++
			return true
		}
	case opLID:
		return func(m *cmach) bool { m.iregs[a] = cdim(m.lid, m.iregs[b]); m.st.IntOps++; return true }
	case opGRP:
		return func(m *cmach) bool { m.iregs[a] = cdim(m.group, m.iregs[b]); m.st.IntOps++; return true }
	case opNGR:
		return func(m *cmach) bool {
			d := m.iregs[b]
			if d < 0 || d > 2 {
				m.iregs[a] = 1
			} else {
				m.iregs[a] = int64(m.nd.NumGroups[d])
			}
			m.st.IntOps++
			return true
		}
	case opLSZ:
		return func(m *cmach) bool {
			d := m.iregs[b]
			if d < 0 || d > 2 {
				m.iregs[a] = 1
			} else {
				m.iregs[a] = int64(m.nd.LocalSize[d])
			}
			m.st.IntOps++
			return true
		}
	case opGSZ:
		return func(m *cmach) bool {
			d := m.iregs[b]
			if d < 0 || d > 2 {
				m.iregs[a] = 1
			} else {
				m.iregs[a] = int64(m.nd.NumGroups[d] * m.nd.LocalSize[d])
			}
			m.st.IntOps++
			return true
		}
	case opGOFF:
		return func(m *cmach) bool { m.iregs[a] = 0; return true }
	case opWDIM:
		return func(m *cmach) bool { m.iregs[a] = int64(m.nd.Dims); return true }
	case opSQRT:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(math.Sqrt(m.fregs[b])))
			m.st.SpecialOps++
			return true
		}
	case opFABS:
		return func(m *cmach) bool { m.fregs[a] = math.Abs(m.fregs[b]); m.st.SpecialOps++; return true }
	case opEXP:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(math.Exp(m.fregs[b])))
			m.st.SpecialOps++
			return true
		}
	case opLOG:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(math.Log(m.fregs[b])))
			m.st.SpecialOps++
			return true
		}
	case opFLOOR:
		return func(m *cmach) bool { m.fregs[a] = math.Floor(m.fregs[b]); m.st.SpecialOps++; return true }
	case opCEIL:
		return func(m *cmach) bool { m.fregs[a] = math.Ceil(m.fregs[b]); m.st.SpecialOps++; return true }
	case opPOW:
		return func(m *cmach) bool {
			m.fregs[a] = float64(float32(math.Pow(m.fregs[b], m.fregs[c])))
			m.st.SpecialOps++
			return true
		}
	case opFMIN:
		return func(m *cmach) bool { m.fregs[a] = math.Min(m.fregs[b], m.fregs[c]); m.st.FloatOps++; return true }
	case opFMAX:
		return func(m *cmach) bool { m.fregs[a] = math.Max(m.fregs[b], m.fregs[c]); m.st.FloatOps++; return true }
	case opIMIN:
		return func(m *cmach) bool {
			if m.iregs[b] < m.iregs[c] {
				m.iregs[a] = m.iregs[b]
			} else {
				m.iregs[a] = m.iregs[c]
			}
			m.st.IntOps++
			return true
		}
	case opIMAX:
		return func(m *cmach) bool {
			if m.iregs[b] > m.iregs[c] {
				m.iregs[a] = m.iregs[b]
			} else {
				m.iregs[a] = m.iregs[c]
			}
			m.st.IntOps++
			return true
		}
	case opIABS:
		return func(m *cmach) bool {
			v := m.iregs[b]
			if v < 0 {
				v = -v
			}
			m.iregs[a] = v
			m.st.IntOps++
			return true
		}
	}
	return nil
}

func intCmpFn(op Op) func(x, y int64) bool {
	switch op {
	case opILT:
		return func(x, y int64) bool { return x < y }
	case opILE:
		return func(x, y int64) bool { return x <= y }
	case opIGT:
		return func(x, y int64) bool { return x > y }
	case opIGE:
		return func(x, y int64) bool { return x >= y }
	case opIEQ:
		return func(x, y int64) bool { return x == y }
	default:
		return func(x, y int64) bool { return x != y }
	}
}

func floatCmpFn(op Op) func(x, y float64) bool {
	switch op {
	case opFLT:
		return func(x, y float64) bool { return x < y }
	case opFLE:
		return func(x, y float64) bool { return x <= y }
	case opFGT:
		return func(x, y float64) bool { return x > y }
	case opFGE:
		return func(x, y float64) bool { return x >= y }
	case opFEQ:
		return func(x, y float64) bool { return x == y }
	default:
		return func(x, y float64) bool { return x != y }
	}
}

// stepLoadGlobal compiles opLDGF/opLDGI.
func (k *Kernel) stepLoadGlobal(pc int, in Instr, isF bool) stepFn {
	a, slot, c, memID := in.A, in.B, in.C, in.D
	name := k.Params[slot].Name
	if isF {
		return func(m *cmach) bool {
			buf := m.args[slot].Buf
			off, err := byteOff(m.iregs[c], len(buf))
			if err != nil {
				m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", name, err)}
				return false
			}
			bits := binary.LittleEndian.Uint32(buf[off:])
			m.fregs[a] = float64(math.Float32frombits(bits))
			m.st.noteGlobalRead(slot)
			m.st.GlobalLoads++
			m.st.GlobalLoadBytes += 4
			m.tr.access(memID, off, m.firstInWarp, m.st)
			return true
		}
	}
	return func(m *cmach) bool {
		buf := m.args[slot].Buf
		off, err := byteOff(m.iregs[c], len(buf))
		if err != nil {
			m.err = &execError{m.k.Name, pc, fmt.Sprintf("load %s: %v", name, err)}
			return false
		}
		bits := binary.LittleEndian.Uint32(buf[off:])
		m.iregs[a] = int64(int32(bits))
		m.st.noteGlobalRead(slot)
		m.st.GlobalLoads++
		m.st.GlobalLoadBytes += 4
		m.tr.access(memID, off, m.firstInWarp, m.st)
		return true
	}
}

// stepStoreGlobal compiles opSTGF/opSTGI, including the undo-log path.
func (k *Kernel) stepStoreGlobal(pc int, in Instr, isF bool) stepFn {
	a, slot, c, memID := in.A, in.B, in.C, in.D
	name := k.Params[slot].Name
	return func(m *cmach) bool {
		buf := m.args[slot].Buf
		off, err := byteOff(m.iregs[c], len(buf))
		if err != nil {
			m.err = &execError{m.k.Name, pc, fmt.Sprintf("store %s: %v", name, err)}
			return false
		}
		var bits uint32
		if isF {
			bits = math.Float32bits(float32(m.fregs[a]))
		} else {
			bits = uint32(int32(m.iregs[a]))
		}
		m.undo.store(buf, off, bits)
		m.st.noteGlobalWrite(slot, off)
		m.st.GlobalStores++
		m.st.GlobalStoreBytes += 4
		m.tr.access(memID, off, m.firstInWarp, m.st)
		return true
	}
}

// stepSlab compiles local-array and private-array loads and stores.
func (k *Kernel) stepSlab(pc int, in Instr, priv bool) stepFn {
	a, slot, c := in.A, in.B, in.C
	space := "local"
	arrs := k.LocalArrs
	if priv {
		space = "private"
		arrs = k.PrivArrs
	}
	name := arrs[slot].Name
	slab := func(m *cmach) []byte {
		if priv {
			return m.w.priv[slot]
		}
		return m.locals[slot]
	}
	fail := func(m *cmach, what string, err error) bool {
		m.err = &execError{m.k.Name, pc, fmt.Sprintf("%s %s %s: %v", space, what, name, err)}
		return false
	}
	switch in.Op {
	case opLDLF, opLDPF:
		return func(m *cmach) bool {
			buf := slab(m)
			off, err := byteOff(m.iregs[c], len(buf))
			if err != nil {
				return fail(m, "load", err)
			}
			m.fregs[a] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
			m.st.LocalAccesses++
			return true
		}
	case opLDLI, opLDPI:
		return func(m *cmach) bool {
			buf := slab(m)
			off, err := byteOff(m.iregs[c], len(buf))
			if err != nil {
				return fail(m, "load", err)
			}
			m.iregs[a] = int64(int32(binary.LittleEndian.Uint32(buf[off:])))
			m.st.LocalAccesses++
			return true
		}
	case opSTLF, opSTPF:
		return func(m *cmach) bool {
			buf := slab(m)
			off, err := byteOff(m.iregs[c], len(buf))
			if err != nil {
				return fail(m, "store", err)
			}
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(m.fregs[a])))
			m.st.LocalAccesses++
			return true
		}
	default: // opSTLI, opSTPI
		return func(m *cmach) bool {
			buf := slab(m)
			off, err := byteOff(m.iregs[c], len(buf))
			if err != nil {
				return fail(m, "store", err)
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(int32(m.iregs[a])))
			m.st.LocalAccesses++
			return true
		}
	}
}
