package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// ExecOpts controls one work-group execution.
type ExecOpts struct {
	// Undo, when non-nil, records every global store so the caller can roll
	// the work-group's effects back.
	Undo *UndoLog
	// MaxSteps bounds interpreted instructions per work-item (0 = default).
	MaxSteps int64
	// ArgsChecked skips per-call argument validation; set it only after a
	// successful CheckArgs for the same kernel and argument list.
	ArgsChecked bool
	// Backend selects the execution engine for this call. BackendAuto uses
	// the process default (wg, unless SetBackend / FLUIDICL_BACKEND chose).
	// wg falls back to the interpreter per work-group where uncertified.
	Backend Backend
}

const defaultMaxSteps = 256 << 20

// warpSize is the SIMT width used for memory-coalescing estimation.
const warpSize = 32

// cacheLineBytes is the locality threshold for the CPU stride model.
const cacheLineBytes = 64

type execError struct {
	kernel string
	pc     int
	msg    string
}

func (e *execError) Error() string {
	return fmt.Sprintf("vm: kernel %q at pc=%d: %s", e.kernel, e.pc, e.msg)
}

// wiState is one work-item's register state (persisted across barrier
// phases).
type wiState struct {
	iregs []int64
	fregs []float64
	priv  [][]byte
	pc    int
	done  bool
}

// memTracker accumulates locality information per static memory op.
type memTracker struct {
	prev [][]int32 // previous work-item's access offsets, per memID
	cur  [][]int32
	last []int32 // current work-item's previous offset, per memID
	seen []bool  // last[] validity
	occ  []int32 // occurrence counter for current work-item
}

func newMemTracker(n int) *memTracker {
	return &memTracker{
		prev: make([][]int32, n),
		cur:  make([][]int32, n),
		last: make([]int32, n),
		seen: make([]bool, n),
		occ:  make([]int32, n),
	}
}

// nextWI rotates per-work-item state. newWarp resets cross-work-item
// comparison at warp boundaries.
func (t *memTracker) nextWI(newWarp bool) {
	for i := range t.cur {
		if newWarp {
			t.prev[i] = t.prev[i][:0]
		} else {
			t.prev[i], t.cur[i] = t.cur[i], t.prev[i]
		}
		t.cur[i] = t.cur[i][:0]
		t.seen[i] = false
		t.occ[i] = 0
	}
}

// access records one global access at byte offset off and updates stats.
func (t *memTracker) access(memID int32, off int32, firstInWarp bool, st *Stats) {
	if memID < 0 {
		return
	}
	// CPU per-work-item stride locality.
	if t.seen[memID] {
		d := off - t.last[memID]
		if d < 0 {
			d = -d
		}
		if d <= cacheLineBytes {
			st.SeqBytes += 4
		} else {
			st.RandBytes += 4
		}
	} else {
		st.RandBytes += 4
		t.seen[memID] = true
	}
	t.last[memID] = off

	// GPU cross-work-item coalescing within a warp.
	occ := t.occ[memID]
	t.occ[memID]++
	if firstInWarp {
		st.WarpTransactions++
	} else {
		prev := t.prev[memID]
		if int(occ) < len(prev) {
			d := off - prev[occ]
			if d < 0 {
				d = -d
			}
			if d > 4 {
				st.WarpTransactions++
			}
			// d == 4 (adjacent) or d == 0 (broadcast): coalesces into the
			// transaction opened by an earlier lane.
		} else {
			st.WarpTransactions++
		}
	}
	t.cur[memID] = append(t.cur[memID], off)
}

// ExecWorkGroup executes one work-group of the kernel with the given
// arguments against the caller's memory (buffer args are mutated in place).
// group is in full-grid coordinates. It returns the dynamic stats of the
// execution.
func (k *Kernel) ExecWorkGroup(nd NDRange, group [3]int, args []Arg, opts ExecOpts) (Stats, error) {
	if !opts.ArgsChecked {
		if err := k.CheckArgs(args); err != nil {
			return Stats{}, err
		}
	}
	sc := k.getScratch()
	st, err := k.execWG(nd, group, args, opts, sc)
	k.putScratch(sc)
	return st, err
}

// execWG executes one work-group against pooled scratch state: on the
// lockstep engine when the options select wg and the launch is certified,
// otherwise on the interpreter below. Neither path allocates once warm.
func (k *Kernel) execWG(nd NDRange, group [3]int, args []Arg, opts ExecOpts, sc *wgScratch) (Stats, error) {
	if opts.Backend.resolve() == BackendWG {
		if k.wg == nil {
			backendCtr.wgFallbackWGs.Add(1)
			backendCtr.wgRej[WGRejShape].Add(1)
		} else if v := k.wgCertified(&sc.cert, nd, args); v.ok {
			if v.second {
				backendCtr.wgStridedWGs.Add(1)
			}
			return k.execWGLockstep(nd, group, args, opts, sc)
		} else {
			// Uncertified: count the fallback with its reason.
			backendCtr.wgFallbackWGs.Add(1)
			backendCtr.wgRej[v.rej].Add(1)
		}
	}
	backendCtr.interpWGs.Add(1)

	var st Stats
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}

	nWI := nd.WorkItemsPerGroup()
	st.WorkGroups = 1
	st.WorkItems = nWI

	// Local arrays, shared by the group's work-items.
	locals := sc.localsFor(k)
	tr := sc.trackerFor(k)
	lx, ly := nd.LocalSize[0], nd.LocalSize[1]

	if !k.HasBarrier {
		w := sc.singleFor(k)
		for wi := 0; wi < nWI; wi++ {
			w.reset(k)
			tr.nextWI(wi%warpSize == 0)
			lid := [3]int{wi % lx, (wi / lx) % ly, wi / (lx * ly)}
			if _, err := k.run(w, nd, group, lid, wi, args, locals, tr, &st, opts, maxSteps); err != nil {
				return st, err
			}
		}
		return st, nil
	}

	// Barrier path: phased execution of persistent per-work-item contexts.
	states := sc.statesFor(k, nWI)
	for {
		anyBarrier, anyDone := false, false
		barrierPC := -1
		for wi, w := range states {
			if w.done {
				anyDone = true
				continue
			}
			tr.nextWI(wi%warpSize == 0)
			lid := [3]int{wi % lx, (wi / lx) % ly, wi / (lx * ly)}
			atBarrier, err := k.run(w, nd, group, lid, wi, args, locals, tr, &st, opts, maxSteps)
			if err != nil {
				return st, err
			}
			if atBarrier {
				anyBarrier = true
				if barrierPC == -1 {
					barrierPC = w.pc
				} else if barrierPC != w.pc {
					return st, &execError{k.Name, w.pc, "work-items diverged to different barriers"}
				}
			} else {
				anyDone = true
			}
		}
		if !anyBarrier {
			return st, nil
		}
		if anyDone {
			return st, &execError{k.Name, barrierPC, "barrier not reached by all work-items"}
		}
		st.Barriers++
	}
}

func (w *wiState) reset(k *Kernel) {
	for i := range w.iregs {
		w.iregs[i] = 0
	}
	for i := range w.fregs {
		w.fregs[i] = 0
	}
	w.pc = 0
	w.done = false
}

func (k *Kernel) allocPriv() [][]byte {
	priv := make([][]byte, len(k.PrivArrs))
	for i, pa := range k.PrivArrs {
		priv[i] = make([]byte, pa.Len*pa.Elem.Size())
	}
	return priv
}

// CheckArgs validates an argument list against the kernel signature. Callers
// that validate once per launch may set ExecOpts.ArgsChecked to skip the
// per-work-group re-validation.
func (k *Kernel) CheckArgs(args []Arg) error {
	if len(args) != len(k.Params) {
		return fmt.Errorf("vm: kernel %q expects %d args, got %d", k.Name, len(k.Params), len(args))
	}
	for i, p := range k.Params {
		if args[i].Kind != p.Kind {
			return fmt.Errorf("vm: kernel %q arg %d (%s): kind mismatch", k.Name, i, p.Name)
		}
		if p.Kind == ArgBuffer && args[i].Buf == nil {
			return fmt.Errorf("vm: kernel %q arg %d (%s): nil buffer", k.Name, i, p.Name)
		}
	}
	return nil
}

// run interprets one work-item until RET or BARRIER. It loads scalar
// parameters into registers at pc 0.
func (k *Kernel) run(w *wiState, nd NDRange, group, lid [3]int, wi int,
	args []Arg, locals [][]byte, tr *memTracker, st *Stats,
	opts ExecOpts, maxSteps int64) (atBarrier bool, err error) {

	if w.pc == 0 {
		for i, p := range k.Params {
			switch p.Kind {
			case ArgInt:
				w.iregs[p.IReg] = args[i].I
			case ArgFloat:
				w.fregs[p.FReg] = float64(float32(args[i].F))
			}
		}
	}

	iregs, fregs := w.iregs, w.fregs
	code := k.Code
	firstInWarp := wi%warpSize == 0
	var steps int64

	for {
		if w.pc < 0 || w.pc >= len(code) {
			return false, &execError{k.Name, w.pc, "pc out of range"}
		}
		in := &code[w.pc]
		steps++
		if steps > maxSteps {
			return false, &execError{k.Name, w.pc, "instruction budget exceeded (possible infinite loop)"}
		}
		switch in.Op {
		case opNop:
		case opLDI:
			iregs[in.A] = in.IImm
		case opLDF:
			fregs[in.A] = in.FImm
		case opIMOV:
			iregs[in.A] = iregs[in.B]
		case opFMOV:
			fregs[in.A] = fregs[in.B]
		case opIADD:
			iregs[in.A] = iregs[in.B] + iregs[in.C]
			st.IntOps++
		case opISUB:
			iregs[in.A] = iregs[in.B] - iregs[in.C]
			st.IntOps++
		case opIMUL:
			iregs[in.A] = iregs[in.B] * iregs[in.C]
			st.IntOps++
		case opIDIV:
			if iregs[in.C] == 0 {
				return false, &execError{k.Name, w.pc, "integer division by zero"}
			}
			iregs[in.A] = iregs[in.B] / iregs[in.C]
			st.IntOps++
		case opIMOD:
			if iregs[in.C] == 0 {
				return false, &execError{k.Name, w.pc, "integer modulo by zero"}
			}
			iregs[in.A] = iregs[in.B] % iregs[in.C]
			st.IntOps++
		case opINEG:
			iregs[in.A] = -iregs[in.B]
			st.IntOps++
		case opFADD:
			fregs[in.A] = float64(float32(fregs[in.B]) + float32(fregs[in.C]))
			st.FloatOps++
		case opFSUB:
			fregs[in.A] = float64(float32(fregs[in.B]) - float32(fregs[in.C]))
			st.FloatOps++
		case opFMUL:
			fregs[in.A] = float64(float32(fregs[in.B]) * float32(fregs[in.C]))
			st.FloatOps++
		case opFDIV:
			fregs[in.A] = float64(float32(fregs[in.B]) / float32(fregs[in.C]))
			st.FloatOps++
		case opFNEG:
			fregs[in.A] = -fregs[in.B]
			st.FloatOps++
		case opI2F:
			fregs[in.A] = float64(float32(iregs[in.B]))
			st.IntOps++
		case opF2I:
			f := fregs[in.B]
			if math.IsNaN(f) {
				f = 0
			}
			iregs[in.A] = int64(f) // C truncation toward zero
			st.IntOps++
		case opILT:
			iregs[in.A] = b2i(iregs[in.B] < iregs[in.C])
			st.IntOps++
		case opILE:
			iregs[in.A] = b2i(iregs[in.B] <= iregs[in.C])
			st.IntOps++
		case opIGT:
			iregs[in.A] = b2i(iregs[in.B] > iregs[in.C])
			st.IntOps++
		case opIGE:
			iregs[in.A] = b2i(iregs[in.B] >= iregs[in.C])
			st.IntOps++
		case opIEQ:
			iregs[in.A] = b2i(iregs[in.B] == iregs[in.C])
			st.IntOps++
		case opINE:
			iregs[in.A] = b2i(iregs[in.B] != iregs[in.C])
			st.IntOps++
		case opFLT:
			iregs[in.A] = b2i(fregs[in.B] < fregs[in.C])
			st.FloatOps++
		case opFLE:
			iregs[in.A] = b2i(fregs[in.B] <= fregs[in.C])
			st.FloatOps++
		case opFGT:
			iregs[in.A] = b2i(fregs[in.B] > fregs[in.C])
			st.FloatOps++
		case opFGE:
			iregs[in.A] = b2i(fregs[in.B] >= fregs[in.C])
			st.FloatOps++
		case opFEQ:
			iregs[in.A] = b2i(fregs[in.B] == fregs[in.C])
			st.FloatOps++
		case opFNE:
			iregs[in.A] = b2i(fregs[in.B] != fregs[in.C])
			st.FloatOps++
		case opNOTB:
			iregs[in.A] = b2i(iregs[in.B] == 0)
			st.IntOps++
		case opJMP:
			w.pc = int(in.A)
			st.Branches++
			continue
		case opJZ:
			st.Branches++
			if iregs[in.B] == 0 {
				w.pc = int(in.A)
				continue
			}
		case opJNZ:
			st.Branches++
			if iregs[in.B] != 0 {
				w.pc = int(in.A)
				continue
			}
		case opLDGF:
			buf := args[in.B].Buf
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("load %s: %v", k.Params[in.B].Name, err2)}
			}
			bits := binary.LittleEndian.Uint32(buf[off:])
			fregs[in.A] = float64(math.Float32frombits(bits))
			st.noteGlobalRead(in.B)
			st.GlobalLoads++
			st.GlobalLoadBytes += 4
			tr.access(in.D, off, firstInWarp, st)
		case opLDGI:
			buf := args[in.B].Buf
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("load %s: %v", k.Params[in.B].Name, err2)}
			}
			bits := binary.LittleEndian.Uint32(buf[off:])
			iregs[in.A] = int64(int32(bits))
			st.noteGlobalRead(in.B)
			st.GlobalLoads++
			st.GlobalLoadBytes += 4
			tr.access(in.D, off, firstInWarp, st)
		case opSTGF:
			buf := args[in.B].Buf
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("store %s: %v", k.Params[in.B].Name, err2)}
			}
			bits := math.Float32bits(float32(fregs[in.A]))
			opts.Undo.store(buf, off, bits)
			st.noteGlobalWrite(in.B, off)
			st.GlobalStores++
			st.GlobalStoreBytes += 4
			tr.access(in.D, off, firstInWarp, st)
		case opSTGI:
			buf := args[in.B].Buf
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("store %s: %v", k.Params[in.B].Name, err2)}
			}
			bits := uint32(int32(iregs[in.A]))
			opts.Undo.store(buf, off, bits)
			st.noteGlobalWrite(in.B, off)
			st.GlobalStores++
			st.GlobalStoreBytes += 4
			tr.access(in.D, off, firstInWarp, st)
		case opLDLF:
			buf := locals[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("local load %s: %v", k.LocalArrs[in.B].Name, err2)}
			}
			fregs[in.A] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
			st.LocalAccesses++
		case opLDLI:
			buf := locals[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("local load %s: %v", k.LocalArrs[in.B].Name, err2)}
			}
			iregs[in.A] = int64(int32(binary.LittleEndian.Uint32(buf[off:])))
			st.LocalAccesses++
		case opSTLF:
			buf := locals[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("local store %s: %v", k.LocalArrs[in.B].Name, err2)}
			}
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(fregs[in.A])))
			st.LocalAccesses++
		case opSTLI:
			buf := locals[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("local store %s: %v", k.LocalArrs[in.B].Name, err2)}
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(int32(iregs[in.A])))
			st.LocalAccesses++
		case opLDPF:
			buf := w.priv[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("private load %s: %v", k.PrivArrs[in.B].Name, err2)}
			}
			fregs[in.A] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
			st.LocalAccesses++
		case opLDPI:
			buf := w.priv[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("private load %s: %v", k.PrivArrs[in.B].Name, err2)}
			}
			iregs[in.A] = int64(int32(binary.LittleEndian.Uint32(buf[off:])))
			st.LocalAccesses++
		case opSTPF:
			buf := w.priv[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("private store %s: %v", k.PrivArrs[in.B].Name, err2)}
			}
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(fregs[in.A])))
			st.LocalAccesses++
		case opSTPI:
			buf := w.priv[in.B]
			off, err2 := byteOff(iregs[in.C], len(buf))
			if err2 != nil {
				return false, &execError{k.Name, w.pc, fmt.Sprintf("private store %s: %v", k.PrivArrs[in.B].Name, err2)}
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(int32(iregs[in.A])))
			st.LocalAccesses++
		case opGID:
			d := iregs[in.B]
			iregs[in.A] = cdim(group, d)*cdim(nd.LocalSize, d) + cdim(lid, d)
			st.IntOps++
		case opLID:
			iregs[in.A] = cdim(lid, iregs[in.B])
			st.IntOps++
		case opGRP:
			iregs[in.A] = cdim(group, iregs[in.B])
			st.IntOps++
		case opNGR:
			d := iregs[in.B]
			if d < 0 || d > 2 {
				iregs[in.A] = 1
			} else {
				iregs[in.A] = int64(nd.NumGroups[d])
			}
			st.IntOps++
		case opLSZ:
			d := iregs[in.B]
			if d < 0 || d > 2 {
				iregs[in.A] = 1
			} else {
				iregs[in.A] = int64(nd.LocalSize[d])
			}
			st.IntOps++
		case opGSZ:
			d := iregs[in.B]
			if d < 0 || d > 2 {
				iregs[in.A] = 1
			} else {
				iregs[in.A] = int64(nd.NumGroups[d] * nd.LocalSize[d])
			}
			st.IntOps++
		case opGOFF:
			iregs[in.A] = 0
		case opWDIM:
			iregs[in.A] = int64(nd.Dims)
		case opBARRIER:
			w.pc++
			return true, nil
		case opSQRT:
			fregs[in.A] = float64(float32(math.Sqrt(fregs[in.B])))
			st.SpecialOps++
		case opFABS:
			fregs[in.A] = math.Abs(fregs[in.B])
			st.SpecialOps++
		case opEXP:
			fregs[in.A] = float64(float32(math.Exp(fregs[in.B])))
			st.SpecialOps++
		case opLOG:
			fregs[in.A] = float64(float32(math.Log(fregs[in.B])))
			st.SpecialOps++
		case opFLOOR:
			fregs[in.A] = math.Floor(fregs[in.B])
			st.SpecialOps++
		case opCEIL:
			fregs[in.A] = math.Ceil(fregs[in.B])
			st.SpecialOps++
		case opPOW:
			fregs[in.A] = float64(float32(math.Pow(fregs[in.B], fregs[in.C])))
			st.SpecialOps++
		case opFMIN:
			fregs[in.A] = math.Min(fregs[in.B], fregs[in.C])
			st.FloatOps++
		case opFMAX:
			fregs[in.A] = math.Max(fregs[in.B], fregs[in.C])
			st.FloatOps++
		case opIMIN:
			if iregs[in.B] < iregs[in.C] {
				iregs[in.A] = iregs[in.B]
			} else {
				iregs[in.A] = iregs[in.C]
			}
			st.IntOps++
		case opIMAX:
			if iregs[in.B] > iregs[in.C] {
				iregs[in.A] = iregs[in.B]
			} else {
				iregs[in.A] = iregs[in.C]
			}
			st.IntOps++
		case opIABS:
			v := iregs[in.B]
			if v < 0 {
				v = -v
			}
			iregs[in.A] = v
			st.IntOps++
		case opRET:
			w.done = true
			return false, nil
		default:
			return false, &execError{k.Name, w.pc, fmt.Sprintf("bad opcode %d", in.Op)}
		}
		w.pc++
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cdim reads dimension d of vals; out-of-range dimensions read 0.
func cdim(vals [3]int, d int64) int64 {
	if d < 0 || d > 2 {
		return 0
	}
	return int64(vals[d])
}

// oob is the package's one range predicate: word idx lies outside a buffer of
// bufLen bytes. It compares in word units because idx*4 wraps for |idx| >=
// 2^61 and would alias a valid word.
func oob(idx int64, bufLen int) bool { return uint64(idx) >= uint64(bufLen/4) }

func byteOff(idx int64, bufLen int) (int32, error) {
	if oob(idx, bufLen) {
		return 0, fmt.Errorf("index %d out of range (buffer %d bytes)", idx, bufLen)
	}
	return int32(idx * 4), nil
}

// hostLittleEndian: a buffer's bytes are its float32 words as the host reads
// them, which f32View needs.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32View returns b's whole words as float32s in place — the package's one
// unsafe conversion — or false when that is not what the little-endian byte
// decoding of the load paths reads: b is not 4-byte aligned, or the host is
// big-endian.
func f32View(b []byte) ([]float32, bool) {
	p := unsafe.SliceData(b)
	if !hostLittleEndian || uintptr(unsafe.Pointer(p))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(p)), len(b)/4), true
}

// ExecLaunch executes every work-group of the launch slice and returns
// aggregate stats. It is a convenience for tests and single-device paths
// that do not need per-group timing. Groups run in launch order against the
// caller's memory; on an error the stores up to the fault stay applied and
// the stats so far are returned.
func (k *Kernel) ExecLaunch(nd NDRange, args []Arg, opts ExecOpts) (Stats, error) {
	var total Stats
	if !opts.ArgsChecked {
		if err := k.CheckArgs(args); err != nil {
			return total, err
		}
		opts.ArgsChecked = true
	}
	for i, n := 0, nd.LaunchGroups(); i < n; i++ {
		st, err := k.ExecWorkGroup(nd, nd.GroupAt(i), args, opts)
		total.Add(st)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
