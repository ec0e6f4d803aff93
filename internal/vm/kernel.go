// Package vm compiles MiniCL kernels (package clc) to bytecode and executes
// them one work-group at a time. Execution is real — buffers hold real data
// and kernels compute real results — and simultaneously produces the dynamic
// statistics (instruction mix, per-warp memory-transaction estimates,
// per-work-item stride locality) that the simulated devices turn into
// virtual time.
package vm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Register-machine encoding: A is usually the destination register,
// B and C are operands. Separate integer and float register files.
const (
	opNop Op = iota

	opLDI // ireg[A] = IImm
	opLDF // freg[A] = FImm

	opIMOV // ireg[A] = ireg[B]
	opFMOV // freg[A] = freg[B]

	opIADD // ireg[A] = ireg[B] + ireg[C]
	opISUB
	opIMUL
	opIDIV
	opIMOD
	opINEG // ireg[A] = -ireg[B]

	opFADD // freg[A] = f32(freg[B] + freg[C])
	opFSUB
	opFMUL
	opFDIV
	opFNEG

	opI2F // freg[A] = float(ireg[B])
	opF2I // ireg[A] = int(freg[B]), C truncation

	opILT // ireg[A] = ireg[B] < ireg[C]
	opILE
	opIGT
	opIGE
	opIEQ
	opINE

	opFLT // ireg[A] = freg[B] < freg[C]
	opFLE
	opFGT
	opFGE
	opFEQ
	opFNE

	opNOTB // ireg[A] = (ireg[B] == 0)

	opJMP // pc = A
	opJZ  // if ireg[B] == 0: pc = A
	opJNZ // if ireg[B] != 0: pc = A

	// Global memory (slot B = pointer parameter index, C = element index
	// register, D = static memory-op id for locality tracking).
	opLDGF // freg[A] = load f32
	opSTGF // store f32 freg[A]
	opLDGI // ireg[A] = load i32
	opSTGI // store i32 ireg[A]

	// Local memory (slot B = local array id).
	opLDLF
	opSTLF
	opLDLI
	opSTLI

	// Private arrays (slot B = private array id).
	opLDPF
	opSTPF
	opLDPI
	opSTPI

	// Work-item builtins (B = dimension register where applicable).
	opGID  // ireg[A] = get_global_id(ireg[B])
	opLID  // get_local_id
	opGRP  // get_group_id
	opNGR  // get_num_groups
	opLSZ  // get_local_size
	opGSZ  // get_global_size
	opGOFF // get_global_offset (always 0)
	opWDIM // get_work_dim

	opBARRIER

	// Math builtins.
	opSQRT // freg[A] = sqrt(freg[B])
	opFABS
	opEXP
	opLOG
	opFLOOR
	opCEIL
	opPOW  // freg[A] = pow(freg[B], freg[C])
	opFMIN // freg[A] = min(freg[B], freg[C])
	opFMAX
	opIMIN // ireg[A] = min(ireg[B], ireg[C])
	opIMAX
	opIABS // ireg[A] = abs(ireg[B])

	opRET
)

// Instr is one bytecode instruction.
type Instr struct {
	Op   Op
	A    int32
	B    int32
	C    int32
	D    int32 // static memory-op id for loads/stores
	IImm int64
	FImm float64
}

// ArgKind classifies a kernel argument.
type ArgKind int

// Argument kinds.
const (
	ArgInt ArgKind = iota
	ArgFloat
	ArgBuffer
)

// Arg is a bound kernel argument. Buffer arguments reference device-resident
// bytes directly.
type Arg struct {
	Kind ArgKind
	I    int64
	F    float64
	Buf  []byte
}

// IntArg makes an int argument.
func IntArg(v int64) Arg { return Arg{Kind: ArgInt, I: v} }

// FloatArg makes a float argument.
func FloatArg(v float64) Arg { return Arg{Kind: ArgFloat, F: v} }

// BufArg makes a buffer argument backed by mem.
func BufArg(mem []byte) Arg { return Arg{Kind: ArgBuffer, Buf: mem} }

// ParamSlot describes a compiled kernel parameter binding.
type ParamSlot struct {
	Name string
	Kind ArgKind
	Elem clc.ScalarKind // element type for buffers
	IReg int32          // register for scalar int params
	FReg int32          // register for scalar float params
}

// ArrayInfo describes a __local or private array declared in the kernel.
type ArrayInfo struct {
	Name string
	Elem clc.ScalarKind
	Len  int
}

// Kernel is a compiled MiniCL kernel.
type Kernel struct {
	Name       string
	Params     []ParamSlot
	Code       []Instr
	NumI, NumF int
	HasBarrier bool
	LocalArrs  []ArrayInfo // allocated per work-group
	PrivArrs   []ArrayInfo // allocated per work-item
	NumMemOps  int         // static count of global memory instructions
	Info       *clc.KernelInfo

	// wg is the whole-work-group compilation (lockstep barrier-region
	// loops over SoA register banks) — nil when buildWG bailed out and
	// the wg backend must fall back to the interpreter.
	wg *wgProgram

	// sum is the static access summary of the kernel's AST (strided refs,
	// rejects, barrier report), computed once at compile time. The wg
	// backend's second-chance certificate evaluates it per launch shape.
	sum *analysis.KernelSummary

	// certs caches the wg certificate decisions per launch-shape key
	// (wgcert.go): an immutable slice, replaced whole on insert.
	certs atomic.Pointer[[]wgCertEntry]

	// scratch pools per-work-group execution state (*wgScratch). A compiled
	// kernel is otherwise immutable, so one Kernel may execute work-groups
	// from many goroutines concurrently.
	scratch sync.Pool
}

// NDRange describes a kernel launch: the full work-group grid of the
// original enqueue plus the rectangular slice of groups this launch
// actually executes (FluidiCL's CPU subkernels launch slices; a plain
// launch has GroupBase = 0 and GroupCount = NumGroups).
type NDRange struct {
	Dims       int
	LocalSize  [3]int
	NumGroups  [3]int // full grid of the original NDRange
	GroupBase  [3]int // first group (in full-grid coordinates) of this slice
	GroupCount [3]int // extent of this slice
}

// NewNDRange1D builds a full 1-D launch with the given global and local
// sizes (global must be a multiple of local).
func NewNDRange1D(global, local int) NDRange {
	return NewNDRange(1, [3]int{global, 1, 1}, [3]int{local, 1, 1})
}

// NewNDRange2D builds a full 2-D launch.
func NewNDRange2D(gx, gy, lx, ly int) NDRange {
	return NewNDRange(2, [3]int{gx, gy, 1}, [3]int{lx, ly, 1})
}

// NewNDRange builds a full launch covering the whole grid.
func NewNDRange(dims int, global, local [3]int) NDRange {
	nd := NDRange{Dims: dims, LocalSize: local}
	for d := 0; d < 3; d++ {
		if local[d] <= 0 {
			local[d] = 1
			nd.LocalSize[d] = 1
		}
		if global[d] <= 0 {
			global[d] = local[d]
		}
		if global[d]%local[d] != 0 {
			panic(fmt.Sprintf("vm: global size %d not a multiple of local size %d in dim %d", global[d], local[d], d))
		}
		nd.NumGroups[d] = global[d] / local[d]
		nd.GroupCount[d] = nd.NumGroups[d]
	}
	return nd
}

// TotalGroups returns the number of work-groups in the full grid.
func (nd NDRange) TotalGroups() int {
	return nd.NumGroups[0] * nd.NumGroups[1] * nd.NumGroups[2]
}

// LaunchGroups returns the number of work-groups in this launch's slice.
func (nd NDRange) LaunchGroups() int {
	return nd.GroupCount[0] * nd.GroupCount[1] * nd.GroupCount[2]
}

// WorkItemsPerGroup returns the work-group size.
func (nd NDRange) WorkItemsPerGroup() int {
	return nd.LocalSize[0] * nd.LocalSize[1] * nd.LocalSize[2]
}

// FlatGroupID flattens full-grid group coordinates, matching the paper's
// Figure 5 numbering (x fastest).
func (nd NDRange) FlatGroupID(g [3]int) int {
	return g[2]*nd.NumGroups[1]*nd.NumGroups[0] + g[1]*nd.NumGroups[0] + g[0]
}

// GroupFromFlat converts a flattened group ID back to full-grid coordinates.
func (nd NDRange) GroupFromFlat(flat int) [3]int {
	nx, ny := nd.NumGroups[0], nd.NumGroups[1]
	z := flat / (nx * ny)
	rem := flat % (nx * ny)
	return [3]int{rem % nx, rem / nx, z}
}

// GroupAt returns the full-grid coordinates of the i-th group of this
// launch's slice (x fastest within the slice).
func (nd NDRange) GroupAt(i int) [3]int {
	cx, cy := nd.GroupCount[0], nd.GroupCount[1]
	z := i / (cx * cy)
	rem := i % (cx * cy)
	return [3]int{
		nd.GroupBase[0] + rem%cx,
		nd.GroupBase[1] + rem/cx,
		nd.GroupBase[2] + z,
	}
}

// Slice returns a copy of nd restricted to the flattened group range
// [loFlat, hiFlat] rounded out to a rectangular slice of the grid. The
// returned NDRange may cover more groups than the range; callers are
// expected to guard execution with the flattened lo/hi parameters (this is
// exactly the paper's §5.2 offset-calculation scheme).
func (nd NDRange) Slice(loFlat, hiFlat int) NDRange {
	s := nd
	nx, ny := nd.NumGroups[0], nd.NumGroups[1]
	rowSz := nx
	planeSz := nx * ny
	loPlane, hiPlane := loFlat/planeSz, hiFlat/planeSz
	if loPlane == hiPlane {
		loRow, hiRow := (loFlat%planeSz)/rowSz, (hiFlat%planeSz)/rowSz
		if loRow == hiRow {
			// Within one row: exact x range.
			s.GroupBase = [3]int{loFlat % rowSz, loRow, loPlane}
			s.GroupCount = [3]int{hiFlat%rowSz - loFlat%rowSz + 1, 1, 1}
			return s
		}
		// Within one plane: whole rows.
		s.GroupBase = [3]int{0, loRow, loPlane}
		s.GroupCount = [3]int{nx, hiRow - loRow + 1, 1}
		return s
	}
	// Spans planes: whole planes.
	s.GroupBase = [3]int{0, 0, loPlane}
	s.GroupCount = [3]int{nx, ny, hiPlane - loPlane + 1}
	return s
}

// Stats aggregates the dynamic execution profile of one or more work-groups.
type Stats struct {
	WorkGroups int
	WorkItems  int

	IntOps     int64
	FloatOps   int64
	SpecialOps int64 // sqrt/exp/pow/...
	Branches   int64

	GlobalLoads      int64
	GlobalStores     int64
	GlobalLoadBytes  int64
	GlobalStoreBytes int64
	LocalAccesses    int64
	Barriers         int64

	// WarpTransactions estimates GPU memory transactions: per static memory
	// op, per 32-work-item warp, accesses to consecutive addresses coalesce
	// into one transaction.
	WarpTransactions int64

	// SeqBytes/RandBytes classify per-work-item access locality for the CPU
	// cache model: an access within 64 bytes of the same instruction's
	// previous access by the same work-item is sequential.
	SeqBytes  int64
	RandBytes int64

	// ParamReadMask/ParamWriteMask record which pointer parameters the
	// executed work-items dynamically loaded from / stored to (bit i =
	// parameter slot i). WrLo/WrHi bound the written byte offsets per slot,
	// valid only while the matching write bit is set. The runtime
	// cross-checks these against the static analyzer's summaries: a dynamic
	// access outside the static summary is a hard failure.
	ParamReadMask  uint64
	ParamWriteMask uint64
	WrLo, WrHi     [16]int32
}

// noteGlobalRead records a dynamic load from parameter slot.
func (s *Stats) noteGlobalRead(slot int32) {
	if slot < 64 {
		s.ParamReadMask |= 1 << uint(slot)
	}
}

// noteGlobalWrite records a dynamic store of the 4 bytes at off to
// parameter slot.
func (s *Stats) noteGlobalWrite(slot, off int32) {
	if slot >= 64 {
		return
	}
	bit := uint64(1) << uint(slot)
	if int(slot) < len(s.WrLo) {
		if s.ParamWriteMask&bit == 0 || off < s.WrLo[slot] {
			s.WrLo[slot] = off
		}
		if s.ParamWriteMask&bit == 0 || off+4 > s.WrHi[slot] {
			s.WrHi[slot] = off + 4
		}
	}
	s.ParamWriteMask |= bit
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.WorkGroups += o.WorkGroups
	s.WorkItems += o.WorkItems
	s.IntOps += o.IntOps
	s.FloatOps += o.FloatOps
	s.SpecialOps += o.SpecialOps
	s.Branches += o.Branches
	s.GlobalLoads += o.GlobalLoads
	s.GlobalStores += o.GlobalStores
	s.GlobalLoadBytes += o.GlobalLoadBytes
	s.GlobalStoreBytes += o.GlobalStoreBytes
	s.LocalAccesses += o.LocalAccesses
	s.Barriers += o.Barriers
	s.WarpTransactions += o.WarpTransactions
	s.SeqBytes += o.SeqBytes
	s.RandBytes += o.RandBytes
	s.ParamReadMask |= o.ParamReadMask
	for i := 0; i < len(o.WrLo); i++ {
		bit := uint64(1) << uint(i)
		if o.ParamWriteMask&bit == 0 {
			continue
		}
		if s.ParamWriteMask&bit == 0 || o.WrLo[i] < s.WrLo[i] {
			s.WrLo[i] = o.WrLo[i]
		}
		if s.ParamWriteMask&bit == 0 || o.WrHi[i] > s.WrHi[i] {
			s.WrHi[i] = o.WrHi[i]
		}
	}
	s.ParamWriteMask |= o.ParamWriteMask
}

// UndoRecord is one overwritten global-memory word: the buffer it lives in
// (an index into the owning log's table), its byte offset and the bytes it
// held. 12 bytes per stored word.
type UndoRecord struct {
	Buf int32
	Off int32
	Old [4]byte
}

// UndoLog captures global stores so a work-group's effects can be rolled
// back (the simulator uses this when a work-group turns out to have aborted
// mid-flight because the CPU's completion status arrived during its
// execution window). A log is reusable after Rollback or Reset.
type UndoLog struct {
	bufs [][]byte // the distinct buffers stored to, in first-store order
	recs []UndoRecord
}

// store writes bits at buf[off:], first recording the word it overwrites
// when there is a log (u may be nil). A kernel stores to a handful of
// buffers, so the log's table is searched linearly, newest first.
func (u *UndoLog) store(buf []byte, off int32, bits uint32) {
	if u != nil {
		bi := len(u.bufs) - 1
		for bi >= 0 && (&u.bufs[bi][0] != &buf[0] || len(u.bufs[bi]) != len(buf)) {
			bi--
		}
		if bi < 0 {
			bi = len(u.bufs)
			u.bufs = append(u.bufs, buf)
		}
		u.recs = append(u.recs, UndoRecord{Buf: int32(bi), Off: off, Old: [4]byte(buf[off : off+4])})
	}
	binary.LittleEndian.PutUint32(buf[off:], bits)
}

// Rollback undoes all recorded stores, newest first, and resets the log.
func (u *UndoLog) Rollback() {
	for i := len(u.recs) - 1; i >= 0; i-- {
		r := &u.recs[i]
		copy(u.bufs[r.Buf][r.Off:], r.Old[:])
	}
	u.Reset()
}

// Reset empties the log without undoing anything and drops its buffer
// references, keeping the record storage for the next work-group.
func (u *UndoLog) Reset() {
	clear(u.bufs)
	u.bufs, u.recs = u.bufs[:0], u.recs[:0]
}

// Len returns the number of recorded stores.
func (u *UndoLog) Len() int { return len(u.recs) }
