package vm

import (
	"math"

	"fluidicl/internal/clc"
)

// The opcode table. Each opcode's row states its mnemonic, its operand
// signature, the Stats counter it books once per work-item and, for an ALU
// op, its per-lane function. The register remap (compiler.finalize),
// liveness (wgUseDef), the disassembler and the lockstep engine's banked
// steps (buildWStep) all read the row; the interpreter (exec.go) states the
// same semantics on its own and is the referee the table is tested against.

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Register-machine encoding: A is usually the destination register,
// B and C are operands, D is a global memory op's static id (locality
// tracking); opTab says what each field holds.
const (
	opNop Op = iota
	opLDI
	opLDF
	opIMOV
	opFMOV
	opIADD
	opISUB
	opIMUL
	opIDIV
	opIMOD
	opINEG
	opFADD
	opFSUB
	opFMUL
	opFDIV
	opFNEG
	opI2F
	opF2I
	opILT
	opILE
	opIGT
	opIGE
	opIEQ
	opINE
	opFLT
	opFLE
	opFGT
	opFGE
	opFEQ
	opFNE
	opNOTB
	opJMP
	opJZ
	opJNZ
	opLDGF // global memory: B is the pointer parameter's slot, C the word index
	opSTGF
	opLDGI
	opSTGI
	opLDLF // local memory: B is the local array's id
	opSTLF
	opLDLI
	opSTLI
	opLDPF // private arrays: B is the private array's id
	opSTPF
	opLDPI
	opSTPI
	opGID
	opLID
	opGRP
	opNGR
	opLSZ
	opGSZ
	opWDIM
	opBARRIER
	opSQRT
	opFABS
	opEXP
	opLOG
	opFLOOR
	opCEIL
	opPOW
	opFMIN
	opFMAX
	opIMIN
	opIMAX
	opIABS
	opRET
)

// opnd is what one of an instruction's A, B and C fields holds.
type opnd uint8

const (
	oNone opnd = iota
	oI         // an int register the instruction reads
	oF         // a float register it reads
	oIw        // an int register it writes
	oFw        // a float register it writes
	oDim       // an int register read as a dimension (printed dim=rB)
	oIdx       // an int register read as the word index into B's memory
	oSlot      // a pointer parameter's slot, or a local or private array's id
	oPC        // a jump target
	oImm       // nothing: the operand is IImm (int destination) or FImm
)

func (o opnd) intReg() bool   { return o == oI || o == oIw || o == oDim || o == oIdx }
func (o opnd) floatReg() bool { return o == oF || o == oFw }

// opSig is an opcode's operand signature; sigOperands spells it out field by
// field. The ALU signatures name the row's function type.
type opSig uint8

const (
	sigBad    opSig = iota // no opcode
	sigBare                // no operands: nop, barrier, ret
	sigJmp                 // @A
	sigBr                  // rB, @A
	sigLDI                 // rA = IImm
	sigLDF                 // fA = FImm
	sigII                  // rA = fn(rB): func(int64) int64
	sigFF                  // fA = fn(fB): func(float64) float64
	sigFI                  // fA = fn(rB): func(int64) float64
	sigIF                  // rA = fn(fB): func(float64) int64
	sigIII                 // rA = fn(rB, rC): func(x, y int64) int64
	sigFFF                 // fA = fn(fB, fC): func(x, y float64) float64
	sigIFF                 // rA = fn(fB, fC): func(x, y float64) int64
	sigDim                 // rA = fn(launch, group, rB) [+ local id]: dimFn
	sigWDim                // rA = fn(launch, group, 0): dimFn
	sigLoadF               // fA = word rC of memory B
	sigLoadI               // rA = word rC of memory B
	sigStoreF              // word rC of memory B = fA
	sigStoreI              // word rC of memory B = rA
)

var sigOperands = [...][3]opnd{
	sigJmp:    {oPC},
	sigBr:     {oPC, oI},
	sigLDI:    {oIw, oImm},
	sigLDF:    {oFw, oImm},
	sigII:     {oIw, oI},
	sigFF:     {oFw, oF},
	sigFI:     {oFw, oI},
	sigIF:     {oIw, oF},
	sigIII:    {oIw, oI, oI},
	sigFFF:    {oFw, oF, oF},
	sigIFF:    {oIw, oF, oF},
	sigDim:    {oIw, oDim},
	sigWDim:   {oIw},
	sigLoadF:  {oFw, oSlot, oIdx},
	sigLoadI:  {oIw, oSlot, oIdx},
	sigStoreF: {oF, oSlot, oIdx},
	sigStoreI: {oI, oSlot, oIdx},
}

// opClass is the Stats counter an op books once per work-item that runs it.
type opClass uint8

const (
	clsNone opClass = iota
	clsInt
	clsFloat
	clsSpecial
)

// opCounts counts a run of instructions by class.
type opCounts [clsSpecial + 1]int64

// bookOps adds n executions of the run ops counts to s.
func (s *Stats) bookOps(ops *opCounts, n int64) {
	s.IntOps += ops[clsInt] * n
	s.FloatOps += ops[clsFloat] * n
	s.SpecialOps += ops[clsSpecial] * n
}

// dimFn is a work-item builtin. In dimension d its value is the same for
// every work-item of the group but for the local id: dimFn returns that
// common part v, read from the launch nd and the group grp, and whether the
// work-item's local id in dimension d (then in range) adds to it.
type dimFn = func(nd *NDRange, grp *[3]int, d int64) (v int64, lid bool)

// opRow is one opcode's row of opTab.
type opRow struct {
	name  string
	sig   opSig
	class opClass
	fn    any    // an ALU op's per-lane function, of the type its sig names
	trap  string // on a sigIII row: the error a zero C operand raises
}

// opTab is indexed by Op; a byte has no opcode beyond opRET, whose rows are
// zero (sigBad).
var opTab = [256]opRow{
	opNop:  {"nop", sigBare, clsNone, nil, ""},
	opLDI:  {"ldi", sigLDI, clsNone, nil, ""},
	opLDF:  {"ldf", sigLDF, clsNone, nil, ""},
	opIMOV: {"imov", sigII, clsNone, func(x int64) int64 { return x }, ""},
	opFMOV: {"fmov", sigFF, clsNone, func(x float64) float64 { return x }, ""},
	opIADD: {"iadd", sigIII, clsInt, func(x, y int64) int64 { return x + y }, ""},
	opISUB: {"isub", sigIII, clsInt, func(x, y int64) int64 { return x - y }, ""},
	opIMUL: {"imul", sigIII, clsInt, func(x, y int64) int64 { return x * y }, ""},
	opIDIV: {"idiv", sigIII, clsInt, func(x, y int64) int64 { return x / y }, "integer division by zero"},
	opIMOD: {"imod", sigIII, clsInt, func(x, y int64) int64 { return x % y }, "integer modulo by zero"},
	opINEG: {"ineg", sigII, clsInt, func(x int64) int64 { return -x }, ""},
	opFADD: {"fadd", sigFFF, clsFloat, func(x, y float64) float64 { return float64(float32(x) + float32(y)) }, ""},
	opFSUB: {"fsub", sigFFF, clsFloat, func(x, y float64) float64 { return float64(float32(x) - float32(y)) }, ""},
	opFMUL: {"fmul", sigFFF, clsFloat, func(x, y float64) float64 { return float64(float32(x) * float32(y)) }, ""},
	opFDIV: {"fdiv", sigFFF, clsFloat, func(x, y float64) float64 { return float64(float32(x) / float32(y)) }, ""},
	opFNEG: {"fneg", sigFF, clsFloat, func(x float64) float64 { return -x }, ""},
	opI2F:  {"i2f", sigFI, clsInt, func(x int64) float64 { return float64(float32(x)) }, ""},
	opF2I:  {"f2i", sigIF, clsInt, clc.FloatToInt, ""},
	opILT:  {"ilt", sigIII, clsInt, func(x, y int64) int64 { return b2i(x < y) }, ""},
	opILE:  {"ile", sigIII, clsInt, func(x, y int64) int64 { return b2i(x <= y) }, ""},
	opIGT:  {"igt", sigIII, clsInt, func(x, y int64) int64 { return b2i(x > y) }, ""},
	opIGE:  {"ige", sigIII, clsInt, func(x, y int64) int64 { return b2i(x >= y) }, ""},
	opIEQ:  {"ieq", sigIII, clsInt, func(x, y int64) int64 { return b2i(x == y) }, ""},
	opINE:  {"ine", sigIII, clsInt, func(x, y int64) int64 { return b2i(x != y) }, ""},
	opFLT:  {"flt", sigIFF, clsFloat, func(x, y float64) int64 { return b2i(x < y) }, ""},
	opFLE:  {"fle", sigIFF, clsFloat, func(x, y float64) int64 { return b2i(x <= y) }, ""},
	opFGT:  {"fgt", sigIFF, clsFloat, func(x, y float64) int64 { return b2i(x > y) }, ""},
	opFGE:  {"fge", sigIFF, clsFloat, func(x, y float64) int64 { return b2i(x >= y) }, ""},
	opFEQ:  {"feq", sigIFF, clsFloat, func(x, y float64) int64 { return b2i(x == y) }, ""},
	opFNE:  {"fne", sigIFF, clsFloat, func(x, y float64) int64 { return b2i(x != y) }, ""},
	opNOTB: {"notb", sigII, clsInt, func(x int64) int64 { return b2i(x == 0) }, ""},
	opJMP:  {"jmp", sigJmp, clsNone, nil, ""},
	opJZ:   {"jz", sigBr, clsNone, nil, ""},
	opJNZ:  {"jnz", sigBr, clsNone, nil, ""},
	opLDGF: {"ldgf", sigLoadF, clsNone, nil, ""},
	opSTGF: {"stgf", sigStoreF, clsNone, nil, ""},
	opLDGI: {"ldgi", sigLoadI, clsNone, nil, ""},
	opSTGI: {"stgi", sigStoreI, clsNone, nil, ""},
	opLDLF: {"ldlf", sigLoadF, clsNone, nil, ""},
	opSTLF: {"stlf", sigStoreF, clsNone, nil, ""},
	opLDLI: {"ldli", sigLoadI, clsNone, nil, ""},
	opSTLI: {"stli", sigStoreI, clsNone, nil, ""},
	opLDPF: {"ldpf", sigLoadF, clsNone, nil, ""},
	opSTPF: {"stpf", sigStoreF, clsNone, nil, ""},
	opLDPI: {"ldpi", sigLoadI, clsNone, nil, ""},
	opSTPI: {"stpi", sigStoreI, clsNone, nil, ""},
	opGID: {"gid", sigDim, clsInt, func(nd *NDRange, g *[3]int, d int64) (int64, bool) {
		return cdim(*g, d) * cdim(nd.LocalSize, d), inDim(d)
	}, ""},
	opLID: {"lid", sigDim, clsInt, func(_ *NDRange, _ *[3]int, d int64) (int64, bool) { return 0, inDim(d) }, ""},
	opGRP: {"grp", sigDim, clsInt, func(_ *NDRange, g *[3]int, d int64) (int64, bool) { return cdim(*g, d), false }, ""},
	opNGR: {"ngr", sigDim, clsInt, func(nd *NDRange, _ *[3]int, d int64) (int64, bool) { return dimOr1(nd.NumGroups, d), false }, ""},
	opLSZ: {"lsz", sigDim, clsInt, func(nd *NDRange, _ *[3]int, d int64) (int64, bool) { return dimOr1(nd.LocalSize, d), false }, ""},
	opGSZ: {"gsz", sigDim, clsInt, func(nd *NDRange, _ *[3]int, d int64) (int64, bool) {
		return dimOr1(nd.NumGroups, d) * dimOr1(nd.LocalSize, d), false
	}, ""},
	opWDIM:    {"wdim", sigWDim, clsNone, func(nd *NDRange, _ *[3]int, _ int64) (int64, bool) { return int64(nd.Dims), false }, ""},
	opBARRIER: {"barrier", sigBare, clsNone, nil, ""},
	opSQRT:    {"sqrt", sigFF, clsSpecial, func(x float64) float64 { return float64(float32(math.Sqrt(x))) }, ""},
	opFABS:    {"fabs", sigFF, clsSpecial, math.Abs, ""},
	opEXP:     {"exp", sigFF, clsSpecial, func(x float64) float64 { return float64(float32(math.Exp(x))) }, ""},
	opLOG:     {"log", sigFF, clsSpecial, func(x float64) float64 { return float64(float32(math.Log(x))) }, ""},
	opFLOOR:   {"floor", sigFF, clsSpecial, math.Floor, ""},
	opCEIL:    {"ceil", sigFF, clsSpecial, math.Ceil, ""},
	opPOW:     {"pow", sigFFF, clsSpecial, func(x, y float64) float64 { return float64(float32(math.Pow(x, y))) }, ""},
	opFMIN:    {"fmin", sigFFF, clsFloat, math.Min, ""},
	opFMAX:    {"fmax", sigFFF, clsFloat, math.Max, ""},
	opIMIN:    {"imin", sigIII, clsInt, func(x, y int64) int64 { return min(x, y) }, ""},
	opIMAX:    {"imax", sigIII, clsInt, func(x, y int64) int64 { return max(x, y) }, ""},
	opIABS:    {"iabs", sigII, clsInt, func(x int64) int64 { return max(x, -x) }, ""},
	opRET:     {"ret", sigBare, clsNone, nil, ""},
}

// inDim reports whether d names a dimension.
func inDim(d int64) bool { return d >= 0 && d <= 2 }

// dimOr1 reads dimension d of vals; out-of-range dimensions read 1.
func dimOr1(vals [3]int, d int64) int64 {
	if !inDim(d) {
		return 1
	}
	return int64(vals[d])
}
