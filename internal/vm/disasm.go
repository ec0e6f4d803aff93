package vm

import (
	"fmt"
	"strings"
)

// opNames maps opcodes to mnemonics for the disassembler.
var opNames = map[Op]string{
	opNop: "nop", opLDI: "ldi", opLDF: "ldf", opIMOV: "imov", opFMOV: "fmov",
	opIADD: "iadd", opISUB: "isub", opIMUL: "imul", opIDIV: "idiv", opIMOD: "imod", opINEG: "ineg",
	opFADD: "fadd", opFSUB: "fsub", opFMUL: "fmul", opFDIV: "fdiv", opFNEG: "fneg",
	opI2F: "i2f", opF2I: "f2i",
	opILT: "ilt", opILE: "ile", opIGT: "igt", opIGE: "ige", opIEQ: "ieq", opINE: "ine",
	opFLT: "flt", opFLE: "fle", opFGT: "fgt", opFGE: "fge", opFEQ: "feq", opFNE: "fne",
	opNOTB: "notb", opJMP: "jmp", opJZ: "jz", opJNZ: "jnz",
	opLDGF: "ldgf", opSTGF: "stgf", opLDGI: "ldgi", opSTGI: "stgi",
	opLDLF: "ldlf", opSTLF: "stlf", opLDLI: "ldli", opSTLI: "stli",
	opLDPF: "ldpf", opSTPF: "stpf", opLDPI: "ldpi", opSTPI: "stpi",
	opGID: "gid", opLID: "lid", opGRP: "grp", opNGR: "ngr", opLSZ: "lsz", opGSZ: "gsz",
	opGOFF: "goff", opWDIM: "wdim", opBARRIER: "barrier",
	opSQRT: "sqrt", opFABS: "fabs", opEXP: "exp", opLOG: "log",
	opFLOOR: "floor", opCEIL: "ceil", opPOW: "pow", opFMIN: "fmin", opFMAX: "fmax",
	opIMIN: "imin", opIMAX: "imax", opIABS: "iabs", opRET: "ret",
}

// Disasm renders the compiled kernel's bytecode as readable assembly, one
// instruction per line. It is a debugging aid for the compiler and for
// inspecting what the transformation passes produced.
func (k *Kernel) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: %d instrs, %d iregs, %d fregs, %d params",
		k.Name, len(k.Code), k.NumI, k.NumF, len(k.Params))
	if k.HasBarrier {
		b.WriteString(", barriers")
	}
	b.WriteString("\n")
	for i, p := range k.Params {
		switch p.Kind {
		case ArgBuffer:
			fmt.Fprintf(&b, "  param %d: %s (%s buffer)\n", i, p.Name, p.Elem)
		case ArgFloat:
			fmt.Fprintf(&b, "  param %d: %s -> f%d\n", i, p.Name, p.FReg)
		default:
			fmt.Fprintf(&b, "  param %d: %s -> r%d\n", i, p.Name, p.IReg)
		}
	}
	for _, la := range k.LocalArrs {
		fmt.Fprintf(&b, "  local %s[%d] %s\n", la.Name, la.Len, la.Elem)
	}
	for _, pa := range k.PrivArrs {
		fmt.Fprintf(&b, "  private %s[%d] %s\n", pa.Name, pa.Len, pa.Elem)
	}
	// Whole-work-group compilation annotations: a marker line at every
	// barrier-region entry, a wg-loop suffix at every block the lockstep
	// engine dispatches as a single banked step sequence, and the fusion
	// pass's verdict on each non-empty block body (wg.fuse, or wg.nofuse
	// with the reason) and on the loop around each fused reduction body
	// (wg.loop-fuse with the skeleton size and the registers prechecked
	// uniform, or wg.loop-nofuse with the reason).
	wgLoopAt := map[int]FusedSpan{}
	wgFuseAt := map[int]FusedSpan{}
	wgNoFuseAt := map[int]FusedSpan{}
	wgLoopFuseAt := map[int]FusedSpan{}
	regionAt := map[int]int{}
	if k.wg != nil {
		for _, s := range k.wg.spans {
			wgLoopAt[s.Start] = s
		}
		for _, s := range k.wg.fused {
			wgFuseAt[s.Start] = s
		}
		for _, s := range k.wg.nofuse {
			wgNoFuseAt[s.Start] = s
		}
		for _, s := range k.wg.loops {
			wgLoopFuseAt[s.Start] = s
		}
		for ri := range k.wg.regions {
			regionAt[k.wg.regions[ri].entry] = ri
		}
	}
	for pc, in := range k.Code {
		if ri, ok := regionAt[pc]; ok {
			fmt.Fprintf(&b, "      ; -- wg region %d (%d mem accesses) --\n",
				ri, len(k.wg.regions[ri].accs))
		}
		line := disasmInstr(in)
		if s, ok := wgLoopAt[pc]; ok {
			line = fmt.Sprintf("%s  ; wg.loop (%d instrs)", line, s.Len)
		}
		if s, ok := wgFuseAt[pc]; ok {
			line = fmt.Sprintf("%s  ; wg.fuse (%d instrs)", line, s.Len)
		}
		if s, ok := wgNoFuseAt[pc]; ok {
			line = fmt.Sprintf("%s  ; wg.nofuse (%s)", line, s.Name)
		}
		if s, ok := wgLoopFuseAt[pc]; ok {
			line = fmt.Sprintf("%s  ; %s", line, s.Name)
		}
		fmt.Fprintf(&b, "%4d  %s\n", pc, line)
	}
	return b.String()
}

func disasmInstr(in Instr) string {
	name := opNames[in.Op]
	if name == "" {
		name = fmt.Sprintf("op%d", in.Op)
	}
	switch in.Op {
	case opNop, opRET, opBARRIER:
		return name
	case opLDI:
		return fmt.Sprintf("%-6s r%d, %d", name, in.A, in.IImm)
	case opLDF:
		return fmt.Sprintf("%-6s f%d, %g", name, in.A, in.FImm)
	case opIMOV, opINEG, opNOTB, opIABS:
		return fmt.Sprintf("%-6s r%d, r%d", name, in.A, in.B)
	case opFMOV, opFNEG, opSQRT, opFABS, opEXP, opLOG, opFLOOR, opCEIL:
		return fmt.Sprintf("%-6s f%d, f%d", name, in.A, in.B)
	case opIADD, opISUB, opIMUL, opIDIV, opIMOD,
		opILT, opILE, opIGT, opIGE, opIEQ, opINE, opIMIN, opIMAX:
		return fmt.Sprintf("%-6s r%d, r%d, r%d", name, in.A, in.B, in.C)
	case opFADD, opFSUB, opFMUL, opFDIV, opPOW, opFMIN, opFMAX:
		return fmt.Sprintf("%-6s f%d, f%d, f%d", name, in.A, in.B, in.C)
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE:
		return fmt.Sprintf("%-6s r%d, f%d, f%d", name, in.A, in.B, in.C)
	case opI2F:
		return fmt.Sprintf("%-6s f%d, r%d", name, in.A, in.B)
	case opF2I:
		return fmt.Sprintf("%-6s r%d, f%d", name, in.A, in.B)
	case opJMP:
		return fmt.Sprintf("%-6s @%d", name, in.A)
	case opJZ, opJNZ:
		return fmt.Sprintf("%-6s r%d, @%d", name, in.B, in.A)
	case opLDGF, opLDLF, opLDPF:
		return fmt.Sprintf("%-6s f%d, [%d + r%d]  ; mem#%d", name, in.A, in.B, in.C, in.D)
	case opLDGI, opLDLI, opLDPI:
		return fmt.Sprintf("%-6s r%d, [%d + r%d]  ; mem#%d", name, in.A, in.B, in.C, in.D)
	case opSTGF, opSTLF, opSTPF:
		return fmt.Sprintf("%-6s [%d + r%d], f%d  ; mem#%d", name, in.B, in.C, in.A, in.D)
	case opSTGI, opSTLI, opSTPI:
		return fmt.Sprintf("%-6s [%d + r%d], r%d  ; mem#%d", name, in.B, in.C, in.A, in.D)
	case opGID, opLID, opGRP, opNGR, opLSZ, opGSZ:
		return fmt.Sprintf("%-6s r%d, dim=r%d", name, in.A, in.B)
	case opGOFF, opWDIM:
		return fmt.Sprintf("%-6s r%d", name, in.A)
	}
	return fmt.Sprintf("%-6s a=%d b=%d c=%d", name, in.A, in.B, in.C)
}
