package vm

import (
	"fmt"
	"strings"
)

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
	notes, region := map[int][]string{}, map[int]string{}
	wg := k.wg
	for _, s := range wg.spans {
		notes[s.Start] = append(notes[s.Start], fmt.Sprintf("wg.loop (%d instrs)", s.Len))
	}
	for _, s := range wg.fused {
		notes[s.Start] = append(notes[s.Start], fmt.Sprintf("wg.fuse (%d instrs)", s.Len))
	}
	for _, s := range wg.nofuse {
		notes[s.Start] = append(notes[s.Start], fmt.Sprintf("wg.nofuse (%s)", s.Name))
	}
	for _, s := range wg.loops {
		notes[s.Start] = append(notes[s.Start], s.Name)
	}
	for ri, entry := range wg.regions {
		region[entry] = fmt.Sprintf("      ; -- wg region %d --\n", ri)
	}
	for pc, in := range k.Code {
		line := disasmInstr(in)
		for _, note := range notes[pc] {
			line += "  ; " + note
		}
		fmt.Fprintf(&b, "%s%4d  %s\n", region[pc], pc, line)
	}
	return b.String()
}

// disasmInstr formats one instruction by its opcode's signature: the
// operands in field order, except that a jump target, or a store's source,
// goes last.
func disasmInstr(in Instr) string {
	row := &opTab[in.Op]
	if row.sig == sigBad {
		return fmt.Sprintf("%-6s a=%d b=%d c=%d", fmt.Sprintf("op%d", in.Op), in.A, in.B, in.C)
	}
	sig := sigOperands[row.sig]
	var ops []string
	for f, r := range [3]int32{in.A, in.B, in.C} {
		switch o := sig[f]; {
		case o == oImm && sig[0] == oIw:
			ops = append(ops, fmt.Sprint(in.IImm))
		case o == oImm:
			ops = append(ops, fmt.Sprintf("%g", in.FImm))
		case o == oPC:
			ops = append(ops, fmt.Sprintf("@%d", r))
		case o == oDim:
			ops = append(ops, fmt.Sprintf("dim=r%d", r))
		case o == oSlot:
			ops = append(ops, fmt.Sprintf("[%d + r%d]", r, in.C))
		case o == oIdx: // printed with its slot
		case o.intReg():
			ops = append(ops, fmt.Sprintf("r%d", r))
		case o.floatReg():
			ops = append(ops, fmt.Sprintf("f%d", r))
		}
	}
	if len(ops) == 0 {
		return row.name
	}
	if a := sig[0]; a == oPC || a == oI || a == oF {
		ops = append(ops[1:], ops[0])
	}
	s := fmt.Sprintf("%-6s %s", row.name, strings.Join(ops, ", "))
	if sig[1] == oSlot {
		s += fmt.Sprintf("  ; mem#%d", in.D)
	}
	return s
}
