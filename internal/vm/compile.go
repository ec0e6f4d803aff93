package vm

import (
	"fmt"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
)

// Compile lowers a type-checked kernel to bytecode. The kernel's AST must
// have been through clc.Check (directly or via clc.CheckKernel) so that
// expression types and implicit casts are present.
//
// Compilation folds constants (clc.Fold) on a private clone of the AST, so
// the caller's tree is never mutated — which also lets differential tests
// run the unfolded AST through the reference interpreter and compare.
func Compile(ki *clc.KernelInfo) (*Kernel, error) {
	folded := clc.CloneKernel(ki.Kernel)
	clc.Fold(folded)
	c := &compiler{
		k: &Kernel{
			Name:       ki.Kernel.Name,
			HasBarrier: ki.HasBarrier,
			Info:       ki,
		},
		scope: &cscope{vars: map[string]binding{}},
	}
	for i, p := range folded.Params {
		slot := ParamSlot{Name: p.Name}
		if p.Ty.Ptr {
			if p.Ty.Kind == clc.Bool {
				return nil, fmt.Errorf("vm: bool buffers are not supported (param %q)", p.Name)
			}
			slot.Kind = ArgBuffer
			slot.Elem = p.Ty.Kind
			c.scope.vars[p.Name] = binding{kind: bindGlobal, slot: int32(i), elem: p.Ty.Kind}
		} else {
			switch p.Ty.Kind {
			case clc.Float:
				slot.Kind = ArgFloat
				slot.FReg = c.allocFrameF()
				c.scope.vars[p.Name] = binding{kind: bindFloatVar, reg: slot.FReg}
			default: // int, bool
				slot.Kind = ArgInt
				slot.IReg = c.allocFrameI()
				c.scope.vars[p.Name] = binding{kind: bindIntVar, reg: slot.IReg}
			}
		}
		c.k.Params = append(c.k.Params, slot)
	}
	if err := c.block(folded.Body, false); err != nil {
		return nil, err
	}
	c.emit(Instr{Op: opRET})
	c.finalize()
	c.k.sum = analysis.AnalyzeKernel(ki.Kernel, "")
	backendCtr.totalInstrs.Add(int64(len(c.k.Code)))
	c.k.buildWG()
	return c.k, nil
}

// MustCompile parses, checks and compiles a single-kernel source; it panics
// on error. For tests and embedded generated kernels.
func MustCompile(src, name string) *Kernel {
	ki, err := clc.FindKernelInfo(src, name)
	if err != nil {
		panic(err)
	}
	k, err := Compile(ki)
	if err != nil {
		panic(err)
	}
	return k
}

type bindKind int

const (
	bindIntVar bindKind = iota
	bindFloatVar
	bindGlobal
	bindLocalArr
	bindPrivArr
)

type binding struct {
	kind bindKind
	reg  int32 // for scalar vars
	slot int32 // param slot or array id
	elem clc.ScalarKind
}

type cscope struct {
	parent *cscope
	vars   map[string]binding
}

func (s *cscope) lookup(name string) (binding, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if b, ok := sc.vars[name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

type loopCtx struct {
	breakPatches    []int
	continuePatches []int
}

type compiler struct {
	k     *Kernel
	scope *cscope

	frameI, frameF int32 // persistent registers (params + declared vars)
	tempI, tempF   int32 // live temps (encoded negative until finalize)
	maxTempI       int32
	maxTempF       int32

	loops []*loopCtx
}

func (c *compiler) allocFrameI() int32 { r := c.frameI; c.frameI++; return r }
func (c *compiler) allocFrameF() int32 { r := c.frameF; c.frameF++; return r }

// Temps are encoded as negative register numbers (-1-idx) and remapped after
// the frame size is known.
func (c *compiler) allocTempI() int32 {
	c.tempI++
	if c.tempI > c.maxTempI {
		c.maxTempI = c.tempI
	}
	return -c.tempI
}

func (c *compiler) allocTempF() int32 {
	c.tempF++
	if c.tempF > c.maxTempF {
		c.maxTempF = c.tempF
	}
	return -c.tempF
}

func (c *compiler) freeTempI(r int32) {
	if r < 0 {
		if -r != c.tempI {
			panic("vm: non-LIFO int temp free")
		}
		c.tempI--
	}
}

func (c *compiler) freeTempF(r int32) {
	if r < 0 {
		if -r != c.tempF {
			panic("vm: non-LIFO float temp free")
		}
		c.tempF--
	}
}

func (c *compiler) emit(in Instr) int {
	c.k.Code = append(c.k.Code, in)
	return len(c.k.Code) - 1
}

func (c *compiler) here() int32 { return int32(len(c.k.Code)) }

func (c *compiler) patch(at int, target int32) { c.k.Code[at].A = target }

// finalize remaps negative temp registers to the top of the frame.
func (c *compiler) finalize() {
	mapI := func(r int32) int32 {
		if r < 0 {
			return c.frameI + (-r - 1)
		}
		return r
	}
	mapF := func(r int32) int32 {
		if r < 0 {
			return c.frameF + (-r - 1)
		}
		return r
	}
	for i := range c.k.Code {
		in := &c.k.Code[i]
		switch in.Op {
		case opLDI, opIMOV, opIADD, opISUB, opIMUL, opIDIV, opIMOD, opINEG,
			opILT, opILE, opIGT, opIGE, opIEQ, opINE, opNOTB,
			opGID, opLID, opGRP, opNGR, opLSZ, opGSZ, opGOFF, opWDIM,
			opIMIN, opIMAX, opIABS:
			in.A = mapI(in.A)
			in.B = mapI(in.B)
			in.C = mapI(in.C)
		case opLDF, opFMOV, opFADD, opFSUB, opFMUL, opFDIV, opFNEG,
			opSQRT, opFABS, opEXP, opLOG, opFLOOR, opCEIL, opPOW, opFMIN, opFMAX:
			in.A = mapF(in.A)
			in.B = mapF(in.B)
			in.C = mapF(in.C)
		case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE:
			in.A = mapI(in.A)
			in.B = mapF(in.B)
			in.C = mapF(in.C)
		case opI2F:
			in.A = mapF(in.A)
			in.B = mapI(in.B)
		case opF2I:
			in.A = mapI(in.A)
			in.B = mapF(in.B)
		case opJZ, opJNZ:
			in.B = mapI(in.B)
		case opLDGF, opLDLF, opLDPF:
			in.A = mapF(in.A)
			in.C = mapI(in.C)
		case opSTGF, opSTLF, opSTPF:
			in.A = mapF(in.A)
			in.C = mapI(in.C)
		case opLDGI, opLDLI, opLDPI, opSTGI, opSTLI, opSTPI:
			in.A = mapI(in.A)
			in.C = mapI(in.C)
		}
	}
	c.k.NumI = int(c.frameI + c.maxTempI)
	c.k.NumF = int(c.frameF + c.maxTempF)
}

func (c *compiler) pushScope() { c.scope = &cscope{parent: c.scope, vars: map[string]binding{}} }
func (c *compiler) popScope()  { c.scope = c.scope.parent }

// ---- statements ----

func (c *compiler) block(b *clc.Block, newScope bool) error {
	if newScope {
		c.pushScope()
		defer c.popScope()
	}
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s clc.Stmt) error {
	switch s := s.(type) {
	case *clc.Block:
		return c.block(s, true)
	case *clc.DeclStmt:
		return c.decl(s)
	case *clc.AssignStmt:
		return c.assign(s)
	case *clc.ExprStmt:
		return c.exprStmt(s)
	case *clc.IfStmt:
		return c.ifStmt(s)
	case *clc.ForStmt:
		return c.forStmt(s)
	case *clc.WhileStmt:
		return c.whileStmt(s)
	case *clc.ReturnStmt:
		c.emit(Instr{Op: opRET})
		return nil
	case *clc.BreakStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("vm: break outside loop")
		}
		l := c.loops[len(c.loops)-1]
		l.breakPatches = append(l.breakPatches, c.emit(Instr{Op: opJMP}))
		return nil
	case *clc.ContinueStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("vm: continue outside loop")
		}
		l := c.loops[len(c.loops)-1]
		l.continuePatches = append(l.continuePatches, c.emit(Instr{Op: opJMP}))
		return nil
	}
	return fmt.Errorf("vm: cannot compile statement %T", s)
}

func (c *compiler) decl(d *clc.DeclStmt) error {
	if d.ArrayLen != nil {
		n, ok := clc.ConstEval(d.ArrayLen)
		if !ok {
			return fmt.Errorf("vm: array %q length not constant", d.Name)
		}
		if d.Elem == clc.Bool {
			return fmt.Errorf("vm: bool arrays are not supported (%q)", d.Name)
		}
		info := ArrayInfo{Name: d.Name, Elem: d.Elem, Len: int(n)}
		if d.Space == clc.SpaceLocal {
			id := int32(len(c.k.LocalArrs))
			c.k.LocalArrs = append(c.k.LocalArrs, info)
			c.scope.vars[d.Name] = binding{kind: bindLocalArr, slot: id, elem: d.Elem}
		} else {
			id := int32(len(c.k.PrivArrs))
			c.k.PrivArrs = append(c.k.PrivArrs, info)
			c.scope.vars[d.Name] = binding{kind: bindPrivArr, slot: id, elem: d.Elem}
		}
		return nil
	}
	switch d.Elem {
	case clc.Float:
		reg := c.allocFrameF()
		c.scope.vars[d.Name] = binding{kind: bindFloatVar, reg: reg}
		if d.Init != nil {
			r, err := c.exprF(d.Init)
			if err != nil {
				return err
			}
			c.emit(Instr{Op: opFMOV, A: reg, B: r})
			c.freeTempF(r)
		}
	default: // int, bool
		reg := c.allocFrameI()
		c.scope.vars[d.Name] = binding{kind: bindIntVar, reg: reg}
		if d.Init != nil {
			r, err := c.exprI(d.Init)
			if err != nil {
				return err
			}
			c.emit(Instr{Op: opIMOV, A: reg, B: r})
			c.freeTempI(r)
		}
	}
	return nil
}

func compoundOp(op clc.Kind, isFloat bool) Op {
	switch op {
	case clc.PLUSEQ:
		if isFloat {
			return opFADD
		}
		return opIADD
	case clc.MINUSEQ:
		if isFloat {
			return opFSUB
		}
		return opISUB
	case clc.STAREQ:
		if isFloat {
			return opFMUL
		}
		return opIMUL
	case clc.SLASHEQ:
		if isFloat {
			return opFDIV
		}
		return opIDIV
	}
	return opNop
}

func (c *compiler) assign(a *clc.AssignStmt) error {
	switch lhs := a.LHS.(type) {
	case *clc.Ident:
		b, ok := c.scope.lookup(lhs.Name)
		if !ok {
			return fmt.Errorf("vm: undefined %q", lhs.Name)
		}
		switch b.kind {
		case bindFloatVar:
			r, err := c.exprF(a.RHS)
			if err != nil {
				return err
			}
			if a.Op == clc.ASSIGN {
				c.emit(Instr{Op: opFMOV, A: b.reg, B: r})
			} else {
				c.emit(Instr{Op: compoundOp(a.Op, true), A: b.reg, B: b.reg, C: r})
			}
			c.freeTempF(r)
		case bindIntVar:
			r, err := c.exprI(a.RHS)
			if err != nil {
				return err
			}
			if a.Op == clc.ASSIGN {
				c.emit(Instr{Op: opIMOV, A: b.reg, B: r})
			} else {
				c.emit(Instr{Op: compoundOp(a.Op, false), A: b.reg, B: b.reg, C: r})
			}
			c.freeTempI(r)
		default:
			return fmt.Errorf("vm: cannot assign to %q", lhs.Name)
		}
		return nil
	case *clc.IndexExpr:
		bind, ok := c.scope.lookup(lhs.Base.Name)
		if !ok {
			return fmt.Errorf("vm: undefined %q", lhs.Base.Name)
		}
		idx, err := c.exprI(lhs.Idx)
		if err != nil {
			return err
		}
		isFloat := bind.elem == clc.Float
		memID := c.newMemID(bind)
		if a.Op == clc.ASSIGN {
			if isFloat {
				r, err := c.exprF(a.RHS)
				if err != nil {
					return err
				}
				c.emit(Instr{Op: storeOp(bind.kind, true), A: r, B: bind.slot, C: idx, D: memID})
				c.freeTempF(r)
			} else {
				r, err := c.exprI(a.RHS)
				if err != nil {
					return err
				}
				c.emit(Instr{Op: storeOp(bind.kind, false), A: r, B: bind.slot, C: idx, D: memID})
				c.freeTempI(r)
			}
			c.freeTempI(idx)
			return nil
		}
		// Compound: load, op, store (index computed once).
		loadID := c.newMemID(bind)
		if isFloat {
			cur := c.allocTempF()
			c.emit(Instr{Op: loadOp(bind.kind, true), A: cur, B: bind.slot, C: idx, D: loadID})
			r, err := c.exprF(a.RHS)
			if err != nil {
				return err
			}
			c.emit(Instr{Op: compoundOp(a.Op, true), A: cur, B: cur, C: r})
			c.freeTempF(r)
			c.emit(Instr{Op: storeOp(bind.kind, true), A: cur, B: bind.slot, C: idx, D: memID})
			c.freeTempF(cur)
		} else {
			cur := c.allocTempI()
			c.emit(Instr{Op: loadOp(bind.kind, false), A: cur, B: bind.slot, C: idx, D: loadID})
			r, err := c.exprI(a.RHS)
			if err != nil {
				return err
			}
			c.emit(Instr{Op: compoundOp(a.Op, false), A: cur, B: cur, C: r})
			c.freeTempI(r)
			c.emit(Instr{Op: storeOp(bind.kind, false), A: cur, B: bind.slot, C: idx, D: memID})
			c.freeTempI(cur)
		}
		c.freeTempI(idx)
		return nil
	}
	return fmt.Errorf("vm: bad assignment target %T", a.LHS)
}

func (c *compiler) newMemID(b binding) int32 {
	if b.kind != bindGlobal {
		return -1
	}
	id := int32(c.k.NumMemOps)
	c.k.NumMemOps++
	return id
}

func loadOp(k bindKind, isFloat bool) Op {
	switch k {
	case bindGlobal:
		if isFloat {
			return opLDGF
		}
		return opLDGI
	case bindLocalArr:
		if isFloat {
			return opLDLF
		}
		return opLDLI
	default:
		if isFloat {
			return opLDPF
		}
		return opLDPI
	}
}

func storeOp(k bindKind, isFloat bool) Op {
	switch k {
	case bindGlobal:
		if isFloat {
			return opSTGF
		}
		return opSTGI
	case bindLocalArr:
		if isFloat {
			return opSTLF
		}
		return opSTLI
	default:
		if isFloat {
			return opSTPF
		}
		return opSTPI
	}
}

func (c *compiler) exprStmt(s *clc.ExprStmt) error {
	// Only calls are meaningful as statements.
	if call, ok := s.X.(*clc.CallExpr); ok && call.Name == "barrier" {
		c.emit(Instr{Op: opBARRIER})
		return nil
	}
	t := s.X.Type()
	if t.Kind == clc.Float {
		r, err := c.exprF(s.X)
		if err != nil {
			return err
		}
		c.freeTempF(r)
		return nil
	}
	r, err := c.exprI(s.X)
	if err != nil {
		return err
	}
	c.freeTempI(r)
	return nil
}

func (c *compiler) ifStmt(s *clc.IfStmt) error {
	cond, err := c.cond(s.Cond)
	if err != nil {
		return err
	}
	jz := c.emit(Instr{Op: opJZ, B: cond})
	c.freeTempI(cond)
	if err := c.block(s.Then, true); err != nil {
		return err
	}
	if s.Else == nil {
		c.patch(jz, c.here())
		return nil
	}
	jmp := c.emit(Instr{Op: opJMP})
	c.patch(jz, c.here())
	if err := c.stmt(s.Else); err != nil {
		return err
	}
	c.patch(jmp, c.here())
	return nil
}

func (c *compiler) forStmt(s *clc.ForStmt) error {
	c.pushScope()
	defer c.popScope()
	if s.Init != nil {
		if err := c.stmt(s.Init); err != nil {
			return err
		}
	}
	condAt := c.here()
	var jz int = -1
	if s.Cond != nil {
		cond, err := c.cond(s.Cond)
		if err != nil {
			return err
		}
		jz = c.emit(Instr{Op: opJZ, B: cond})
		c.freeTempI(cond)
	}
	l := &loopCtx{}
	c.loops = append(c.loops, l)
	if err := c.block(s.Body, true); err != nil {
		return err
	}
	c.loops = c.loops[:len(c.loops)-1]
	postAt := c.here()
	for _, at := range l.continuePatches {
		c.patch(at, postAt)
	}
	if s.Post != nil {
		if err := c.stmt(s.Post); err != nil {
			return err
		}
	}
	c.emit(Instr{Op: opJMP, A: condAt})
	end := c.here()
	if jz >= 0 {
		c.patch(jz, end)
	}
	for _, at := range l.breakPatches {
		c.patch(at, end)
	}
	return nil
}

func (c *compiler) whileStmt(s *clc.WhileStmt) error {
	condAt := c.here()
	cond, err := c.cond(s.Cond)
	if err != nil {
		return err
	}
	jz := c.emit(Instr{Op: opJZ, B: cond})
	c.freeTempI(cond)
	l := &loopCtx{}
	c.loops = append(c.loops, l)
	if err := c.block(s.Body, true); err != nil {
		return err
	}
	c.loops = c.loops[:len(c.loops)-1]
	for _, at := range l.continuePatches {
		c.patch(at, condAt)
	}
	c.emit(Instr{Op: opJMP, A: condAt})
	end := c.here()
	c.patch(jz, end)
	for _, at := range l.breakPatches {
		c.patch(at, end)
	}
	return nil
}

// ---- expressions ----

// cond compiles a condition into an int register (0 = false).
func (c *compiler) cond(e clc.Expr) (int32, error) {
	if e.Type().Kind == clc.Float {
		r, err := c.exprF(e)
		if err != nil {
			return 0, err
		}
		zero := c.allocTempF()
		c.emit(Instr{Op: opLDF, A: zero, FImm: 0})
		res := c.allocTempI()
		c.emit(Instr{Op: opFNE, A: res, B: r, C: zero})
		// free in LIFO order: res stays live; zero and r are float temps
		c.freeTempF(zero)
		c.freeTempF(r)
		return res, nil
	}
	return c.exprI(e)
}

// exprI compiles an int- or bool-typed expression into an int register.
func (c *compiler) exprI(e clc.Expr) (int32, error) {
	switch e := e.(type) {
	case *clc.IntLit:
		r := c.allocTempI()
		c.emit(Instr{Op: opLDI, A: r, IImm: e.Val})
		return r, nil
	case *clc.BoolLit:
		r := c.allocTempI()
		v := int64(0)
		if e.Val {
			v = 1
		}
		c.emit(Instr{Op: opLDI, A: r, IImm: v})
		return r, nil
	case *clc.Ident:
		if v, ok := builtinConstVal(e.Name); ok {
			r := c.allocTempI()
			c.emit(Instr{Op: opLDI, A: r, IImm: v})
			return r, nil
		}
		b, ok := c.scope.lookup(e.Name)
		if !ok {
			return 0, fmt.Errorf("vm: undefined %q", e.Name)
		}
		if b.kind != bindIntVar {
			return 0, fmt.Errorf("vm: %q is not an int variable", e.Name)
		}
		r := c.allocTempI()
		c.emit(Instr{Op: opIMOV, A: r, B: b.reg})
		return r, nil
	case *clc.UnaryExpr:
		switch e.Op {
		case clc.MINUS:
			r, err := c.exprI(e.X)
			if err != nil {
				return 0, err
			}
			c.emit(Instr{Op: opINEG, A: r, B: r})
			return r, nil
		case clc.NOT:
			r, err := c.cond(e.X)
			if err != nil {
				return 0, err
			}
			c.emit(Instr{Op: opNOTB, A: r, B: r})
			return r, nil
		}
	case *clc.BinaryExpr:
		return c.binaryI(e)
	case *clc.CondExpr:
		return c.ternaryI(e)
	case *clc.CallExpr:
		return c.callI(e)
	case *clc.IndexExpr:
		b, ok := c.scope.lookup(e.Base.Name)
		if !ok {
			return 0, fmt.Errorf("vm: undefined %q", e.Base.Name)
		}
		idx, err := c.exprI(e.Idx)
		if err != nil {
			return 0, err
		}
		c.freeTempI(idx)
		// r may reuse idx's slot; safe because the interpreter reads the
		// index register before writing the destination.
		r := c.allocTempI()
		c.emit(Instr{Op: loadOp(b.kind, false), A: r, B: b.slot, C: idx, D: c.newMemID(b)})
		return r, nil
	case *clc.CastExpr:
		switch e.To.Kind {
		case clc.Int:
			switch e.X.Type().Kind {
			case clc.Float:
				rf, err := c.exprF(e.X)
				if err != nil {
					return 0, err
				}
				c.freeTempF(rf)
				r := c.allocTempI()
				c.emit(Instr{Op: opF2I, A: r, B: rf})
				return r, nil
			default: // int/bool: identity
				return c.exprI(e.X)
			}
		case clc.Bool:
			switch e.X.Type().Kind {
			case clc.Float:
				return c.cond(e.X)
			default:
				// normalize to 0/1
				r, err := c.exprI(e.X)
				if err != nil {
					return 0, err
				}
				z := c.allocTempI()
				c.emit(Instr{Op: opLDI, A: z, IImm: 0})
				c.emit(Instr{Op: opINE, A: r, B: r, C: z})
				c.freeTempI(z)
				return r, nil
			}
		}
	}
	return 0, fmt.Errorf("vm: cannot compile %T as int expression", e)
}

func builtinConstVal(name string) (int64, bool) {
	switch name {
	case "CLK_LOCAL_MEM_FENCE":
		return 1, true
	case "CLK_GLOBAL_MEM_FENCE":
		return 2, true
	}
	return 0, false
}

func intCmpOp(op clc.Kind) Op {
	switch op {
	case clc.LT:
		return opILT
	case clc.LEQ:
		return opILE
	case clc.GT:
		return opIGT
	case clc.GEQ:
		return opIGE
	case clc.EQ:
		return opIEQ
	case clc.NEQ:
		return opINE
	}
	return opNop
}

func floatCmpOp(op clc.Kind) Op {
	switch op {
	case clc.LT:
		return opFLT
	case clc.LEQ:
		return opFLE
	case clc.GT:
		return opFGT
	case clc.GEQ:
		return opFGE
	case clc.EQ:
		return opFEQ
	case clc.NEQ:
		return opFNE
	}
	return opNop
}

func (c *compiler) binaryI(e *clc.BinaryExpr) (int32, error) {
	switch e.Op {
	case clc.PLUS, clc.MINUS, clc.STAR, clc.SLASH, clc.PERCENT:
		rx, err := c.exprI(e.X)
		if err != nil {
			return 0, err
		}
		ry, err := c.exprI(e.Y)
		if err != nil {
			return 0, err
		}
		var op Op
		switch e.Op {
		case clc.PLUS:
			op = opIADD
		case clc.MINUS:
			op = opISUB
		case clc.STAR:
			op = opIMUL
		case clc.SLASH:
			op = opIDIV
		case clc.PERCENT:
			op = opIMOD
		}
		c.emit(Instr{Op: op, A: rx, B: rx, C: ry})
		c.freeTempI(ry)
		return rx, nil
	case clc.EQ, clc.NEQ, clc.LT, clc.LEQ, clc.GT, clc.GEQ:
		// Operand types were unified by sema.
		if e.X.Type().Kind == clc.Float {
			rx, err := c.exprF(e.X)
			if err != nil {
				return 0, err
			}
			ry, err := c.exprF(e.Y)
			if err != nil {
				return 0, err
			}
			c.freeTempF(ry)
			c.freeTempF(rx)
			r := c.allocTempI()
			c.emit(Instr{Op: floatCmpOp(e.Op), A: r, B: rx, C: ry})
			return r, nil
		}
		rx, err := c.exprI(e.X)
		if err != nil {
			return 0, err
		}
		ry, err := c.exprI(e.Y)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: intCmpOp(e.Op), A: rx, B: rx, C: ry})
		c.freeTempI(ry)
		return rx, nil
	case clc.ANDAND:
		r, err := c.cond(e.X)
		if err != nil {
			return 0, err
		}
		jz := c.emit(Instr{Op: opJZ, B: r})
		ry, err := c.cond(e.Y)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: opIMOV, A: r, B: ry})
		c.freeTempI(ry)
		c.patch(jz, c.here())
		return r, nil
	case clc.OROR:
		r, err := c.cond(e.X)
		if err != nil {
			return 0, err
		}
		jnz := c.emit(Instr{Op: opJNZ, B: r})
		ry, err := c.cond(e.Y)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: opIMOV, A: r, B: ry})
		c.freeTempI(ry)
		c.patch(jnz, c.here())
		return r, nil
	}
	return 0, fmt.Errorf("vm: operator %s does not yield int", e.Op)
}

func (c *compiler) ternaryI(e *clc.CondExpr) (int32, error) {
	res := c.allocTempI()
	cond, err := c.cond(e.Cond)
	if err != nil {
		return 0, err
	}
	jz := c.emit(Instr{Op: opJZ, B: cond})
	c.freeTempI(cond)
	rt, err := c.exprI(e.Then)
	if err != nil {
		return 0, err
	}
	c.emit(Instr{Op: opIMOV, A: res, B: rt})
	c.freeTempI(rt)
	jmp := c.emit(Instr{Op: opJMP})
	c.patch(jz, c.here())
	re, err := c.exprI(e.Else)
	if err != nil {
		return 0, err
	}
	c.emit(Instr{Op: opIMOV, A: res, B: re})
	c.freeTempI(re)
	c.patch(jmp, c.here())
	return res, nil
}

func (c *compiler) callI(e *clc.CallExpr) (int32, error) {
	switch e.Name {
	case "get_global_id", "get_local_id", "get_group_id", "get_num_groups",
		"get_local_size", "get_global_size":
		var op Op
		switch e.Name {
		case "get_global_id":
			op = opGID
		case "get_local_id":
			op = opLID
		case "get_group_id":
			op = opGRP
		case "get_num_groups":
			op = opNGR
		case "get_local_size":
			op = opLSZ
		case "get_global_size":
			op = opGSZ
		}
		rd, err := c.exprI(e.Args[0])
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: op, A: rd, B: rd})
		return rd, nil
	case "get_global_offset":
		rd, err := c.exprI(e.Args[0])
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: opLDI, A: rd, IImm: 0})
		return rd, nil
	case "get_work_dim":
		r := c.allocTempI()
		c.emit(Instr{Op: opWDIM, A: r})
		return r, nil
	case "min", "max":
		rx, err := c.exprI(e.Args[0])
		if err != nil {
			return 0, err
		}
		ry, err := c.exprI(e.Args[1])
		if err != nil {
			return 0, err
		}
		op := opIMIN
		if e.Name == "max" {
			op = opIMAX
		}
		c.emit(Instr{Op: op, A: rx, B: rx, C: ry})
		c.freeTempI(ry)
		return rx, nil
	case "abs":
		rx, err := c.exprI(e.Args[0])
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: opIABS, A: rx, B: rx})
		return rx, nil
	}
	return 0, fmt.Errorf("vm: builtin %q does not yield int", e.Name)
}

// exprF compiles a float-typed expression into a float register.
func (c *compiler) exprF(e clc.Expr) (int32, error) {
	switch e := e.(type) {
	case *clc.FloatLit:
		r := c.allocTempF()
		c.emit(Instr{Op: opLDF, A: r, FImm: float64(float32(e.Val))})
		return r, nil
	case *clc.Ident:
		b, ok := c.scope.lookup(e.Name)
		if !ok {
			return 0, fmt.Errorf("vm: undefined %q", e.Name)
		}
		if b.kind != bindFloatVar {
			return 0, fmt.Errorf("vm: %q is not a float variable", e.Name)
		}
		r := c.allocTempF()
		c.emit(Instr{Op: opFMOV, A: r, B: b.reg})
		return r, nil
	case *clc.UnaryExpr:
		if e.Op == clc.MINUS {
			r, err := c.exprF(e.X)
			if err != nil {
				return 0, err
			}
			c.emit(Instr{Op: opFNEG, A: r, B: r})
			return r, nil
		}
	case *clc.BinaryExpr:
		var op Op
		switch e.Op {
		case clc.PLUS:
			op = opFADD
		case clc.MINUS:
			op = opFSUB
		case clc.STAR:
			op = opFMUL
		case clc.SLASH:
			op = opFDIV
		default:
			return 0, fmt.Errorf("vm: operator %s does not yield float", e.Op)
		}
		rx, err := c.exprF(e.X)
		if err != nil {
			return 0, err
		}
		ry, err := c.exprF(e.Y)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: op, A: rx, B: rx, C: ry})
		c.freeTempF(ry)
		return rx, nil
	case *clc.CondExpr:
		res := c.allocTempF()
		cond, err := c.cond(e.Cond)
		if err != nil {
			return 0, err
		}
		jz := c.emit(Instr{Op: opJZ, B: cond})
		c.freeTempI(cond)
		rt, err := c.exprF(e.Then)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: opFMOV, A: res, B: rt})
		c.freeTempF(rt)
		jmp := c.emit(Instr{Op: opJMP})
		c.patch(jz, c.here())
		re, err := c.exprF(e.Else)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: opFMOV, A: res, B: re})
		c.freeTempF(re)
		c.patch(jmp, c.here())
		return res, nil
	case *clc.CallExpr:
		return c.callF(e)
	case *clc.IndexExpr:
		b, ok := c.scope.lookup(e.Base.Name)
		if !ok {
			return 0, fmt.Errorf("vm: undefined %q", e.Base.Name)
		}
		idx, err := c.exprI(e.Idx)
		if err != nil {
			return 0, err
		}
		r := c.allocTempF()
		c.emit(Instr{Op: loadOp(b.kind, true), A: r, B: b.slot, C: idx, D: c.newMemID(b)})
		c.freeTempI(idx)
		return r, nil
	case *clc.CastExpr:
		if e.To.Kind == clc.Float {
			switch e.X.Type().Kind {
			case clc.Float:
				return c.exprF(e.X)
			default:
				ri, err := c.exprI(e.X)
				if err != nil {
					return 0, err
				}
				c.freeTempI(ri)
				r := c.allocTempF()
				c.emit(Instr{Op: opI2F, A: r, B: ri})
				return r, nil
			}
		}
	}
	return 0, fmt.Errorf("vm: cannot compile %T as float expression", e)
}

func (c *compiler) callF(e *clc.CallExpr) (int32, error) {
	var op Op
	switch e.Name {
	case "sqrt":
		op = opSQRT
	case "fabs":
		op = opFABS
	case "exp":
		op = opEXP
	case "log":
		op = opLOG
	case "floor":
		op = opFLOOR
	case "ceil":
		op = opCEIL
	case "pow", "fmin", "fmax":
		rx, err := c.exprF(e.Args[0])
		if err != nil {
			return 0, err
		}
		ry, err := c.exprF(e.Args[1])
		if err != nil {
			return 0, err
		}
		var op2 Op
		switch e.Name {
		case "pow":
			op2 = opPOW
		case "fmin":
			op2 = opFMIN
		case "fmax":
			op2 = opFMAX
		}
		c.emit(Instr{Op: op2, A: rx, B: rx, C: ry})
		c.freeTempF(ry)
		return rx, nil
	default:
		return 0, fmt.Errorf("vm: builtin %q does not yield float", e.Name)
	}
	rx, err := c.exprF(e.Args[0])
	if err != nil {
		return 0, err
	}
	c.emit(Instr{Op: op, A: rx, B: rx})
	return rx, nil
}
