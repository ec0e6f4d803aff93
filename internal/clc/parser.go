package clc

import "strconv"

// Parser builds a Program AST from MiniCL source.
type Parser struct {
	toks []Token
	pos  int
	eof  Pos
}

// Parse parses a MiniCL translation unit.
func Parse(src string) (*Program, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	eof := Pos{Line: 1, Col: 1}
	if n := len(toks); n > 0 {
		eof = toks[n-1].Pos
	}
	p := &Parser{toks: toks, eof: eof}
	prog := &Program{}
	for !p.atEOF() {
		k, err := p.parseKernel()
		if err != nil {
			return nil, err
		}
		prog.Kernels = append(prog.Kernels, k)
	}
	if len(prog.Kernels) == 0 {
		return nil, errf(eof, "no kernels in translation unit")
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() Token {
	if p.atEOF() {
		return Token{Kind: EOF, Pos: p.eof}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return Token{Kind: EOF, Pos: p.eof}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *Parser) accept(k Kind) (Token, bool) {
	if p.cur().Kind == k {
		return p.next(), true
	}
	return Token{}, false
}

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	p.pos++
	return t, nil
}

func isTypeKw(k Kind) bool { return k == KwInt || k == KwFloat || k == KwBool }

func scalarOf(k Kind) ScalarKind {
	switch k {
	case KwInt:
		return Int
	case KwFloat:
		return Float
	case KwBool:
		return Bool
	}
	return Invalid
}

func isSpaceKw(k Kind) bool { return k == KwGlobal || k == KwLocal || k == KwPrivate }

func spaceOf(k Kind) AddrSpace {
	switch k {
	case KwGlobal:
		return SpaceGlobal
	case KwLocal:
		return SpaceLocal
	case KwPrivate:
		return SpacePrivate
	}
	return SpaceNone
}

func (p *Parser) parseKernel() (*Kernel, error) {
	kw, err := p.expect(KwKernel)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwVoid); err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	k := &Kernel{Pos: kw.Pos, Name: name.Text}
	if p.cur().Kind != RPAREN {
		for {
			par, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			k.Params = append(k.Params, par)
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	k.Body = body
	return k, nil
}

func (p *Parser) parseParam() (*Param, error) {
	start := p.cur().Pos
	space := SpaceNone
	// Accept any interleaving of `const` and one address-space qualifier.
	for {
		t := p.cur()
		if t.Kind == KwConst {
			p.next()
			continue
		}
		if isSpaceKw(t.Kind) {
			if space != SpaceNone {
				return nil, errf(t.Pos, "duplicate address-space qualifier")
			}
			space = spaceOf(t.Kind)
			p.next()
			continue
		}
		break
	}
	t := p.cur()
	if !isTypeKw(t.Kind) {
		return nil, errf(t.Pos, "expected parameter type, found %s %q", t.Kind, t.Text)
	}
	elem := scalarOf(t.Kind)
	p.next()
	p.accept(KwConst)
	ty := ScalarType(elem)
	if _, ok := p.accept(STAR); ok {
		if space == SpaceNone {
			// OpenCL defaults kernel pointer params to __global if
			// unqualified in many vendor dialects; be permissive.
			space = SpaceGlobal
		}
		ty = PointerType(elem, space)
	} else if space != SpaceNone {
		return nil, errf(t.Pos, "address-space qualifier on non-pointer parameter")
	}
	p.accept(KwConst)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	return &Param{Pos: start, Name: name.Text, Ty: ty}, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	blk := &Block{Pos: lb.Pos}
	for p.cur().Kind != RBRACE {
		if p.atEOF() {
			return nil, errf(p.eof, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.next() // RBRACE
	return blk, nil
}

// parseBody parses a statement-or-block and normalizes it to a *Block.
func (p *Parser) parseBody() (*Block, error) {
	if p.cur().Kind == LBRACE {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &Block{Pos: s.NodePos(), Stmts: []Stmt{s}}, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == LBRACE:
		return p.parseBlock()
	case t.Kind == KwIf:
		return p.parseIf()
	case t.Kind == KwFor:
		return p.parseFor()
	case t.Kind == KwWhile:
		return p.parseWhile()
	case t.Kind == KwReturn:
		p.next()
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: t.Pos}, nil
	case t.Kind == KwBreak:
		p.next()
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: t.Pos}, nil
	case t.Kind == KwContinue:
		p.next()
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: t.Pos}, nil
	case t.Kind == SEMI:
		p.next()
		return &Block{Pos: t.Pos}, nil // empty statement
	case isTypeKw(t.Kind) || isSpaceKw(t.Kind) || t.Kind == KwConst:
		s, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *Parser) parseDecl() (Stmt, error) {
	start := p.cur().Pos
	space := SpaceNone
	for {
		t := p.cur()
		if t.Kind == KwConst {
			p.next()
			continue
		}
		if isSpaceKw(t.Kind) {
			space = spaceOf(t.Kind)
			p.next()
			continue
		}
		break
	}
	t := p.cur()
	if !isTypeKw(t.Kind) {
		return nil, errf(t.Pos, "expected type in declaration, found %s", t.Kind)
	}
	elem := scalarOf(t.Kind)
	p.next()
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Pos: start, Name: name.Text, Elem: elem, Space: space}
	if _, ok := p.accept(LBRACKET); ok {
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.ArrayLen = n
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
		return d, nil
	}
	if _, ok := p.accept(ASSIGN); ok {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

// parseSimpleStmt parses assignments, increments/decrements (k++, ++k, k--,
// --k) and expression statements (without the trailing semicolon).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	start := p.cur().Pos
	var step Token // the ++ or -- of an increment or decrement
	prefix := p.cur().Kind == PLUSPLUS || p.cur().Kind == MINUSMINUS
	if prefix {
		step = p.next()
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !prefix {
		switch t := p.cur(); t.Kind {
		case ASSIGN, PLUSEQ, MINUSEQ, STAREQ, SLASHEQ:
			p.next()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := checkLValue(lhs); err != nil {
				return nil, err
			}
			return &AssignStmt{Pos: start, Op: t.Kind, LHS: lhs, RHS: rhs}, nil
		case PLUSPLUS, MINUSMINUS:
			step = p.next()
		default:
			return &ExprStmt{Pos: start, X: lhs}, nil
		}
	}
	if err := checkLValue(lhs); err != nil {
		return nil, err
	}
	// Desugar to k = k + 1 / k = k - 1. The right side gets its own copy of
	// k: sema and the passes rewrite nodes in place.
	op := PLUS
	if step.Kind == MINUSMINUS {
		op = MINUS
	}
	one := &IntLit{Val: 1}
	one.Pos = step.Pos
	rhs := &BinaryExpr{Op: op, X: CloneExpr(lhs), Y: one}
	rhs.Pos = step.Pos
	return &AssignStmt{Pos: start, Op: ASSIGN, LHS: lhs, RHS: rhs}, nil
}

func checkLValue(e Expr) error {
	switch e.(type) {
	case *Ident, *IndexExpr:
		return nil
	}
	return errf(e.NodePos(), "expression is not assignable")
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: t.Pos, Cond: cond, Then: then}
	if _, ok := p.accept(KwElse); ok {
		if p.cur().Kind == KwIf {
			e, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = e
		} else {
			e, err := p.parseBody()
			if err != nil {
				return nil, err
			}
			s.Else = e
		}
	}
	return s, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	s := &ForStmt{Pos: t.Pos}
	if p.cur().Kind != SEMI {
		var init Stmt
		var err error
		if isTypeKw(p.cur().Kind) {
			init, err = p.parseDecl()
		} else {
			init, err = p.parseSimpleStmt()
		}
		if err != nil {
			return nil, err
		}
		s.Init = init
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if p.cur().Kind != SEMI {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if p.cur().Kind != RPAREN {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: t.Pos, Cond: cond, Body: body}, nil
}

// ---- expressions (precedence climbing) ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if _, ok := p.accept(QUESTION); !ok {
		return cond, nil
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	e := &CondExpr{Cond: cond, Then: then, Else: els}
	e.Pos = cond.NodePos()
	return e, nil
}

func binPrec(k Kind) int {
	switch k {
	case OROR:
		return 1
	case ANDAND:
		return 2
	case EQ, NEQ:
		return 3
	case LT, LEQ, GT, GEQ:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH, PERCENT:
		return 6
	}
	return 0
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := binPrec(op)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		e := &BinaryExpr{Op: op, X: lhs, Y: rhs}
		e.Pos = lhs.NodePos()
		lhs = e
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case MINUS, NOT:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		e := &UnaryExpr{Op: t.Kind, X: x}
		e.Pos = t.Pos
		return e, nil
	case PLUS:
		p.next()
		return p.parseUnary()
	case LPAREN:
		// Cast: '(' type ')' unary.
		if isTypeKw(p.peekAt(1).Kind) && p.peekAt(2).Kind == RPAREN {
			p.next()
			ty := ScalarType(scalarOf(p.next().Kind))
			p.next() // RPAREN
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			e := &CastExpr{To: ty, X: x}
			e.Pos = t.Pos
			return e, nil
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad int literal %q", t.Text)
		}
		e := &IntLit{Val: v}
		e.Pos = t.Pos
		return e, nil
	case FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float literal %q", t.Text)
		}
		e := &FloatLit{Val: v}
		e.Pos = t.Pos
		return e, nil
	case KwTrue, KwFalse:
		p.next()
		e := &BoolLit{Val: t.Kind == KwTrue}
		e.Pos = t.Pos
		return e, nil
	case LPAREN:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		p.next()
		switch p.cur().Kind {
		case LPAREN:
			p.next()
			call := &CallExpr{Name: t.Text}
			call.Pos = t.Pos
			if p.cur().Kind != RPAREN {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if _, ok := p.accept(COMMA); !ok {
						break
					}
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return call, nil
		case LBRACKET:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
			base := &Ident{Name: t.Text}
			base.Pos = t.Pos
			e := &IndexExpr{Base: base, Idx: idx}
			e.Pos = t.Pos
			return e, nil
		default:
			e := &Ident{Name: t.Text}
			e.Pos = t.Pos
			return e, nil
		}
	}
	return nil, errf(t.Pos, "unexpected token %s %q in expression", t.Kind, t.Text)
}
