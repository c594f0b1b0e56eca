package lang

import (
	"fmt"
	"strconv"
)

// Parser builds an AST from F-lite source text.
//
// The grammar is newline-sensitive: statements end at end of line (or ';').
// Two-word forms "end do", "end if" and "else if" are accepted alongside
// "enddo", "endif" and "elseif".
type Parser struct {
	lex *Lexer
	tok Token // current token
	nxt Token // one token of lookahead
	err error
}

// Parse parses a complete F-lite program.
func Parse(src string) (*Program, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	p.next()
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *Parser) next() {
	p.tok = p.nxt
	if p.err != nil {
		p.nxt = Token{Kind: EOF, Pos: p.nxt.Pos}
		return
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		t = Token{Kind: EOF, Pos: t.Pos}
	}
	p.nxt = t
}

func (p *Parser) errorf(pos Pos, format string, args ...any) error {
	return &SyntaxError{pos, fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.err != nil {
		return Token{}, p.err
	}
	if p.tok.Kind != k {
		return Token{}, p.errorf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.next()
	return t, nil
}

// eol consumes the end of a statement: NEWLINE, ';' or EOF.
func (p *Parser) eol() error {
	if p.err != nil {
		return p.err
	}
	switch p.tok.Kind {
	case NEWLINE, SEMI:
		p.next()
		return nil
	case EOF:
		return nil
	}
	return p.errorf(p.tok.Pos, "expected end of statement, found %s", p.tok)
}

func (p *Parser) skipNewlines() {
	for p.tok.Kind == NEWLINE || p.tok.Kind == SEMI {
		p.next()
	}
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	p.skipNewlines()
	for p.tok.Kind != EOF {
		u, err := p.parseUnit()
		if err != nil {
			return nil, err
		}
		if u.IsMain {
			if prog.Main != nil {
				return nil, p.errorf(u.NamePos, "duplicate program unit %q", u.Name)
			}
			prog.Main = u
		} else {
			prog.Subs = append(prog.Subs, u)
		}
		p.skipNewlines()
	}
	if p.err != nil {
		return nil, p.err
	}
	if prog.Main == nil && len(prog.Subs) == 0 {
		return nil, p.errorf(Pos{1, 1}, "empty source")
	}
	return prog, nil
}

func (p *Parser) parseUnit() (*Unit, error) {
	u := &Unit{NamePos: p.tok.Pos}
	switch p.tok.Kind {
	case PROGRAM:
		u.IsMain = true
	case SUBROUTINE:
	default:
		return nil, p.errorf(p.tok.Pos, "expected 'program' or 'subroutine', found %s", p.tok)
	}
	p.next()
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	u.Name = name.Text
	if err := p.eol(); err != nil {
		return nil, err
	}
	p.skipNewlines()

	// Declarations come first.
	for {
		switch p.tok.Kind {
		case INTEGER, REALKW, LOGICAL:
			ds, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			u.Decls = append(u.Decls, ds...)
		case PARAM:
			d, err := p.parseParamDecl()
			if err != nil {
				return nil, err
			}
			u.Params = append(u.Params, d)
		default:
			goto body
		}
		if err := p.eol(); err != nil {
			return nil, err
		}
		p.skipNewlines()
	}

body:
	stmts, err := p.parseStmts(endUnit)
	if err != nil {
		return nil, err
	}
	u.Body = stmts
	// parseStmts stopped at END (unit terminator).
	if _, err := p.expect(END); err != nil {
		return nil, err
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	return u, nil
}

func (p *Parser) parseVarDecl() ([]*VarDecl, error) {
	var typ BasicType
	switch p.tok.Kind {
	case INTEGER:
		typ = TInteger
	case REALKW:
		typ = TReal
	case LOGICAL:
		typ = TLogical
	}
	p.next()
	var decls []*VarDecl
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{NamePos: name.Pos, Name: name.Text, Type: typ}
		if p.tok.Kind == LPAREN {
			p.next()
			for {
				lo, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				var b DimBound
				if p.tok.Kind == COLON {
					p.next()
					hi, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					b = DimBound{Lo: lo, Hi: hi}
				} else {
					b = DimBound{Hi: lo}
				}
				d.Dims = append(d.Dims, b)
				if p.tok.Kind != COMMA {
					break
				}
				p.next()
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		}
		decls = append(decls, d)
		if p.tok.Kind != COMMA {
			break
		}
		p.next()
	}
	return decls, nil
}

func (p *Parser) parseParamDecl() (*ParamDecl, error) {
	p.next() // param
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ParamDecl{NamePos: name.Pos, Name: name.Text, Value: val}, nil
}

// stopSet tells parseStmts which tokens end a statement list.
type stopSet int

const (
	endUnit stopSet = iota // stop at "end" (not followed by do/if)
	endDo                  // stop at "enddo" / "end do"
	endIf                  // stop at "endif" / "end if" / "else" / "elseif"
)

// atStop reports whether the current token ends the active statement list.
// It must not consume input.
func (p *Parser) atStop(s stopSet) bool {
	switch s {
	case endUnit:
		return p.tok.Kind == END && p.nxt.Kind != DO && p.nxt.Kind != IF
	case endDo:
		return p.tok.Kind == ENDDO || (p.tok.Kind == END && p.nxt.Kind == DO)
	case endIf:
		switch p.tok.Kind {
		case ENDIF, ELSE, ELSEIF:
			return true
		case END:
			return p.nxt.Kind == IF
		}
	}
	return false
}

func (p *Parser) parseStmts(stop stopSet) ([]Stmt, error) {
	var stmts []Stmt
	p.skipNewlines()
	for {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.Kind == EOF {
			return nil, p.errorf(p.tok.Pos, "unexpected end of file in statement list")
		}
		if p.atStop(stop) {
			return stmts, nil
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		p.skipNewlines()
	}
}

// parseStmt parses one statement, including an optional numeric label and
// the end-of-statement terminator for simple statements. Block statements
// (do/if) consume their own internal newlines.
func (p *Parser) parseStmt() (Stmt, error) {
	label := 0
	if p.tok.Kind == INT {
		v, err := strconv.Atoi(p.tok.Text)
		if err != nil || v <= 0 {
			return nil, p.errorf(p.tok.Pos, "invalid statement label %q", p.tok.Text)
		}
		label = v
		p.next()
	}
	st, err := p.parseCoreStmt()
	if err != nil {
		return nil, err
	}
	if label != 0 {
		st.SetLabel(label)
	}
	return st, nil
}

func (p *Parser) parseCoreStmt() (Stmt, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case IDENT:
		return p.parseAssign()

	case IF:
		return p.parseIf()

	case DO:
		return p.parseDo()

	case CALL:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		st := &CallStmt{Name: name.Text}
		st.pos = pos
		return st, p.eol()

	case GOTO:
		p.next()
		t, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n <= 0 {
			return nil, p.errorf(t.Pos, "invalid goto target %q", t.Text)
		}
		st := &GotoStmt{Target: n}
		st.pos = pos
		return st, p.eol()

	case CONTINUE:
		p.next()
		st := &ContinueStmt{}
		st.pos = pos
		return st, p.eol()

	case RETURN:
		p.next()
		st := &ReturnStmt{}
		st.pos = pos
		return st, p.eol()

	case STOP:
		p.next()
		st := &StopStmt{}
		st.pos = pos
		return st, p.eol()

	case PRINT:
		p.next()
		st := &PrintStmt{}
		st.pos = pos
		// Accept Fortran's "print *," prefix.
		if p.tok.Kind == STAR {
			p.next()
			if p.tok.Kind == COMMA {
				p.next()
			}
		}
		for p.tok.Kind != NEWLINE && p.tok.Kind != SEMI && p.tok.Kind != EOF {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, e)
			if p.tok.Kind != COMMA {
				break
			}
			p.next()
		}
		return st, p.eol()
	}
	return nil, p.errorf(pos, "expected statement, found %s", p.tok)
}

func (p *Parser) parseAssign() (Stmt, error) {
	pos := p.tok.Pos
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch lhs.(type) {
	case *Ident, *ArrayRef:
	default:
		return nil, p.errorf(pos, "invalid assignment target")
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	st := &AssignStmt{Lhs: lhs, Rhs: rhs}
	st.pos = pos
	return st, p.eol()
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.tok.Pos
	p.next() // if
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

	st := &IfStmt{Cond: cond}
	st.pos = pos

	if p.tok.Kind != THEN {
		// One-line logical IF: "if (cond) stmt".
		body, err := p.parseCoreStmt()
		if err != nil {
			return nil, err
		}
		st.Then = []Stmt{body}
		return st, nil
	}
	p.next() // then
	if err := p.eol(); err != nil {
		return nil, err
	}
	st.Then, err = p.parseStmts(endIf)
	if err != nil {
		return nil, err
	}

	for {
		switch {
		case p.tok.Kind == ELSEIF, p.tok.Kind == ELSE && p.nxt.Kind == IF:
			armPos := p.tok.Pos
			if p.tok.Kind == ELSEIF {
				p.next()
			} else {
				p.next() // else
				p.next() // if
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			if _, err := p.expect(THEN); err != nil {
				return nil, err
			}
			if err := p.eol(); err != nil {
				return nil, err
			}
			body, err := p.parseStmts(endIf)
			if err != nil {
				return nil, err
			}
			st.Elifs = append(st.Elifs, ElifArm{Pos: armPos, Cond: c, Body: body})

		case p.tok.Kind == ELSE:
			p.next()
			if err := p.eol(); err != nil {
				return nil, err
			}
			st.Else, err = p.parseStmts(endIf)
			if err != nil {
				return nil, err
			}
			return st, p.consumeEndIf()

		default:
			return st, p.consumeEndIf()
		}
	}
}

func (p *Parser) consumeEndIf() error {
	switch p.tok.Kind {
	case ENDIF:
		p.next()
	case END:
		p.next()
		if _, err := p.expect(IF); err != nil {
			return err
		}
	default:
		return p.errorf(p.tok.Pos, "expected 'end if', found %s", p.tok)
	}
	return p.eol()
}

func (p *Parser) consumeEndDo() error {
	switch p.tok.Kind {
	case ENDDO:
		p.next()
	case END:
		p.next()
		if _, err := p.expect(DO); err != nil {
			return err
		}
	default:
		return p.errorf(p.tok.Pos, "expected 'end do', found %s", p.tok)
	}
	return p.eol()
}

func (p *Parser) parseDo() (Stmt, error) {
	pos := p.tok.Pos
	p.next() // do

	if p.tok.Kind == WHILE {
		p.next()
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
		if err := p.eol(); err != nil {
			return nil, err
		}
		body, err := p.parseStmts(endDo)
		if err != nil {
			return nil, err
		}
		st := &WhileStmt{Cond: cond, Body: body}
		st.pos = pos
		return st, p.consumeEndDo()
	}

	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	iv := &Ident{NamePos: name.Pos, Name: name.Text}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.tok.Kind == COMMA {
		p.next()
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts(endDo)
	if err != nil {
		return nil, err
	}
	st := &DoStmt{Var: iv, Lo: lo, Hi: hi, Step: step, Body: body}
	st.pos = pos
	return st, p.consumeEndDo()
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// parseExpr parses an expression: or-level.
func (p *Parser) parseExpr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == OR {
		p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: OpOr, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	x, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == AND {
		p.next()
		y, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: OpAnd, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.tok.Kind == NOT {
		pos := p.tok.Pos
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{OpPos: pos, Op: OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[Kind]Op{
	EQ: OpEq, NE: OpNe, LT: OpLt, LE: OpLe, GT: OpGt, GE: OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	x, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.tok.Kind]; ok {
		p.next()
		y, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, X: x, Y: y}, nil
	}
	return x, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	x, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == PLUS || p.tok.Kind == MINUS {
		op := OpAdd
		if p.tok.Kind == MINUS {
			op = OpSub
		}
		p.next()
		y, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == STAR || p.tok.Kind == SLASH {
		op := OpMul
		if p.tok.Kind == SLASH {
			op = OpDiv
		}
		p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.tok.Kind {
	case MINUS:
		pos := p.tok.Pos
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{OpPos: pos, Op: OpNeg, X: x}, nil
	case PLUS:
		p.next()
		return p.parseUnary()
	}
	return p.parsePower()
}

func (p *Parser) parsePower() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == POW {
		p.next()
		// ** is right-associative.
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpPow, X: x, Y: y}, nil
	}
	return x, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case INT:
		v, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf(pos, "invalid integer literal %q", p.tok.Text)
		}
		p.next()
		return &IntLit{ValuePos: pos, Value: v}, nil

	case REAL:
		v, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errorf(pos, "invalid real literal %q", p.tok.Text)
		}
		text := p.tok.Text
		p.next()
		return &RealLit{ValuePos: pos, Value: v, Text: text}, nil

	case TRUE:
		p.next()
		return &BoolLit{ValuePos: pos, Value: true}, nil

	case FALSE:
		p.next()
		return &BoolLit{ValuePos: pos, Value: false}, nil

	case STRING:
		s := p.tok.Text
		p.next()
		return &StrLit{ValuePos: pos, Value: s}, nil

	case IDENT:
		name := p.tok.Text
		p.next()
		if p.tok.Kind != LPAREN {
			return &Ident{NamePos: pos, Name: name}, nil
		}
		p.next()
		ref := &ArrayRef{NamePos: pos, Name: name}
		if p.tok.Kind == RPAREN { // zero-arg call is not allowed
			return nil, p.errorf(p.tok.Pos, "empty subscript list for %q", name)
		}
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ref.Args = append(ref.Args, arg)
			if p.tok.Kind != COMMA {
				break
			}
			p.next()
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return ref, nil

	case REALKW:
		// The type conversion intrinsic real(x); "real" is otherwise a
		// declaration keyword.
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &ArrayRef{NamePos: pos, Name: "real", Args: []Expr{arg}}, nil

	case LPAREN:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errorf(pos, "expected expression, found %s", p.tok)
}
