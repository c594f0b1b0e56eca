package lang

// WalkExpr calls f for every node in the expression tree rooted at e, in
// preorder. If f returns false for a node, its children are skipped.
func WalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e := e.(type) {
	case *ArrayRef:
		for _, a := range e.Args {
			WalkExpr(a, f)
		}
	case *Unary:
		WalkExpr(e.X, f)
	case *Binary:
		WalkExpr(e.X, f)
		WalkExpr(e.Y, f)
	}
}

// WalkStmts calls f on every statement in stmts and, recursively, in nested
// bodies, in source order. If f returns false for a statement, its nested
// bodies are skipped.
func WalkStmts(stmts []Stmt, f func(Stmt) bool) {
	for _, s := range stmts {
		walkStmt(s, f)
	}
}

func walkStmt(s Stmt, f func(Stmt) bool) {
	if !f(s) {
		return
	}
	switch s := s.(type) {
	case *IfStmt:
		WalkStmts(s.Then, f)
		for _, arm := range s.Elifs {
			WalkStmts(arm.Body, f)
		}
		WalkStmts(s.Else, f)
	case *DoStmt:
		WalkStmts(s.Body, f)
	case *WhileStmt:
		WalkStmts(s.Body, f)
	}
}

// NumberStmts numbers the statements of prog 1…n, once each, in WalkStmts
// order over prog.Units(), and returns n. It is the one writer of the
// numbers Stmt.ID reads, and sem.Check its one caller: a program is
// numbered when it is checked, so the fact contexts and control graphs
// built over a checked program, on any goroutine, only read them.
//
// NumberStmts also tells inList which statement list holds each
// statement: it numbers the lists that hold a statement 0… in the order
// it enters them and, right after it numbers a statement, calls
// inList(list, up) with the statement's list and the list enclosing that
// one, or -1 for a unit's body.
func NumberStmts(prog *Program, inList func(list, up int)) int {
	n, lists := 0, 0
	var number func(stmts []Stmt, up int)
	number = func(stmts []Stmt, up int) {
		if len(stmts) == 0 {
			return
		}
		list := lists
		lists++
		for _, s := range stmts {
			n++
			s.base().id = n
			inList(list, up)
			switch s := s.(type) {
			case *IfStmt:
				number(s.Then, list)
				for _, arm := range s.Elifs {
					number(arm.Body, list)
				}
				number(s.Else, list)
			case *DoStmt:
				number(s.Body, list)
			case *WhileStmt:
				number(s.Body, list)
			}
		}
	}
	for _, u := range prog.Units() {
		number(u.Body, -1)
	}
	return n
}

// StmtExprs calls f for every top-level expression appearing in s itself
// (not in nested statements): assignment sides, conditions, loop bounds and
// print arguments.
func StmtExprs(s Stmt, f func(Expr)) {
	switch s := s.(type) {
	case *AssignStmt:
		f(s.Lhs)
		f(s.Rhs)
	case *IfStmt:
		f(s.Cond)
		for i := range s.Elifs {
			f(s.Elifs[i].Cond)
		}
	case *DoStmt:
		f(s.Lo)
		f(s.Hi)
		if s.Step != nil {
			f(s.Step)
		}
	case *WhileStmt:
		f(s.Cond)
	case *PrintStmt:
		for _, a := range s.Args {
			f(a)
		}
	}
}

// MapExpr rewrites an expression bottom-up: children are rewritten first,
// then f is applied to the (possibly reconstructed) node. f must return a
// non-nil expression. Nodes are copied only when a child changed, so shared
// subtrees without rewrites stay shared.
func MapExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch ex := e.(type) {
	case *ArrayRef:
		changed := false
		args := ex.Args
		for i, a := range ex.Args {
			na := MapExpr(a, f)
			if na != a {
				if !changed {
					args = append([]Expr(nil), ex.Args...)
					changed = true
				}
				args[i] = na
			}
		}
		if changed {
			ne := *ex
			ne.Args = args
			return f(&ne)
		}
	case *Unary:
		if nx := MapExpr(ex.X, f); nx != ex.X {
			ne := *ex
			ne.X = nx
			return f(&ne)
		}
	case *Binary:
		nx, ny := MapExpr(ex.X, f), MapExpr(ex.Y, f)
		if nx != ex.X || ny != ex.Y {
			ne := *ex
			ne.X, ne.Y = nx, ny
			return f(&ne)
		}
	}
	return f(e)
}

// MapStmtExprs rewrites every top-level expression of s in place using
// MapExpr with f.
func MapStmtExprs(s Stmt, f func(Expr) Expr) {
	switch s := s.(type) {
	case *AssignStmt:
		s.Lhs = MapExpr(s.Lhs, f)
		s.Rhs = MapExpr(s.Rhs, f)
	case *IfStmt:
		s.Cond = MapExpr(s.Cond, f)
		for i := range s.Elifs {
			s.Elifs[i].Cond = MapExpr(s.Elifs[i].Cond, f)
		}
	case *DoStmt:
		s.Lo = MapExpr(s.Lo, f)
		s.Hi = MapExpr(s.Hi, f)
		if s.Step != nil {
			s.Step = MapExpr(s.Step, f)
		}
	case *WhileStmt:
		s.Cond = MapExpr(s.Cond, f)
	case *PrintStmt:
		for i := range s.Args {
			s.Args[i] = MapExpr(s.Args[i], f)
		}
	}
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *IntLit:
		c := *e
		return &c
	case *RealLit:
		c := *e
		return &c
	case *BoolLit:
		c := *e
		return &c
	case *StrLit:
		c := *e
		return &c
	case *Ident:
		c := *e
		return &c
	case *ArrayRef:
		c := *e
		c.Args = make([]Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = CloneExpr(a)
		}
		return &c
	case *Unary:
		c := *e
		c.X = CloneExpr(e.X)
		return &c
	case *Binary:
		c := *e
		c.X = CloneExpr(e.X)
		c.Y = CloneExpr(e.Y)
		return &c
	}
	return e
}

// CloneStmts returns a deep copy of a statement list.
func CloneStmts(stmts []Stmt) []Stmt {
	if stmts == nil {
		return nil
	}
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt returns a deep copy of one statement, including nested bodies.
// The copy keeps the statement's number until sem.Check numbers the
// program that holds it.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *AssignStmt:
		c := *s
		c.Lhs = CloneExpr(s.Lhs)
		c.Rhs = CloneExpr(s.Rhs)
		return &c
	case *IfStmt:
		c := *s
		c.Cond = CloneExpr(s.Cond)
		c.Then = CloneStmts(s.Then)
		c.Elifs = make([]ElifArm, len(s.Elifs))
		for i, arm := range s.Elifs {
			c.Elifs[i] = ElifArm{Pos: arm.Pos, Cond: CloneExpr(arm.Cond), Body: CloneStmts(arm.Body)}
		}
		c.Else = CloneStmts(s.Else)
		return &c
	case *DoStmt:
		c := *s
		c.Var = CloneExpr(s.Var).(*Ident)
		c.Lo = CloneExpr(s.Lo)
		c.Hi = CloneExpr(s.Hi)
		c.Step = CloneExpr(s.Step)
		c.Body = CloneStmts(s.Body)
		c.Private = append([]string(nil), s.Private...)
		c.Reductions = append([]Reduction(nil), s.Reductions...)
		return &c
	case *WhileStmt:
		c := *s
		c.Cond = CloneExpr(s.Cond)
		c.Body = CloneStmts(s.Body)
		return &c
	case *CallStmt:
		c := *s
		return &c
	case *GotoStmt:
		c := *s
		return &c
	case *ContinueStmt:
		c := *s
		return &c
	case *ReturnStmt:
		c := *s
		return &c
	case *StopStmt:
		c := *s
		return &c
	case *PrintStmt:
		c := *s
		c.Args = make([]Expr, len(s.Args))
		for i, a := range s.Args {
			c.Args[i] = CloneExpr(a)
		}
		return &c
	}
	return s
}

// CloneUnit returns a deep copy of a program unit.
func CloneUnit(u *Unit) *Unit {
	c := *u
	c.Decls = make([]*VarDecl, len(u.Decls))
	for i, d := range u.Decls {
		dc := *d
		dc.Dims = make([]DimBound, len(d.Dims))
		for j, b := range d.Dims {
			dc.Dims[j] = DimBound{Lo: CloneExpr(b.Lo), Hi: CloneExpr(b.Hi)}
		}
		c.Decls[i] = &dc
	}
	c.Params = make([]*ParamDecl, len(u.Params))
	for i, pd := range u.Params {
		pc := *pd
		pc.Value = CloneExpr(pd.Value)
		c.Params[i] = &pc
	}
	c.Body = CloneStmts(u.Body)
	return &c
}

// CloneProgram returns a deep copy of a whole program.
func CloneProgram(p *Program) *Program {
	c := &Program{}
	if p.Main != nil {
		c.Main = CloneUnit(p.Main)
	}
	c.Subs = make([]*Unit, len(p.Subs))
	for i, s := range p.Subs {
		c.Subs[i] = CloneUnit(s)
	}
	return c
}

// CountStmts returns the number of statements in the unit body, including
// statements nested in loops and conditionals. Used by the auto-inlining
// heuristic (§5.1.1 of the paper: inline procedures under fifty lines).
func CountStmts(u *Unit) int {
	n := 0
	WalkStmts(u.Body, func(Stmt) bool { n++; return true })
	return n
}
