package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// constVal is the constant-propagation lattice value for one scalar.
type constVal struct {
	known bool // false = NAC (not a constant) when present in the map
	isInt bool
	i     int64
	r     float64
	b     bool
	isB   bool
}

// PropagateConstants performs a simple structured forward constant
// propagation in every unit: scalar variables holding literal values are
// substituted into later expressions. Branches merge conservatively; loop
// bodies invalidate everything they modify before being walked. It
// returns the statements it rewrote, constant folding's included.
func PropagateConstants(fc *dataflow.Context) dataflow.Changes {
	var ch dataflow.Changes
	for _, u := range fc.Info.Program.Units() {
		cp := &constProp{fc: fc, unit: u, ch: &ch}
		cp.stmts(u.Body, map[string]constVal{})
	}
	if ch.Any() {
		ch.Add(FoldConstants(fc.Info.Program))
	}
	return ch
}

// constProp propagates constants through one unit.
type constProp struct {
	fc   *dataflow.Context
	unit *lang.Unit
	ch   *dataflow.Changes
	hit  bool // a substitution into the current statement happened
}

// subst replaces a known-constant scalar read, folding the result.
func (cp *constProp) subst(env map[string]constVal) func(lang.Expr) lang.Expr {
	return func(e lang.Expr) lang.Expr {
		return foldExpr(substConst(e, env, &cp.hit))
	}
}

// done records s as rewritten if a substitution into its own expressions
// happened.
func (cp *constProp) done(s lang.Stmt) {
	if cp.hit {
		cp.ch.Rewrote(cp.unit, s)
		cp.hit = false
	}
}

func killAll(env map[string]constVal) {
	for k := range env {
		delete(env, k)
	}
}

func killMod(env map[string]constVal, m *dataflow.ModSet) {
	for v := range m.Scalars {
		delete(env, v)
	}
}

// substEnv replaces known-constant scalar reads in a statement's
// expressions.
func (cp *constProp) substEnv(s lang.Stmt, env map[string]constVal) {
	if len(env) == 0 {
		return
	}
	lang.MapStmtExprs(s, cp.subst(env))
	cp.done(s)
}

// stmts walks one statement list, updating env.
func (cp *constProp) stmts(stmts []lang.Stmt, env map[string]constVal) {
	fc := cp.fc
	for _, s := range stmts {
		if s.Label() != 0 {
			// A label is a potential join point (goto target): be
			// conservative from here on.
			killAll(env)
		}
		switch s := s.(type) {
		case *lang.AssignStmt:
			// Substitute into the RHS and subscripts, but not the bare
			// LHS variable itself.
			subst := cp.subst(env)
			if ar, ok := s.Lhs.(*lang.ArrayRef); ok {
				for i, a := range ar.Args {
					ar.Args[i] = lang.MapExpr(a, subst)
				}
			}
			s.Rhs = lang.MapExpr(s.Rhs, subst)
			cp.done(s)
			if id, ok := s.Lhs.(*lang.Ident); ok {
				env[id.Name] = litValue(s.Rhs)
			}
		case *lang.IfStmt:
			cp.substEnv(s, env)
			// Each branch starts from the current env; afterwards keep
			// only facts that survive every branch (conservative:
			// intersect by killing everything any branch modifies).
			bodies := [][]lang.Stmt{s.Then}
			for i := range s.Elifs {
				bodies = append(bodies, s.Elifs[i].Body)
			}
			if s.Else != nil {
				bodies = append(bodies, s.Else)
			}
			for _, b := range bodies {
				branchEnv := copyEnv(env)
				cp.stmts(b, branchEnv)
			}
			for _, b := range bodies {
				killMod(env, fc.StmtsMod(b))
			}
		case *lang.DoStmt:
			// The body walks a copy, so after the loop env stays as
			// the kill before it left it.
			cp.substEnv(s, env) // bounds
			killMod(env, fc.StmtsMod(s.Body))
			delete(env, s.Var.Name)
			cp.stmts(s.Body, copyEnv(env))
		case *lang.WhileStmt:
			killMod(env, fc.StmtsMod(s.Body))
			cp.substEnv(s, env) // condition, after killing body mods
			cp.stmts(s.Body, copyEnv(env))
		case *lang.CallStmt:
			if cu := fc.Info.Program.Unit(s.Name); cu != nil {
				killMod(env, fc.Mod.GlobalsModifiedBy(cu))
			} else {
				killAll(env)
			}
		case *lang.GotoStmt:
			// Control leaves; nothing to update on the fallthrough path
			// (there is none), but stay safe.
			killAll(env)
		default:
			cp.substEnv(s, env)
		}
	}
}

func substConst(e lang.Expr, env map[string]constVal, changed *bool) lang.Expr {
	id, ok := e.(*lang.Ident)
	if !ok {
		return e
	}
	cv, has := env[id.Name]
	if !has || !cv.known {
		return e
	}
	*changed = true
	switch {
	case cv.isB:
		return &lang.BoolLit{ValuePos: id.NamePos, Value: cv.b}
	case cv.isInt:
		return &lang.IntLit{ValuePos: id.NamePos, Value: cv.i}
	default:
		return &lang.RealLit{ValuePos: id.NamePos, Value: cv.r}
	}
}

func litValue(e lang.Expr) constVal {
	switch e := e.(type) {
	case *lang.IntLit:
		return constVal{known: true, isInt: true, i: e.Value}
	case *lang.RealLit:
		return constVal{known: true, r: e.Value}
	case *lang.BoolLit:
		return constVal{known: true, isB: true, b: e.Value}
	}
	return constVal{}
}

func copyEnv(env map[string]constVal) map[string]constVal {
	c := make(map[string]constVal, len(env))
	for k, v := range env {
		c[k] = v
	}
	return c
}

// PropagateGlobalConstants performs the interprocedural part: a global
// scalar assigned exactly one literal value in the main program before any
// call, and never assigned anywhere else, is treated as that constant in
// every subroutine. It returns the statements it rewrote, constant
// folding's included.
func PropagateGlobalConstants(fc *dataflow.Context) dataflow.Changes {
	prog, info := fc.Info.Program, fc.Info
	var ch dataflow.Changes
	if prog.Main == nil {
		return ch
	}
	// Find candidate constants: leading literal assignments in main to
	// global scalars.
	consts := map[string]constVal{}
	for _, s := range prog.Main.Body {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			break // first non-assignment ends the prologue
		}
		id, ok := as.Lhs.(*lang.Ident)
		if !ok {
			continue
		}
		if cv := litValue(as.Rhs); cv.known {
			consts[id.Name] = cv
		} else {
			delete(consts, id.Name)
		}
	}
	for name := range consts {
		if sym := info.Globals[name]; sym == nil || sym.Kind != sem.ScalarSym {
			delete(consts, name)
		}
	}
	if len(consts) == 0 {
		return ch
	}
	// Remove any assigned elsewhere (main after prologue included:
	// conservative — drop if assigned more than once anywhere).
	counts := map[string]int{}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			for _, w := range fc.Stmt(s).ScalarWrites {
				counts[w]++
			}
			return true
		})
	}
	for name := range consts {
		if counts[name] != 1 {
			delete(consts, name)
		}
	}
	if len(consts) == 0 {
		return ch
	}
	for _, u := range prog.Subs {
		sc := info.Scope(u)
		hit := false
		subst := func(e lang.Expr) lang.Expr {
			id, ok := e.(*lang.Ident)
			if !ok {
				return e
			}
			if _, isLocal := sc.Locals[id.Name]; isLocal {
				return e
			}
			cv, has := consts[id.Name]
			if !has {
				return e
			}
			hit = true
			return substConstVal(cv, id.NamePos)
		}
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			hit = false
			lang.MapStmtExprs(s, subst)
			if hit {
				ch.Rewrote(u, s)
			}
			return true
		})
	}
	if ch.Any() {
		ch.Add(FoldConstants(prog))
	}
	return ch
}

func substConstVal(cv constVal, pos lang.Pos) lang.Expr {
	switch {
	case cv.isB:
		return &lang.BoolLit{ValuePos: pos, Value: cv.b}
	case cv.isInt:
		return &lang.IntLit{ValuePos: pos, Value: cv.i}
	default:
		return &lang.RealLit{ValuePos: pos, Value: cv.r}
	}
}
