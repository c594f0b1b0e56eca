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
// bodies invalidate everything they modify before being walked. Returns
// true when any substitution happened.
func PropagateConstants(fc *dataflow.Context) bool {
	changed := false
	for _, u := range fc.Info.Program.Units() {
		cpStmts(u.Body, map[string]constVal{}, fc, &changed)
	}
	if changed {
		FoldConstants(fc.Info.Program)
	}
	return changed
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
func substEnv(s lang.Stmt, env map[string]constVal, changed *bool) {
	if len(env) == 0 {
		return
	}
	lang.MapStmtExprs(s, func(e lang.Expr) lang.Expr {
		return foldExpr(substConst(e, env, changed))
	})
}

// cpStmts walks one statement list, updating env.
func cpStmts(stmts []lang.Stmt, env map[string]constVal, fc *dataflow.Context, changed *bool) {
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
			if ar, ok := s.Lhs.(*lang.ArrayRef); ok {
				for i, a := range ar.Args {
					ar.Args[i] = lang.MapExpr(a, func(e lang.Expr) lang.Expr {
						return foldExpr(substConst(e, env, changed))
					})
				}
			}
			s.Rhs = lang.MapExpr(s.Rhs, func(e lang.Expr) lang.Expr {
				return foldExpr(substConst(e, env, changed))
			})
			if id, ok := s.Lhs.(*lang.Ident); ok {
				env[id.Name] = litValue(s.Rhs)
			}
		case *lang.IfStmt:
			substEnv(s, env, changed)
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
				cpStmts(b, branchEnv, fc, changed)
			}
			for _, b := range bodies {
				killMod(env, fc.StmtsMod(b))
			}
		case *lang.DoStmt:
			substEnv(s, env, changed) // bounds
			bodyMod := fc.StmtsMod(s.Body)
			killMod(env, bodyMod)
			delete(env, s.Var.Name)
			bodyEnv := copyEnv(env)
			cpStmts(s.Body, bodyEnv, fc, changed)
			killMod(env, bodyMod)
			delete(env, s.Var.Name)
		case *lang.WhileStmt:
			bodyMod := fc.StmtsMod(s.Body)
			killMod(env, bodyMod)
			substEnv(s, env, changed) // condition, after killing body mods
			bodyEnv := copyEnv(env)
			cpStmts(s.Body, bodyEnv, fc, changed)
			killMod(env, bodyMod)
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
			substEnv(s, env, changed)
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
// every subroutine. Returns true on change.
func PropagateGlobalConstants(fc *dataflow.Context) bool {
	prog, info := fc.Info.Program, fc.Info
	if prog.Main == nil {
		return false
	}
	// Find candidate constants: leading literal assignments in main.
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
		if sym := info.Globals[name]; sym == nil || sym.Kind != sem.ScalarSym {
			delete(consts, name)
		}
	}
	if len(consts) == 0 {
		return false
	}
	changed := false
	for _, u := range prog.Subs {
		sc := info.Scope(u)
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			lang.MapStmtExprs(s, func(e lang.Expr) lang.Expr {
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
				changed = true
				return substConstVal(cv, id.NamePos)
			})
			return true
		})
	}
	if changed {
		FoldConstants(prog)
	}
	return changed
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
