package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
)

// ForwardSubstitute replaces scalar uses by their defining expressions when
// the definition is a simple side-effect-free assignment and nothing it
// depends on changes in between:
//
//	jj = ind(j)
//	z(k, jj) = x(jj)      →      z(k, ind(j)) = x(ind(j))
//
// This is the pass that exposes simple indirect array accesses to the
// privatization and dependence analyses (§5.1.1, "forward substitution").
// The definition itself is left in place for dead code elimination to
// remove. It returns the statements it rewrote.
func ForwardSubstitute(fc *dataflow.Context) dataflow.Changes {
	var ch dataflow.Changes
	fs := &fwdsub{fc: fc, ch: &ch}
	for _, u := range fc.Info.Program.Units() {
		fs.unit = u
		fs.stmts(u.Body, map[string]lang.Expr{})
	}
	return ch
}

type fwdsub struct {
	fc   *dataflow.Context
	unit *lang.Unit
	ch   *dataflow.Changes
}

// invalidate removes definitions that read or are the given scalar, or read
// the given array.
func invalidate(defs map[string]lang.Expr, scalar, array string) {
	if scalar != "" {
		delete(defs, scalar)
	}
	for name, e := range defs {
		drop := false
		lang.WalkExpr(e, func(x lang.Expr) bool {
			switch x := x.(type) {
			case *lang.Ident:
				if x.Name == scalar {
					drop = true
				}
			case *lang.ArrayRef:
				if !x.Intrinsic && x.Name == array {
					drop = true
				}
			}
			return !drop
		})
		if drop {
			delete(defs, name)
		}
	}
}

func (f *fwdsub) invalidateMod(defs map[string]lang.Expr, m *dataflow.ModSet) {
	for v := range m.Scalars {
		invalidate(defs, v, "")
	}
	for arr := range m.Arrays {
		invalidate(defs, "", arr)
	}
}

// subst rewrites the expressions of s using the current definitions.
func (f *fwdsub) subst(s lang.Stmt, defs map[string]lang.Expr) {
	if len(defs) == 0 {
		return
	}
	hit := false
	apply := func(e lang.Expr) lang.Expr {
		id, ok := e.(*lang.Ident)
		if !ok {
			return e
		}
		if repl, has := defs[id.Name]; has {
			hit = true
			return lang.CloneExpr(repl)
		}
		return e
	}
	if as, ok := s.(*lang.AssignStmt); ok {
		if ar, isArr := as.Lhs.(*lang.ArrayRef); isArr {
			for i, a := range ar.Args {
				ar.Args[i] = lang.MapExpr(a, apply)
			}
		}
		as.Rhs = lang.MapExpr(as.Rhs, apply)
	} else {
		lang.MapStmtExprs(s, apply)
	}
	if hit {
		f.ch.Rewrote(f.unit, s)
	}
}

// definable reports whether the RHS is a candidate for substitution:
// side-effect-free and not too large (substituting huge expressions blows
// up the program).
func definable(e lang.Expr) bool {
	n := 0
	lang.WalkExpr(e, func(x lang.Expr) bool {
		n++
		return true
	})
	return n <= 8
}

func (f *fwdsub) stmts(stmts []lang.Stmt, defs map[string]lang.Expr) {
	for _, s := range stmts {
		if s.Label() != 0 {
			// A goto target: definitions may not hold on all incoming
			// paths.
			for k := range defs {
				delete(defs, k)
			}
		}
		switch s := s.(type) {
		case *lang.AssignStmt:
			// Never substitute a variable's definition into its own
			// update (p = pbase; p = p + 1 must not become p = pbase+1):
			// that would destroy the index-evolution idioms the
			// irregular access analyses recognise.
			var selfDef lang.Expr
			var selfName string
			if id, ok := s.Lhs.(*lang.Ident); ok {
				if d, has := defs[id.Name]; has {
					selfDef, selfName = d, id.Name
					delete(defs, id.Name)
				}
			}
			f.subst(s, defs)
			if selfDef != nil {
				defs[selfName] = selfDef
			}
			for _, w := range f.fc.Stmt(s).ArrayWrites {
				invalidate(defs, "", w.Array)
			}
			if id, ok := s.Lhs.(*lang.Ident); ok {
				invalidate(defs, id.Name, "")
				if definable(s.Rhs) && !mentionsScalar(s.Rhs, id.Name) {
					defs[id.Name] = s.Rhs
				}
			}
		case *lang.IfStmt:
			f.subst(s, defs)
			bodies := [][]lang.Stmt{s.Then}
			for i := range s.Elifs {
				bodies = append(bodies, s.Elifs[i].Body)
			}
			if s.Else != nil {
				bodies = append(bodies, s.Else)
			}
			for _, b := range bodies {
				f.stmts(b, copyDefs(defs))
			}
			for _, b := range bodies {
				f.invalidateMod(defs, f.fc.StmtsMod(b))
			}
		case *lang.DoStmt:
			// The body walks a copy, so after the loop defs stay as
			// the invalidation before it left them.
			f.subst(s, defs)
			f.invalidateMod(defs, f.fc.StmtsMod(s.Body))
			invalidate(defs, s.Var.Name, "")
			f.stmts(s.Body, copyDefs(defs))
		case *lang.WhileStmt:
			f.invalidateMod(defs, f.fc.StmtsMod(s.Body))
			f.subst(s, defs)
			f.stmts(s.Body, copyDefs(defs))
		case *lang.CallStmt:
			if cu := f.fc.Info.Program.Unit(s.Name); cu != nil {
				f.invalidateMod(defs, f.fc.Mod.GlobalsModifiedBy(cu))
			} else {
				for k := range defs {
					delete(defs, k)
				}
			}
		case *lang.GotoStmt:
			// no fallthrough
		default:
			f.subst(s, defs)
		}
	}
}

func mentionsScalar(e lang.Expr, name string) bool {
	found := false
	lang.WalkExpr(e, func(x lang.Expr) bool {
		if id, ok := x.(*lang.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func copyDefs(defs map[string]lang.Expr) map[string]lang.Expr {
	c := make(map[string]lang.Expr, len(defs))
	for k, v := range defs {
		c[k] = v
	}
	return c
}
