package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// RecognizeReductions annotates DO loops with the scalar reductions they
// perform: a scalar s with every definition in the loop of the form
//
//	s = s + expr      (or s - expr, treated as + of a negated term)
//	s = min(s, expr) / max(s, expr)
//
// where expr does not read s and s is not read anywhere else in the loop.
// Such loops can run in parallel with per-processor partial results
// combined afterwards. The annotation lands in DoStmt.Reductions; nothing
// else is rewritten.
func RecognizeReductions(fc *dataflow.Context) {
	for _, u := range fc.Info.Program.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			if d, ok := s.(*lang.DoStmt); ok {
				annotateReductions(d, u, fc)
			}
			return true
		})
	}
}

func annotateReductions(d *lang.DoStmt, u *lang.Unit, fc *dataflow.Context) {
	d.Reductions = nil
	type cand struct {
		op      lang.Op
		ok      bool
		updates int
	}
	cands := map[string]*cand{}

	get := func(name string) *cand {
		c := cands[name]
		if c == nil {
			c = &cand{ok: true}
			cands[name] = c
		}
		return c
	}

	lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.AssignStmt:
			lhs, isScalar := s.Lhs.(*lang.Ident)
			var target string
			if isScalar {
				target = lhs.Name
			}
			op, rest, isUpd := reductionUpdate(s, target)
			if isScalar && isUpd {
				c := get(target)
				c.updates++
				if c.updates > 1 && c.op != op {
					c.ok = false
				}
				c.op = op
				// The update expression must not read the target.
				if readsScalar(rest, target) {
					c.ok = false
				}
				// Reads of the target by subscripts on the LHS are
				// impossible for a scalar; nothing more to check here.
				return true
			}
			// Any other statement reading or writing a candidate breaks it.
			f := fc.Stmt(s)
			for _, r := range f.ScalarReads {
				if c, tracked := cands[r]; tracked {
					c.ok = false
				} else {
					get(r).ok = false
				}
			}
			for _, w := range f.ScalarWrites {
				get(w).ok = false
			}
		case *lang.CallStmt:
			if cu := fc.Info.Program.Unit(s.Name); cu != nil {
				for v := range fc.Mod.GlobalsModifiedBy(cu).Scalars {
					get(v).ok = false
				}
			}
			// Callee reads are not tracked: conservatively break every
			// global candidate.
			for name, c := range cands {
				if sym := fc.Info.LookupIn(u, name); sym != nil && sym.Global {
					c.ok = false
				}
			}
		default:
			f := fc.Stmt(s)
			for _, r := range f.ScalarReads {
				get(r).ok = false
			}
			for _, w := range f.ScalarWrites {
				get(w).ok = false
			}
		}
		return true
	})

	for name, c := range cands {
		if c.ok && c.updates > 0 {
			sym := fc.Info.LookupIn(u, name)
			if sym == nil || sym.Kind != sem.ScalarSym {
				continue
			}
			d.Reductions = append(d.Reductions, lang.Reduction{Var: name, Op: c.op})
		}
	}
	// Deterministic order.
	for i := 0; i < len(d.Reductions); i++ {
		for j := i + 1; j < len(d.Reductions); j++ {
			if d.Reductions[j].Var < d.Reductions[i].Var {
				d.Reductions[i], d.Reductions[j] = d.Reductions[j], d.Reductions[i]
			}
		}
	}
}

// reductionUpdate matches s = s op expr forms. target may be "" (no match).
// The returned rest is the combined non-target operand.
func reductionUpdate(s *lang.AssignStmt, target string) (lang.Op, lang.Expr, bool) {
	if target == "" {
		return 0, nil, false
	}
	switch rhs := s.Rhs.(type) {
	case *lang.Binary:
		switch rhs.Op {
		case lang.OpAdd:
			if isVar(rhs.X, target) {
				return lang.OpAdd, rhs.Y, true
			}
			if isVar(rhs.Y, target) {
				return lang.OpAdd, rhs.X, true
			}
		case lang.OpSub:
			if isVar(rhs.X, target) {
				return lang.OpAdd, rhs.Y, true // s - e combines like +(-e)
			}
		case lang.OpMul:
			if isVar(rhs.X, target) {
				return lang.OpMul, rhs.Y, true
			}
			if isVar(rhs.Y, target) {
				return lang.OpMul, rhs.X, true
			}
		}
	case *lang.ArrayRef:
		if rhs.Intrinsic && (rhs.Name == "min" || rhs.Name == "max") && len(rhs.Args) == 2 {
			op := lang.OpLt
			if rhs.Name == "max" {
				op = lang.OpGt
			}
			if isVar(rhs.Args[0], target) {
				return op, rhs.Args[1], true
			}
			if isVar(rhs.Args[1], target) {
				return op, rhs.Args[0], true
			}
		}
	}
	return 0, nil, false
}

func isVar(e lang.Expr, name string) bool {
	id, ok := e.(*lang.Ident)
	return ok && id.Name == name
}

func readsScalar(e lang.Expr, name string) bool {
	if e == nil {
		return false
	}
	found := false
	lang.WalkExpr(e, func(x lang.Expr) bool {
		if id, ok := x.(*lang.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
