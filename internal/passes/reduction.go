package passes

import (
	"sort"

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
				annotateReductions(d, fc)
			}
			return true
		})
	}
}

func annotateReductions(d *lang.DoStmt, fc *dataflow.Context) {
	d.Reductions = nil
	type cand struct {
		op      lang.Op
		ok      bool
		updates int
	}
	cands := map[int32]*cand{} // by slot

	get := func(slot int32) *cand {
		c := cands[slot]
		if c == nil {
			c = &cand{ok: true}
			cands[slot] = c
		}
		return c
	}
	breakAll := func(vs []*lang.Ident) {
		for _, v := range vs {
			get(v.Slot).ok = false
		}
	}

	lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.AssignStmt:
			lhs, isScalar := s.Lhs.(*lang.Ident)
			if op, rest, isUpd := reductionUpdate(s, lhs); isScalar && isUpd {
				c := get(lhs.Slot)
				c.updates++
				if c.updates > 1 && c.op != op {
					c.ok = false
				}
				c.op = op
				// The update expression must not read the target.
				if readsScalar(rest, lhs) {
					c.ok = false
				}
				// Reads of the target by subscripts on the LHS are
				// impossible for a scalar; nothing more to check here.
				return true
			}
			// Any other statement reading or writing a candidate breaks it.
			f := fc.Stmt(s)
			breakAll(f.ScalarReads)
			breakAll(f.ScalarWrites)
		case *lang.CallStmt:
			if cu := fc.Info.Program.Unit(s.Name); cu != nil {
				fc.Mod.GlobalsModifiedBy(cu).Each(func(sym *sem.Symbol) {
					if sym.Kind == sem.ScalarSym {
						get(sym.Slot).ok = false
					}
				})
			}
			// Callee reads are not tracked: conservatively break every
			// global candidate.
			for slot, c := range cands {
				if sym := fc.Info.Symbol(slot); sym != nil && sym.Global {
					c.ok = false
				}
			}
		default:
			f := fc.Stmt(s)
			breakAll(f.ScalarReads)
			breakAll(f.ScalarWrites)
		}
		return true
	})

	for slot, c := range cands {
		if sym := fc.Info.Symbol(slot); c.ok && c.updates > 0 && sym != nil && sym.Kind == sem.ScalarSym {
			d.Reductions = append(d.Reductions, lang.Reduction{Var: sym.Name, Op: c.op})
		}
	}
	// Deterministic order.
	sort.Slice(d.Reductions, func(i, j int) bool { return d.Reductions[i].Var < d.Reductions[j].Var })
}

// reductionUpdate matches s = s op expr forms. target may be nil (no
// match). The returned rest is the combined non-target operand.
func reductionUpdate(s *lang.AssignStmt, target *lang.Ident) (lang.Op, lang.Expr, bool) {
	if target == nil {
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

// isVar reports whether e names the scalar v denotes.
func isVar(e lang.Expr, v *lang.Ident) bool {
	id, ok := e.(*lang.Ident)
	return ok && id.Slot == v.Slot
}

// readsScalar reports whether e reads the scalar v denotes.
func readsScalar(e lang.Expr, v *lang.Ident) bool {
	if e == nil {
		return false
	}
	found := false
	lang.WalkExpr(e, func(x lang.Expr) bool {
		if id, ok := x.(*lang.Ident); ok && id.Slot == v.Slot {
			found = true
		}
		return !found
	})
	return found
}
