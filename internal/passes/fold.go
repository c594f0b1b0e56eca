// Package passes implements the Polaris-like program transformations of the
// paper's pipeline (Fig. 15): inlining, interprocedural constant
// propagation, program normalization (constant folding), induction variable
// substitution, (intraprocedural) constant propagation and forward
// substitution, which one forward walk performs (PropagateForward), dead
// code elimination and reduction recognition.
//
// All passes operate on the AST in place (on a program the caller may clone
// first) and are written to be idempotent. The passes that need program
// facts read them from the compilation's dataflow.Context. Constant
// folding, interprocedural constant propagation, induction variable
// substitution and forward propagation rewrite expressions but never an
// assignment target, a DO variable, a CALL or a statement list; dead code
// elimination only deletes unlabelled scalar assignments. Each of them returns the dataflow.Changes it made, with
// which the caller patches the context (dataflow.Context.Patch). Inlining
// and control simplification restructure statement lists and return only
// whether they changed anything; the caller rebuilds the context after
// them.
package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
)

// FoldConstants simplifies constant subexpressions in every unit: integer
// and real arithmetic on literals, comparisons of literals, boolean
// connectives with literal operands, and algebraic identities (x+0, x*1,
// x*0). It returns the statements it rewrote.
func FoldConstants(prog *lang.Program) dataflow.Changes {
	var ch dataflow.Changes
	changed := false
	fold := func(e lang.Expr) lang.Expr {
		out := foldExpr(e)
		changed = changed || out != e
		return out
	}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			changed = false
			lang.MapStmtExprs(s, fold)
			if changed {
				ch.Rewrote(u, s)
			}
			return true
		})
	}
	return ch
}

func intLit(v int64) *lang.IntLit  { return &lang.IntLit{Value: v} }
func realLit(v float64) lang.Expr  { return &lang.RealLit{Value: v} }
func boolLit(v bool) *lang.BoolLit { return &lang.BoolLit{Value: v} }
func asInt(e lang.Expr) (int64, bool) {
	l, ok := e.(*lang.IntLit)
	if !ok {
		return 0, false
	}
	return l.Value, true
}
func asReal(e lang.Expr) (float64, bool) {
	switch l := e.(type) {
	case *lang.RealLit:
		return l.Value, true
	case *lang.IntLit:
		return float64(l.Value), true
	}
	return 0, false
}
func isRealLit(e lang.Expr) bool { _, ok := e.(*lang.RealLit); return ok }

// foldExpr folds one node (children already folded by MapExpr).
func foldExpr(e lang.Expr) lang.Expr {
	switch e := e.(type) {
	case *lang.Unary:
		switch e.Op {
		case lang.OpNeg:
			if v, ok := asInt(e.X); ok {
				return intLit(-v)
			}
			if v, ok := e.X.(*lang.RealLit); ok {
				return realLit(-v.Value)
			}
		case lang.OpNot:
			if b, ok := e.X.(*lang.BoolLit); ok {
				return boolLit(!b.Value)
			}
		}
	case *lang.Binary:
		if out := foldBinary(e); out != nil {
			return out
		}
	}
	return e
}

func foldBinary(e *lang.Binary) lang.Expr {
	xi, xIsInt := asInt(e.X)
	yi, yIsInt := asInt(e.Y)

	// Pure integer arithmetic.
	if xIsInt && yIsInt {
		switch e.Op {
		case lang.OpAdd:
			return intLit(xi + yi)
		case lang.OpSub:
			return intLit(xi - yi)
		case lang.OpMul:
			return intLit(xi * yi)
		case lang.OpDiv:
			if yi != 0 {
				return intLit(xi / yi)
			}
		case lang.OpPow:
			if yi >= 0 && yi <= 16 {
				r := int64(1)
				for k := int64(0); k < yi; k++ {
					r *= xi
				}
				return intLit(r)
			}
		case lang.OpEq:
			return boolLit(xi == yi)
		case lang.OpNe:
			return boolLit(xi != yi)
		case lang.OpLt:
			return boolLit(xi < yi)
		case lang.OpLe:
			return boolLit(xi <= yi)
		case lang.OpGt:
			return boolLit(xi > yi)
		case lang.OpGe:
			return boolLit(xi >= yi)
		}
	}

	// Mixed/real arithmetic when at least one side is a real literal.
	if isRealLit(e.X) || isRealLit(e.Y) {
		xr, okx := asReal(e.X)
		yr, oky := asReal(e.Y)
		if okx && oky {
			switch e.Op {
			case lang.OpAdd:
				return realLit(xr + yr)
			case lang.OpSub:
				return realLit(xr - yr)
			case lang.OpMul:
				return realLit(xr * yr)
			case lang.OpDiv:
				if yr != 0 {
					return realLit(xr / yr)
				}
			case lang.OpEq:
				return boolLit(xr == yr)
			case lang.OpNe:
				return boolLit(xr != yr)
			case lang.OpLt:
				return boolLit(xr < yr)
			case lang.OpLe:
				return boolLit(xr <= yr)
			case lang.OpGt:
				return boolLit(xr > yr)
			case lang.OpGe:
				return boolLit(xr >= yr)
			}
		}
	}

	// Boolean connectives.
	if xb, ok := e.X.(*lang.BoolLit); ok {
		switch {
		case e.Op == lang.OpAnd && !xb.Value:
			return boolLit(false)
		case e.Op == lang.OpAnd && xb.Value:
			return e.Y
		case e.Op == lang.OpOr && xb.Value:
			return boolLit(true)
		case e.Op == lang.OpOr && !xb.Value:
			return e.Y
		}
	}
	if yb, ok := e.Y.(*lang.BoolLit); ok {
		switch {
		case e.Op == lang.OpAnd && !yb.Value:
			return boolLit(false)
		case e.Op == lang.OpAnd && yb.Value:
			return e.X
		case e.Op == lang.OpOr && yb.Value:
			return boolLit(true)
		case e.Op == lang.OpOr && !yb.Value:
			return e.X
		}
	}

	// Reassociation of integer-constant chains: (x ± c1) ± c2.
	if yIsInt {
		if inner, ok := e.X.(*lang.Binary); ok {
			if ci, okc := asInt(inner.Y); okc {
				switch {
				case e.Op == lang.OpAdd && inner.Op == lang.OpAdd:
					return foldExpr(&lang.Binary{Op: lang.OpAdd, X: inner.X, Y: intLit(ci + yi)})
				case e.Op == lang.OpAdd && inner.Op == lang.OpSub:
					return foldExpr(&lang.Binary{Op: lang.OpAdd, X: inner.X, Y: intLit(yi - ci)})
				case e.Op == lang.OpSub && inner.Op == lang.OpAdd:
					return foldExpr(&lang.Binary{Op: lang.OpAdd, X: inner.X, Y: intLit(ci - yi)})
				case e.Op == lang.OpSub && inner.Op == lang.OpSub:
					return foldExpr(&lang.Binary{Op: lang.OpSub, X: inner.X, Y: intLit(ci + yi)})
				}
			}
		}
	}

	// Identities.
	switch e.Op {
	case lang.OpAdd:
		if yIsInt && yi == 0 {
			return e.X
		}
		if xIsInt && xi == 0 {
			return e.Y
		}
		if yIsInt && yi < 0 {
			return &lang.Binary{Op: lang.OpSub, X: e.X, Y: intLit(-yi)}
		}
	case lang.OpSub:
		if yIsInt && yi == 0 {
			return e.X
		}
	case lang.OpMul:
		if yIsInt && yi == 1 {
			return e.X
		}
		if xIsInt && xi == 1 {
			return e.Y
		}
		if (yIsInt && yi == 0) || (xIsInt && xi == 0) {
			return intLit(0)
		}
	case lang.OpDiv:
		if yIsInt && yi == 1 {
			return e.X
		}
	}
	return nil
}

// SimplifyControl removes statically-decided IF branches and zero-trip DO
// loops with constant bounds, and drops statements after STOP/RETURN in a
// statement list. It returns true if anything changed.
func SimplifyControl(prog *lang.Program) bool {
	changed := false
	for _, u := range prog.Units() {
		u.Body = simplifyStmts(u.Body, &changed)
	}
	return changed
}

// simplifyStmts simplifies a statement list and the lists nested in it.
// It keeps the list, and copies it only from the first statement it drops
// or replaces; a list it empties becomes nil.
func simplifyStmts(stmts []lang.Stmt, changed *bool) []lang.Stmt {
	var out []lang.Stmt // nil until a statement is dropped or replaced
	edit := func(i int) {
		*changed = true
		if out == nil {
			out = append(make([]lang.Stmt, 0, len(stmts)), stmts[:i]...)
		}
	}
	for i, s := range stmts {
		switch s := s.(type) {
		case *lang.IfStmt:
			s.Then = simplifyStmts(s.Then, changed)
			for i := range s.Elifs {
				s.Elifs[i].Body = simplifyStmts(s.Elifs[i].Body, changed)
			}
			s.Else = simplifyStmts(s.Else, changed)
			if b, ok := s.Cond.(*lang.BoolLit); ok && len(s.Elifs) == 0 && s.Label() == 0 {
				edit(i)
				if b.Value {
					out = append(out, s.Then...)
				} else if s.Else != nil {
					out = append(out, s.Else...)
				}
				continue
			}
		case *lang.DoStmt:
			s.Body = simplifyStmts(s.Body, changed)
			lo, okLo := asInt(s.Lo)
			hi, okHi := asInt(s.Hi)
			if okLo && okHi && s.Step == nil && lo > hi && s.Label() == 0 && !hasLabels(s.Body) {
				edit(i)
				continue // zero-trip loop
			}
		case *lang.WhileStmt:
			s.Body = simplifyStmts(s.Body, changed)
			if b, ok := s.Cond.(*lang.BoolLit); ok && !b.Value && s.Label() == 0 && !hasLabels(s.Body) {
				edit(i)
				continue
			}
		}
		if out != nil {
			out = append(out, s)
		}
		if _, stop := s.(*lang.StopStmt); stop && i+1 < len(stmts) {
			*changed = true
			if out == nil {
				out = stmts[: i+1 : i+1]
			}
			break
		}
	}
	if out == nil {
		out = stmts
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func hasLabels(stmts []lang.Stmt) bool {
	found := false
	lang.WalkStmts(stmts, func(s lang.Stmt) bool {
		if s.Label() != 0 {
			found = true
		}
		return !found
	})
	return found
}
