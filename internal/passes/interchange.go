package passes

import (
	"repro/internal/deptest"
	"repro/internal/expr"
	"repro/internal/lang"
)

// InterchangeLoops swaps the loops of perfect two-deep DO nests when the
// interchange is legal and improves spatial locality — one of the companion
// applications the paper points to for the irregular-access machinery
// (§2.3, citing the authors' CC'00 paper [22]).
//
// Legality (conservative): every array written in the nest must carry no
// dependence on either loop (the iteration space is fully permutable);
// this is established with the same dependence tests — including the
// property-based ones when an Analyzer with property analysis is supplied,
// which is exactly how the irregular-access information enables
// interchanges the classic tests cannot justify.
//
// Profitability: F-lite arrays are stored first-subscript-contiguous
// (Fortran order), so the innermost loop variable should appear in the
// first subscript. The nest is interchanged when more references gain
// stride-1 behaviour than lose it.
//
// Returns the number of nests interchanged.
func InterchangeLoops(dep *deptest.Analyzer) int {
	count := 0
	for _, u := range dep.Facts.Info.Program.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			outer, ok := s.(*lang.DoStmt)
			if !ok {
				return true
			}
			inner, ok := perfectNest(outer)
			if !ok {
				return true
			}
			if !interchangeProfitable(outer, inner) {
				return true
			}
			if !interchangeLegal(u, outer, inner, dep) {
				return true
			}
			swapLoops(outer, inner)
			// The swap rewrites loop headers in place: memoized property
			// verdicts keyed on the pre-swap bounds are now stale.
			dep.Invalidate()
			count++
			return false // the swapped nest needs no re-visit
		})
	}
	return count
}

// perfectNest reports whether outer's body is exactly one inner DO loop
// whose bounds do not depend on the inner loop itself (they may depend on
// the outer variable; interchange then needs rectangular bounds, so we
// require both loops' bounds to be invariant in both variables).
func perfectNest(outer *lang.DoStmt) (*lang.DoStmt, bool) {
	if len(outer.Body) != 1 {
		return nil, false
	}
	inner, ok := outer.Body[0].(*lang.DoStmt)
	if !ok || outer.Step != nil || inner.Step != nil {
		return nil, false
	}
	for _, b := range []lang.Expr{outer.Lo, outer.Hi, inner.Lo, inner.Hi} {
		bad := false
		lang.WalkExpr(b, func(e lang.Expr) bool {
			if id, ok := e.(*lang.Ident); ok && (id.Name == outer.Var.Name || id.Name == inner.Var.Name) {
				bad = true
			}
			return !bad
		})
		if bad {
			return nil, false
		}
	}
	return inner, true
}

// interchangeProfitable counts references whose first (contiguous)
// subscript uses the outer variable but not the inner one: those become
// stride-1 after interchange. References already stride-1 in the inner
// variable count against.
func interchangeProfitable(outer, inner *lang.DoStmt) bool {
	gain, loss := 0, 0
	lang.WalkStmts(inner.Body, func(s lang.Stmt) bool {
		lang.StmtExprs(s, func(e lang.Expr) {
			lang.WalkExpr(e, func(x lang.Expr) bool {
				ref, ok := x.(*lang.ArrayRef)
				if !ok || ref.Intrinsic || len(ref.Args) < 2 {
					return true
				}
				first := expr.FromAST(ref.Args[0])
				co, _, okO := first.Affine(outer.Var.Name)
				ci, _, okI := first.Affine(inner.Var.Name)
				if !okO || !okI {
					return true
				}
				switch {
				case co != 0 && ci == 0:
					gain++
				case ci != 0 && co == 0:
					loss++
				}
				return true
			})
		})
		return true
	})
	return gain > loss
}

// interchangeLegal requires every written array of the nest to be
// independent on both loops.
func interchangeLegal(u *lang.Unit, outer, inner *lang.DoStmt, dep *deptest.Analyzer) bool {
	for _, loop := range []*lang.DoStmt{outer, inner} {
		for _, v := range dep.AnalyzeLoop(u, loop) {
			if !v.Independent {
				return false
			}
		}
	}
	// Scalar state carried between iterations also blocks (assignments to
	// scalars inside the nest other than the loop variables).
	blocked := false
	lang.WalkStmts(inner.Body, func(s lang.Stmt) bool {
		f := dep.Facts.Stmt(s)
		for _, w := range f.ScalarWrites {
			if w.Slot != outer.Var.Slot && w.Slot != inner.Var.Slot {
				blocked = true
			}
		}
		if len(f.Calls) > 0 {
			blocked = true
		}
		return !blocked
	})
	return !blocked
}

// swapLoops exchanges the headers of the two loops in place.
func swapLoops(outer, inner *lang.DoStmt) {
	outer.Var, inner.Var = inner.Var, outer.Var
	outer.Lo, inner.Lo = inner.Lo, outer.Lo
	outer.Hi, inner.Hi = inner.Hi, outer.Hi
	outer.Step, inner.Step = inner.Step, outer.Step
}
