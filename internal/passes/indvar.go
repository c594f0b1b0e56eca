package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
)

// SubstituteInductionVariables rewrites unconditionally-incremented scalar
// induction variables in DO loops into closed forms of the loop index:
//
//	do i = 1, n            do i = 1, n
//	  p = p + 2      →       ... uses of p become  p0 + 2*(i - 1 + 1) ...
//	  ... p ...
//	end do
//
// Only the simplest, always-profitable shape is handled, mirroring the
// Polaris induction-variable substitution the paper's pipeline runs before
// the irregular analyses (§5.1.1): the increment must be the loop body's
// first statement at the top level, the variable must not be assigned
// anywhere else in the loop, and the loop step must be 1. The increment is
// kept (it becomes dead if all uses are replaced and the final value is
// unused; DCE cleans it). Conditionally-incremented variables — the
// gathering-loop counters the paper's techniques target — are deliberately
// left alone.
//
// It returns the statements it rewrote, constant folding's included.
func SubstituteInductionVariables(fc *dataflow.Context) dataflow.Changes {
	var ch dataflow.Changes
	for _, u := range fc.Info.Program.Units() {
		iv := &indvar{fc: fc, unit: u, ch: &ch}
		iv.stmts(u.Body)
	}
	if ch.Any() {
		ch.Add(FoldConstants(fc.Info.Program))
	}
	return ch
}

type indvar struct {
	fc   *dataflow.Context
	unit *lang.Unit
	ch   *dataflow.Changes
}

func (iv *indvar) stmts(stmts []lang.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *lang.IfStmt:
			iv.stmts(s.Then)
			for i := range s.Elifs {
				iv.stmts(s.Elifs[i].Body)
			}
			iv.stmts(s.Else)
		case *lang.DoStmt:
			iv.doLoop(s)
			iv.stmts(s.Body)
		case *lang.WhileStmt:
			iv.stmts(s.Body)
		}
	}
}

func (iv *indvar) doLoop(d *lang.DoStmt) {
	if d.Step != nil || len(d.Body) == 0 {
		return
	}
	first, ok := d.Body[0].(*lang.AssignStmt)
	if !ok || first.Label() != 0 {
		return
	}
	p, ok := first.Lhs.(*lang.Ident)
	if !ok || p.Name == d.Var.Name {
		return
	}
	// Must be p = p + c with constant c.
	bin, ok := first.Rhs.(*lang.Binary)
	if !ok || bin.Op != lang.OpAdd {
		return
	}
	base, ok := bin.X.(*lang.Ident)
	var step lang.Expr
	if ok && base.Name == p.Name {
		step = bin.Y
	} else if base2, ok2 := bin.Y.(*lang.Ident); ok2 && base2.Name == p.Name {
		step = bin.X
	} else {
		return
	}
	c, isConst := step.(*lang.IntLit)
	if !isConst {
		return
	}
	// p must not be assigned anywhere else in the loop (including calls).
	assigns := 0
	callsModify := false
	lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
		f := iv.fc.Stmt(s)
		for _, w := range f.ScalarWrites {
			if w == p.Name {
				assigns++
			}
		}
		for _, callee := range f.Calls {
			if cu := iv.fc.Info.Program.Unit(callee); cu != nil {
				if iv.fc.Mod.GlobalsModifiedBy(cu).Scalars[p.Name] {
					callsModify = true
				}
			}
		}
		return true
	})
	if assigns != 1 || callsModify {
		return
	}
	// After the increment in iteration i (loop from lo), p = p_entry +
	// c*(i - lo + 1). Replace uses of p after the first statement.
	// p_entry is the value of p just before the loop; we name it via the
	// original variable: uses become p0-form only if p is not live —
	// keeping it simple and sound: rewrite uses as
	//   p + c*(i - lo)  evaluated with p's ENTRY value…
	// which requires p's entry value to be intact. Instead, we rewrite
	// the increment to a direct closed form, which preserves semantics
	// unconditionally:
	//   p = p + c   →   (unchanged)
	// and substitute subsequent *uses inside the body* of p by p (no-op).
	//
	// The profitable, safe case is when p is dead after the loop and its
	// entry value is a known constant assignment immediately before the
	// loop — detected by the caller structure; to stay conservative we
	// only rewrite when the statement right before the loop in the same
	// list assigns p a constant. That rewriting is done by rewriteWithBase
	// via the parent walk; here we only record candidates.
	iv.rewriteUses(d, p.Name, c.Value)
}

// rewriteUses replaces uses of p inside the loop body (after the leading
// increment) by the closed form  pInc0 + c*(i - lo)  where pInc0 is the
// value after the first increment. Since the entry value is unknown, the
// rewrite keeps p itself as the base: every use u_k of p in iteration i
// equals p_after_first_increment + c*(i - lo)… that expression still
// contains the loop-varying p, so the only sound local rewrite without an
// entry value is none at all. The pass therefore limits itself to loops
// whose increment directly follows a constant assignment handled by
// PropagateConstants; in other cases it does nothing. Kept as an explicit
// no-op so the pipeline's pass list matches Fig. 15 and the ablation bench
// can measure it honestly.
func (iv *indvar) rewriteUses(d *lang.DoStmt, p string, c int64) {
	// Look up the statement preceding d in its parent list for a constant
	// assignment to p.
	parent, idx := findParentList(iv.unit.Body, d)
	if parent == nil || idx == 0 {
		return
	}
	prev, ok := parent[idx-1].(*lang.AssignStmt)
	if !ok {
		return
	}
	pid, ok := prev.Lhs.(*lang.Ident)
	if !ok || pid.Name != p {
		return
	}
	p0, ok := prev.Rhs.(*lang.IntLit)
	if !ok {
		return
	}
	// Closed form after the increment in iteration i: p0 + c*(i - lo + 1).
	mkClosed := func(pos lang.Pos) lang.Expr {
		iMinusLo := &lang.Binary{Op: lang.OpSub, X: &lang.Ident{NamePos: pos, Name: d.Var.Name}, Y: lang.CloneExpr(d.Lo)}
		steps := &lang.Binary{Op: lang.OpAdd, X: iMinusLo, Y: &lang.IntLit{Value: 1}}
		return &lang.Binary{
			Op: lang.OpAdd,
			X:  &lang.IntLit{Value: p0.Value},
			Y:  &lang.Binary{Op: lang.OpMul, X: &lang.IntLit{Value: c}, Y: steps},
		}
	}
	hit := false
	closed := func(e lang.Expr) lang.Expr {
		if id, ok := e.(*lang.Ident); ok && id.Name == p {
			hit = true
			return mkClosed(id.NamePos)
		}
		return e
	}
	lang.WalkStmts(d.Body[1:], func(st lang.Stmt) bool {
		// Do not rewrite inside assignments TO p (there are none besides
		// the increment, checked above).
		hit = false
		lang.MapStmtExprs(st, closed)
		if hit {
			iv.ch.Rewrote(iv.unit, st)
		}
		return true
	})
}

// findParentList locates the statement list directly containing target and
// its index there.
func findParentList(stmts []lang.Stmt, target lang.Stmt) ([]lang.Stmt, int) {
	for i, s := range stmts {
		if s == target {
			return stmts, i
		}
		switch s := s.(type) {
		case *lang.IfStmt:
			if l, k := findParentList(s.Then, target); l != nil {
				return l, k
			}
			for _, arm := range s.Elifs {
				if l, k := findParentList(arm.Body, target); l != nil {
					return l, k
				}
			}
			if l, k := findParentList(s.Else, target); l != nil {
				return l, k
			}
		case *lang.DoStmt:
			if l, k := findParentList(s.Body, target); l != nil {
				return l, k
			}
		case *lang.WhileStmt:
			if l, k := findParentList(s.Body, target); l != nil {
				return l, k
			}
		}
	}
	return nil, 0
}
