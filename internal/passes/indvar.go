package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
)

// SubstituteInductionVariables rewrites unconditionally-incremented scalar
// induction variables in DO loops into closed forms of the loop index:
//
//	p = p0                 p = p0
//	do i = 1, n            do i = 1, n
//	  p = p + 2      →       ... uses of p become  p0 + 2*(i - 1 + 1) ...
//	  ... p ...
//	end do
//
// Only the simplest, always-profitable shape is handled, mirroring the
// Polaris induction-variable substitution the paper's pipeline runs before
// the irregular analyses (§5.1.1): the statement before the loop must set
// the integer p to a literal, the increment must be the loop body's first
// statement at the top level, the variable must not be assigned anywhere
// else in the loop, and the loop step must be 1. The increment is
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
	for i, s := range stmts {
		switch s := s.(type) {
		case *lang.IfStmt:
			iv.stmts(s.Then)
			for i := range s.Elifs {
				iv.stmts(s.Elifs[i].Body)
			}
			iv.stmts(s.Else)
		case *lang.DoStmt:
			if i > 0 {
				iv.doLoop(stmts[i-1], s)
			}
			iv.stmts(s.Body)
		case *lang.WhileStmt:
			iv.stmts(s.Body)
		}
	}
}

// doLoop rewrites the uses of p in d's body when prev, the statement
// before d, is p = p0 and d's body starts with p = p + c, for integer
// literals p0 and c. The closed form p0 + c*(i - lo + 1) holds only when
// the loop is entered from prev: d has no label a GOTO could enter by, its
// lower bound, evaluated once at entry, reads nothing the body writes, and
// p is an integer, so the increment converts nothing.
func (iv *indvar) doLoop(prev lang.Stmt, d *lang.DoStmt) {
	if d.Step != nil || len(d.Body) == 0 || d.Label() != 0 {
		return
	}
	first, ok := d.Body[0].(*lang.AssignStmt)
	if !ok || first.Label() != 0 {
		return
	}
	p, ok := first.Lhs.(*lang.Ident)
	if !ok || p.Slot == d.Var.Slot {
		return
	}
	// Must be p = p + c with constant c.
	bin, ok := first.Rhs.(*lang.Binary)
	if !ok || bin.Op != lang.OpAdd {
		return
	}
	var step lang.Expr
	if isVar(bin.X, p) {
		step = bin.Y
	} else if isVar(bin.Y, p) {
		step = bin.X
	} else {
		return
	}
	c, ok := step.(*lang.IntLit)
	if !ok {
		return
	}
	init, ok := prev.(*lang.AssignStmt)
	if !ok || !isVar(init.Lhs, p) {
		return
	}
	p0, ok := init.Rhs.(*lang.IntLit)
	if !ok || p.Slot == 0 || iv.fc.Info.Symbol(p.Slot).Type != lang.TInteger {
		return
	}
	if !dataflow.InvariantIn(d.Lo, d.Var.Slot, iv.fc.StmtsMod(d.Body)) {
		return
	}
	// p must not be assigned anywhere else in the loop (including calls).
	assigns := 0
	callsModify := false
	lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
		f := iv.fc.Stmt(s)
		for _, w := range f.ScalarWrites {
			if w.Slot == p.Slot {
				assigns++
			}
		}
		for _, callee := range f.Calls {
			if cu := iv.fc.Info.Program.Unit(callee); cu != nil {
				if iv.fc.Mod.GlobalsModifiedBy(cu).Has(p.Slot) {
					callsModify = true
				}
			}
		}
		return true
	})
	if assigns != 1 || callsModify {
		return
	}
	// After the increment in iteration i: p0 + c*(i - lo + 1).
	mkClosed := func(pos lang.Pos) lang.Expr {
		i := *d.Var
		i.NamePos = pos
		iMinusLo := &lang.Binary{Op: lang.OpSub, X: &i, Y: lang.CloneExpr(d.Lo)}
		steps := &lang.Binary{Op: lang.OpAdd, X: iMinusLo, Y: &lang.IntLit{Value: 1}}
		return &lang.Binary{
			Op: lang.OpAdd,
			X:  &lang.IntLit{Value: p0.Value},
			Y:  &lang.Binary{Op: lang.OpMul, X: &lang.IntLit{Value: c.Value}, Y: steps},
		}
	}
	hit := false
	closed := func(e lang.Expr) lang.Expr {
		if isVar(e, p) {
			hit = true
			return mkClosed(e.Pos())
		}
		return e
	}
	lang.WalkStmts(d.Body[1:], func(st lang.Stmt) bool {
		hit = false
		lang.MapStmtExprs(st, closed)
		if hit {
			iv.ch.Rewrote(iv.unit, st)
		}
		return true
	})
}
