package passes

import (
	"maps"

	"repro/internal/dataflow"
	"repro/internal/lang"
)

// PropagateForward performs constant propagation and forward substitution
// in one structured walk of every unit. It keeps one map from each scalar
// to the expression it holds, a literal or a small definition, and
// replaces later reads of the scalar by it:
//
//	jj = ind(j)
//	z(k, jj) = x(jj)      →      z(k, ind(j)) = x(ind(j))
//
// This is what exposes simple indirect array accesses to the privatization
// and dependence analyses (§5.1.1, "forward substitution"). The rules:
//
//   - Substitution: before each statement the walk first substitutes the
//     literals, folding every node it maps; a literal goes into its
//     scalar's own update too (p = 0; p = p + 1 becomes p = 1). Then it
//     substitutes the other definitions, which never go into their
//     scalar's own update (p = pbase; p = p + 1 stays), since that would
//     destroy the index-evolution idioms the irregular access analyses
//     recognise.
//   - Binding: an assignment binds its scalar when the right side has the
//     scalar's declared type, so no implicit conversion is lost, is
//     definable (8 nodes or fewer) and does not read the scalar.
//   - Scoping: an IF arm or loop body walks a child map, which shares its
//     parent's until its own first change, so its bindings reach neither a
//     sibling arm nor the statement after.
//   - Clearing: a label (a GOTO may join there), a GOTO or a call of an
//     unknown unit clears the map. A write drops every definition that is,
//     or reads, what it writes; an IF, DO or WHILE drops what its bodies
//     write (a DO its variable too), a DO and WHILE before their bodies
//     run.
//
// The definitions themselves stay for dead code elimination to remove. It
// returns the statements it rewrote.
func PropagateForward(fc *dataflow.Context) dataflow.Changes {
	var ch dataflow.Changes
	f := &forward{fc: fc, ch: &ch}
	for _, u := range fc.Info.Program.Units() {
		f.unit = u
		f.stmts(u.Body, defs{})
	}
	return ch
}

type forward struct {
	fc   *dataflow.Context
	unit *lang.Unit
	ch   *dataflow.Changes
}

// defs maps each scalar, by slot, to the expression it holds. A child,
// defs{m: parent.m}, shares its parent's map until it first changes it.
type defs struct {
	m     map[int32]lang.Expr
	owned bool
}

// own gives d a map of its own before its first change.
func (d *defs) own() {
	if d.owned {
		return
	}
	m := make(map[int32]lang.Expr, len(d.m)+1)
	maps.Copy(m, d.m)
	d.m, d.owned = m, true
}

// reset drops every definition.
func (d *defs) reset() {
	if d.owned {
		clear(d.m)
	} else {
		d.m = nil
	}
}

// drop deletes every definition that gone reports.
func (d *defs) drop(gone func(slot int32, e lang.Expr) bool) {
	for slot, e := range d.m {
		if gone(slot, e) {
			d.own()
			delete(d.m, slot)
		}
	}
}

// kill drops the definition of every scalar w writes and every definition
// that reads a scalar or array w writes.
func (d *defs) kill(w *dataflow.ModSet) {
	d.drop(func(slot int32, e lang.Expr) bool {
		return w.Has(slot) || !dataflow.InvariantIn(e, 0, w)
	})
}

// store drops what kill drops for the one scalar or array an assignment
// to lhs writes.
func (d *defs) store(lhs lang.Expr) {
	switch lhs := lhs.(type) {
	case *lang.Ident:
		d.drop(func(slot int32, e lang.Expr) bool { return slot == lhs.Slot || readsScalar(e, lhs) })
	case *lang.ArrayRef:
		d.drop(func(_ int32, e lang.Expr) bool { return readsArray(e, lhs) })
	}
}

func (f *forward) stmts(list []lang.Stmt, d defs) {
	for i, s := range list {
		if s.Label() != 0 {
			d.reset()
		}
		switch s := s.(type) {
		case *lang.AssignStmt:
			f.subst(s, &d)
			d.store(s.Lhs)
			f.bind(s, &d)
		case *lang.IfStmt:
			f.subst(s, &d)
			f.stmts(s.Then, defs{m: d.m})
			for _, arm := range s.Elifs {
				f.stmts(arm.Body, defs{m: d.m})
			}
			f.stmts(s.Else, defs{m: d.m})
			// The IF's own write set covers every arm in one set; a
			// loop's body set below is the one the analyses read too.
			d.kill(f.fc.StmtsMod(list[i : i+1]))
		case *lang.DoStmt:
			// The bounds are evaluated once, before the body runs.
			f.subst(s, &d)
			d.kill(f.fc.StmtsMod(s.Body))
			d.store(s.Var)
			f.stmts(s.Body, defs{m: d.m})
		case *lang.WhileStmt:
			d.kill(f.fc.StmtsMod(s.Body))
			f.subst(s, &d)
			f.stmts(s.Body, defs{m: d.m})
		case *lang.CallStmt:
			if cu := f.fc.Info.Program.Unit(s.Name); cu != nil {
				d.kill(f.fc.Mod.GlobalsModifiedBy(cu))
			} else {
				d.reset()
			}
		case *lang.GotoStmt:
			d.reset()
		default:
			f.subst(s, &d)
		}
	}
}

// subst substitutes d into the expressions of s, but not into an
// assignment's target, and records s as rewritten if it substituted
// anything.
func (f *forward) subst(s lang.Stmt, d *defs) {
	if len(d.m) == 0 {
		return
	}
	hit := false
	var self int32
	lit := func(e lang.Expr) lang.Expr {
		if id, ok := e.(*lang.Ident); ok {
			if l := d.m[id.Slot]; isLiteral(l) {
				hit = true
				return literalAt(l, id.NamePos)
			}
		}
		return foldExpr(e)
	}
	def := func(e lang.Expr) lang.Expr {
		if id, ok := e.(*lang.Ident); ok && id.Slot != self {
			if x := d.m[id.Slot]; x != nil && !isLiteral(x) {
				hit = true
				return lang.CloneExpr(x)
			}
		}
		return e
	}
	if as, ok := s.(*lang.AssignStmt); ok {
		if id, ok := as.Lhs.(*lang.Ident); ok {
			self = id.Slot
		}
	}
	mapOperands(s, lit)
	mapOperands(s, def)
	if hit {
		f.ch.Rewrote(f.unit, s)
	}
}

// mapOperands is lang.MapStmtExprs but for an assignment's target, of
// which it maps only the subscripts.
func mapOperands(s lang.Stmt, fn func(lang.Expr) lang.Expr) {
	as, ok := s.(*lang.AssignStmt)
	if !ok {
		lang.MapStmtExprs(s, fn)
		return
	}
	if ar, ok := as.Lhs.(*lang.ArrayRef); ok {
		for i, a := range ar.Args {
			ar.Args[i] = lang.MapExpr(a, fn)
		}
	}
	as.Rhs = lang.MapExpr(as.Rhs, fn)
}

// bind lets the scalar s assigns stand for its right side, when that has
// the scalar's type, is definable and does not read the scalar.
func (f *forward) bind(s *lang.AssignStmt, d *defs) {
	id, ok := s.Lhs.(*lang.Ident)
	if !ok || id.Slot == 0 || !definable(s.Rhs) || readsScalar(s.Rhs, id) || f.fc.Info.TypeOf(f.unit, s.Rhs) != f.fc.Info.Symbol(id.Slot).Type {
		return
	}
	d.own()
	d.m[id.Slot] = s.Rhs
}

// definable reports whether the RHS is small enough to substitute:
// substituting huge expressions blows up the program.
func definable(e lang.Expr) bool {
	n := 0
	lang.WalkExpr(e, func(lang.Expr) bool {
		n++
		return n <= 8
	})
	return n <= 8
}

// readsArray reports whether e reads an element of the array a denotes.
func readsArray(e lang.Expr, a *lang.ArrayRef) bool {
	found := false
	lang.WalkExpr(e, func(x lang.Expr) bool {
		if r, ok := x.(*lang.ArrayRef); ok && !r.Intrinsic && r.Slot == a.Slot {
			found = true
		}
		return !found
	})
	return found
}

func isLiteral(e lang.Expr) bool {
	switch e.(type) {
	case *lang.IntLit, *lang.RealLit, *lang.BoolLit:
		return true
	}
	return false
}

// literalAt returns a copy of literal l at pos.
func literalAt(l lang.Expr, pos lang.Pos) lang.Expr {
	switch l := l.(type) {
	case *lang.IntLit:
		return &lang.IntLit{ValuePos: pos, Value: l.Value}
	case *lang.RealLit:
		return &lang.RealLit{ValuePos: pos, Value: l.Value}
	}
	return &lang.BoolLit{ValuePos: pos, Value: l.(*lang.BoolLit).Value}
}
