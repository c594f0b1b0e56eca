package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// PropagateGlobalConstants performs interprocedural constant propagation:
// a global scalar assigned exactly one literal of its own type in the main
// program before any call, and never assigned anywhere else, is treated as
// that constant in every subroutine. It returns the statements it rewrote,
// constant folding's included.
func PropagateGlobalConstants(fc *dataflow.Context) dataflow.Changes {
	prog, info := fc.Info.Program, fc.Info
	var ch dataflow.Changes
	if prog.Main == nil {
		return ch
	}
	// Find candidate constants, by slot: leading literal assignments in
	// main to global scalars of the literal's type.
	consts := map[int32]lang.Expr{}
	for _, s := range prog.Main.Body {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			break // first non-assignment ends the prologue
		}
		id, ok := as.Lhs.(*lang.Ident)
		if !ok {
			continue
		}
		if isLiteral(as.Rhs) {
			consts[id.Slot] = as.Rhs
		} else {
			delete(consts, id.Slot)
		}
	}
	for slot, lit := range consts {
		if sym := info.Symbol(slot); sym == nil || sym.Kind != sem.ScalarSym || info.TypeOf(prog.Main, lit) != sym.Type {
			delete(consts, slot)
		}
	}
	if len(consts) == 0 {
		return ch
	}
	// Remove any assigned elsewhere (main after prologue included:
	// conservative — drop if assigned more than once anywhere).
	counts := map[int32]int{}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			for _, w := range fc.Stmt(s).ScalarWrites {
				counts[w.Slot]++
			}
			return true
		})
	}
	for slot := range consts {
		if counts[slot] != 1 {
			delete(consts, slot)
		}
	}
	if len(consts) == 0 {
		return ch
	}
	for _, u := range prog.Subs {
		hit := false
		subst := func(e lang.Expr) lang.Expr {
			id, ok := e.(*lang.Ident)
			if !ok {
				return e
			}
			lit, has := consts[id.Slot]
			if !has {
				return e
			}
			hit = true
			return literalAt(lit, id.NamePos)
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
