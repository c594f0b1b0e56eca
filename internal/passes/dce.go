package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// EliminateDeadCode removes assignments to scalars that are never read in
// the program (locals: never read in their unit; globals: never read
// anywhere). Assignments with side-effect-free right-hand sides only — in
// F-lite every expression is side-effect-free. It returns the assignments
// it deleted.
func EliminateDeadCode(fc *dataflow.Context) dataflow.Changes {
	prog := fc.Info.Program
	// Collect all scalar reads, by symbol: a global's reads in any unit
	// and a local's in its own are reads of one slot.
	read := fc.NewModSet()
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			// A scalar read only by the right-hand side of assignments
			// to itself (v = v + 1) is still dead: skip self-reads.
			var self int32
			if as, ok := s.(*lang.AssignStmt); ok {
				if id, ok := as.Lhs.(*lang.Ident); ok {
					self = id.Slot
				}
			}
			for _, r := range fc.Stmt(s).ScalarReads {
				if r.Slot != self {
					read.Add(r.Slot)
				}
			}
			return true
		})
	}

	var ch dataflow.Changes
	dead := func(id *lang.Ident) bool {
		sym := fc.Info.Symbol(id.Slot)
		return sym != nil && sym.Kind == sem.ScalarSym && !read.Has(id.Slot)
	}
	for _, u := range prog.Units() {
		d := &dce{unit: u, dead: dead, ch: &ch}
		u.Body = d.stmts(u.Body)
	}
	return ch
}

// dce deletes the dead assignments of one unit.
type dce struct {
	unit *lang.Unit
	dead func(*lang.Ident) bool
	ch   *dataflow.Changes
}

// stmts deletes the dead assignments of a statement list and of the lists
// nested in it. It keeps the list, and copies it only from the first
// assignment it deletes; a list it empties becomes nil.
func (d *dce) stmts(stmts []lang.Stmt) []lang.Stmt {
	var out []lang.Stmt // nil until an assignment is deleted
	for i, s := range stmts {
		switch s := s.(type) {
		case *lang.AssignStmt:
			if id, ok := s.Lhs.(*lang.Ident); ok && d.dead(id) && s.Label() == 0 {
				d.ch.Delete(d.unit, s)
				if out == nil {
					out = append(make([]lang.Stmt, 0, len(stmts)-1), stmts[:i]...)
				}
				continue
			}
		case *lang.IfStmt:
			s.Then = d.stmts(s.Then)
			for i := range s.Elifs {
				s.Elifs[i].Body = d.stmts(s.Elifs[i].Body)
			}
			if s.Else != nil {
				s.Else = d.stmts(s.Else)
			}
		case *lang.DoStmt:
			s.Body = d.stmts(s.Body)
		case *lang.WhileStmt:
			s.Body = d.stmts(s.Body)
		}
		if out != nil {
			out = append(out, s)
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
