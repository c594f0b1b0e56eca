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
	prog, info := fc.Info.Program, fc.Info
	// Collect all scalar reads, per unit and globally.
	globalReads := map[string]bool{}
	unitReads := map[*lang.Unit]map[string]bool{}
	for _, u := range prog.Units() {
		reads := map[string]bool{}
		unitReads[u] = reads
		sc := info.Scope(u)
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			f := fc.Stmt(s)
			// A scalar read only by the right-hand side of assignments
			// to itself (v = v + 1) is still dead: skip self-reads.
			selfTarget := ""
			if as, ok := s.(*lang.AssignStmt); ok {
				if id, ok := as.Lhs.(*lang.Ident); ok {
					selfTarget = id.Name
				}
			}
			for _, r := range f.ScalarReads {
				if r == selfTarget {
					continue
				}
				reads[r] = true
				if sym := sc.Lookup(r); sym != nil && sym.Global {
					globalReads[r] = true
				}
			}
			return true
		})
	}

	var ch dataflow.Changes
	for _, u := range prog.Units() {
		sc := info.Scope(u)
		dead := func(name string) bool {
			sym := sc.Lookup(name)
			if sym == nil || sym.Kind != sem.ScalarSym {
				return false
			}
			if sym.Global {
				return !globalReads[name]
			}
			return !unitReads[u][name]
		}
		d := &dce{unit: u, dead: dead, ch: &ch}
		u.Body = d.stmts(u.Body)
	}
	return ch
}

// dce deletes the dead assignments of one unit.
type dce struct {
	unit *lang.Unit
	dead func(string) bool
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
			if id, ok := s.Lhs.(*lang.Ident); ok && d.dead(id.Name) && s.Label() == 0 {
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
