package passes

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// EliminateDeadCode removes assignments to scalars that are never read in
// the program (locals: never read in their unit; globals: never read
// anywhere). Assignments with side-effect-free right-hand sides only — in
// F-lite every expression is side-effect-free. Returns true on change.
func EliminateDeadCode(fc *dataflow.Context) bool {
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

	changed := false
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
		u.Body = dceStmts(u.Body, dead, &changed)
	}
	return changed
}

func dceStmts(stmts []lang.Stmt, dead func(string) bool, changed *bool) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *lang.AssignStmt:
			if id, ok := s.Lhs.(*lang.Ident); ok && dead(id.Name) && s.Label() == 0 {
				*changed = true
				continue
			}
		case *lang.IfStmt:
			s.Then = dceStmts(s.Then, dead, changed)
			for i := range s.Elifs {
				s.Elifs[i].Body = dceStmts(s.Elifs[i].Body, dead, changed)
			}
			if s.Else != nil {
				s.Else = dceStmts(s.Else, dead, changed)
				if len(s.Else) == 0 {
					s.Else = nil
				}
			}
		case *lang.DoStmt:
			s.Body = dceStmts(s.Body, dead, changed)
		case *lang.WhileStmt:
			s.Body = dceStmts(s.Body, dead, changed)
		}
		out = append(out, s)
	}
	return out
}
