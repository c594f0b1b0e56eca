package parallel

import (
	"fmt"
	"sort"

	"repro/internal/lang"
)

// scalarCheck decides which scalars written inside a loop body can be
// privatized: every read of such a scalar in an iteration must be preceded
// (on all paths) by an assignment in the same iteration, unless the scalar
// is a recognised reduction. Live-out privatized scalars additionally need
// a must-assignment on every path through the iteration so the executor's
// last-iteration copy-out reproduces the sequential final value.
type scalarCheck struct {
	p       *Parallelizer
	u       *lang.Unit
	loop    *lang.DoStmt
	redVars map[string]bool

	written  map[string]bool // scalars written somewhere in the body
	exposed  map[string]bool
	assigned map[string]bool // must-assigned so far on all paths
}

func newScalarCheck(p *Parallelizer, u *lang.Unit, loop *lang.DoStmt, redVars map[string]bool) *scalarCheck {
	mod := p.facts.StmtsMod(loop.Body)
	return &scalarCheck{
		p: p, u: u, loop: loop, redVars: redVars,
		written:  mod.Scalars,
		exposed:  map[string]bool{},
		assigned: map[string]bool{},
	}
}

// run returns the privatized scalars and blockers.
func (sc *scalarCheck) run() (private []string, blockers []string) {
	// The loop variable is implicitly private and defined by the header.
	sc.assigned[sc.loop.Var.Name] = true

	sc.stmts(sc.loop.Body)

	var exposedVars []string
	for v := range sc.exposed {
		exposedVars = append(exposedVars, v)
	}
	sort.Strings(exposedVars)
	for _, v := range exposedVars {
		blockers = append(blockers, fmt.Sprintf("scalar %s carries a value across iterations", v))
	}

	var names []string
	for v := range sc.written {
		if v == sc.loop.Var.Name || sc.redVars[v] {
			continue
		}
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		if sc.exposed[v] {
			continue
		}
		if sc.liveAfter(v) && !sc.assigned[v] {
			blockers = append(blockers, fmt.Sprintf("scalar %s is live-out but not assigned on every path", v))
			continue
		}
		private = append(private, v)
	}
	return private, blockers
}

// read notes a read of scalar v at the current point.
func (sc *scalarCheck) read(v string) {
	if sc.written[v] && !sc.assigned[v] && !sc.redVars[v] && v != sc.loop.Var.Name {
		sc.exposed[v] = true
	}
}

func (sc *scalarCheck) readsOf(s lang.Stmt) {
	f := sc.p.facts.Stmt(s)
	for _, r := range f.ScalarReads {
		sc.read(r)
	}
}

func (sc *scalarCheck) stmts(stmts []lang.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *lang.AssignStmt:
			// Reduction updates read their own variable by design.
			sc.readsOf(s)
			if id, ok := s.Lhs.(*lang.Ident); ok {
				sc.assigned[id.Name] = true
			}
		case *lang.IfStmt:
			condReads := sc.p.facts.Cond(s, -1)
			for _, r := range condReads.ScalarReads {
				sc.read(r)
			}
			for i := range s.Elifs {
				ef := sc.p.facts.Cond(s, i)
				for _, r := range ef.ScalarReads {
					sc.read(r)
				}
			}
			base := copySet(sc.assigned)
			bodies := [][]lang.Stmt{s.Then}
			for i := range s.Elifs {
				bodies = append(bodies, s.Elifs[i].Body)
			}
			bodies = append(bodies, s.Else) // nil = empty fall-through arm
			var merged map[string]bool
			for _, b := range bodies {
				sc.assigned = copySet(base)
				sc.stmts(b)
				if merged == nil {
					merged = copySet(sc.assigned)
				} else {
					merged = intersect(merged, sc.assigned)
				}
			}
			sc.assigned = merged
		case *lang.DoStmt:
			sc.readsOf(s) // bounds
			base := copySet(sc.assigned)
			sc.assigned[s.Var.Name] = true
			sc.stmts(s.Body)
			// The body may execute zero times: only pre-existing facts
			// survive, plus the loop variable (defined by the header).
			base[s.Var.Name] = true
			sc.assigned = base
		case *lang.WhileStmt:
			sc.readsOf(s)
			base := copySet(sc.assigned)
			sc.stmts(s.Body)
			sc.readsOf(s) // the condition is re-evaluated after the body
			sc.assigned = base
		case *lang.GotoStmt, *lang.ContinueStmt:
			// no data effect
		default:
			sc.readsOf(s)
		}
	}
}

// liveAfter reports whether the scalar may be read after the loop.
func (sc *scalarCheck) liveAfter(v string) bool {
	sym := sc.p.facts.Info.LookupIn(sc.u, v)
	if sym == nil {
		return true
	}
	if sym.Global && !sc.u.IsMain {
		return true
	}
	seen := false
	after := false
	lang.WalkStmts(sc.u.Body, func(s lang.Stmt) bool {
		if s == lang.Stmt(sc.loop) {
			seen = true
			return false
		}
		if !seen {
			return true
		}
		f := sc.p.facts.Stmt(s)
		for _, r := range f.ScalarReads {
			if r == v {
				after = true
			}
		}
		for _, c := range f.Calls {
			if sym.Global && sc.p.facts.Info.Program.Unit(c) != nil {
				after = true
			}
		}
		return !after
	})
	return after
}

func copySet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
