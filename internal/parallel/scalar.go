package parallel

import (
	"fmt"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/lang"
)

// privateScalars decides which scalars written in the loop body can be
// privatized, from the assignment solve over one iteration of the loop.
// A scalar carries a value across iterations when a read of it in the body
// finds it unassigned on some path from the header; the loop variable and
// the reduction variables are exempt. A scalar that some path through the
// iteration leaves unassigned also blocks when it is live-out, since the
// executor's copy-out from the last iteration would not reproduce the
// sequential final value.
func (p *Parallelizer) privateScalars(u *lang.Unit, loop *lang.DoStmt, redVars map[string]bool) (private, blockers []string) {
	iter := p.facts.Graph(u).Iteration(loop)
	head := iter[0]
	asg := dataflow.ComputeAssigned(iter, p.facts)
	mod := p.facts.StmtsMod(loop.Body)
	exempt := func(v string) bool { return v == loop.Var.Name || redVars[v] }

	exposed := map[string]bool{}
	for _, n := range iter[1:] {
		for _, v := range p.facts.Node(n).ScalarReads {
			if mod.Scalars[v] && !exempt(v) && !asg.Must(n, v) {
				exposed[v] = true
			}
		}
	}
	names := mod.SortedScalars()
	for _, v := range names {
		if exposed[v] {
			blockers = append(blockers, fmt.Sprintf("scalar %s carries a value across iterations", v))
		}
	}

	// An iteration ends at the back edges, so v is assigned on every path
	// through it when the source of each has v assigned or assigns it.
	assigned := func(v string) bool {
		for _, n := range head.Preds {
			if head.Encloses(n) && !asg.Must(n, v) && !slices.Contains(p.facts.Node(n).ScalarWrites, v) {
				return false
			}
		}
		return true
	}
	for _, v := range names {
		if exempt(v) || exposed[v] {
			continue
		}
		if !assigned(v) && p.priv.LiveOut(u, loop, v) {
			blockers = append(blockers, fmt.Sprintf("scalar %s is live-out but not assigned on every path", v))
			continue
		}
		private = append(private, v)
	}
	return private, blockers
}
