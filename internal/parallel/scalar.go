package parallel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
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
	exempt := func(slot int32, name string) bool { return slot == loop.Var.Slot || redVars[name] }

	exposed := p.facts.NewModSet()
	for _, n := range iter[1:] {
		for _, v := range p.facts.Node(n).ScalarReads {
			if mod.Has(v.Slot) && !exempt(v.Slot, v.Name) && !asg.Must(n, v.Slot) {
				exposed.Add(v.Slot)
			}
		}
	}
	var scalars []*sem.Symbol
	mod.Each(func(sym *sem.Symbol) {
		if sym.Kind == sem.ScalarSym {
			scalars = append(scalars, sym)
		}
	})
	sort.Slice(scalars, func(i, j int) bool { return scalars[i].Name < scalars[j].Name })
	for _, v := range scalars {
		if exposed.Has(v.Slot) {
			blockers = append(blockers, fmt.Sprintf("scalar %s carries a value across iterations", v.Name))
		}
	}

	// An iteration ends at the back edges, so v is assigned on every path
	// through it when the source of each has v assigned or assigns it.
	assigned := func(v *sem.Symbol) bool {
		writes := func(w *lang.Ident) bool { return w.Slot == v.Slot }
		for _, n := range head.Preds {
			if head.Encloses(n) && !asg.Must(n, v.Slot) && !slices.ContainsFunc(p.facts.Node(n).ScalarWrites, writes) {
				return false
			}
		}
		return true
	}
	for _, v := range scalars {
		if exempt(v.Slot, v.Name) || exposed.Has(v.Slot) {
			continue
		}
		if !assigned(v) && p.priv.LiveOut(u, loop, v) {
			blockers = append(blockers, fmt.Sprintf("scalar %s is live-out but not assigned on every path", v.Name))
			continue
		}
		private = append(private, v.Name)
	}
	return private, blockers
}
