package dataflow

import "repro/internal/cfg"

// ---------------------------------------------------------------------------
// Definite assignment (forward must-analysis)

// Definite maps every CFG node to the set of scalars definitely assigned on
// entry: a variable is in the set iff every path from the unit entry to the
// node writes it. Calls count as definitions of every global the callee may
// modify, matching ComputeReaching's conservative treatment.
type Definite struct {
	In map[*cfg.Node]map[string]bool
}

// AssignedAt reports whether v is definitely assigned on entry to n.
func (d *Definite) AssignedAt(n *cfg.Node, v string) bool { return d.In[n][v] }

// ComputeDefinite runs the forward must-analysis companion of
// ComputeReaching: out(n) = in(n) ∪ writes(n), in(n) = ∩ over predecessors.
// Unreachable nodes keep the full universe (vacuously assigned on every
// path, since there is none). g is the flat CFG of one of fc's units.
func ComputeDefinite(g *cfg.Graph, fc *Context) *Definite {
	univ := map[string]bool{}
	gen := map[*cfg.Node]map[string]bool{}
	for _, n := range g.Nodes {
		f := fc.Node(n)
		w := map[string]bool{}
		for _, v := range f.ScalarWrites {
			w[v] = true
			univ[v] = true
		}
		for _, callee := range f.Calls {
			if cu := fc.Info.Program.Unit(callee); cu != nil {
				for _, v := range fc.Mod.GlobalsModifiedBy(cu).SortedScalars() {
					w[v] = true
					univ[v] = true
				}
			}
		}
		for _, v := range f.ScalarReads {
			univ[v] = true
		}
		gen[n] = w
	}

	in := map[*cfg.Node]map[string]bool{}
	out := map[*cfg.Node]map[string]bool{}
	full := func() map[string]bool {
		m := make(map[string]bool, len(univ))
		for v := range univ {
			m[v] = true
		}
		return m
	}
	for _, n := range g.Nodes {
		if n == g.Entry {
			in[n] = map[string]bool{}
			out[n] = map[string]bool{}
			continue
		}
		// Must-analysis top: start from the universe and intersect down.
		in[n] = full()
		out[n] = full()
	}
	for v := range gen[g.Entry] {
		out[g.Entry][v] = true
	}

	order := g.ReversePostorder()
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			if n == g.Entry {
				continue
			}
			ni := in[n]
			for v := range ni {
				keep := true
				for _, p := range n.Preds {
					if !out[p][v] {
						keep = false
						break
					}
				}
				if !keep {
					delete(ni, v)
					changed = true
				}
			}
			no := out[n]
			for v := range no {
				if !ni[v] && !gen[n][v] {
					delete(no, v)
					changed = true
				}
			}
		}
	}
	return &Definite{In: in}
}
