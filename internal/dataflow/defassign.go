package dataflow

import "repro/internal/cfg"

// ---------------------------------------------------------------------------
// Scalar assignment (one forward solve for must and may)

// Assigned holds, for every node of one unit's flat CFG, the scalars
// assigned on entry to the node on every path from the unit entry (must)
// and on some path (may). At variable granularity "assigned on some path"
// is exactly "some definition reaches": May(n, v) holds when
// ComputeReaching finds a definition of v reaching n, without building
// the definitions. Calls count as assignments of every global scalar the
// callee may modify, as in ComputeReaching.
//
// Each set is a row of dense bitset words: row n.ID, bit i for the i-th
// scalar the unit reads or writes.
type Assigned struct {
	index map[string]int
	words int
	must  []uint64
	may   []uint64
}

// Must reports whether every path from the unit entry to n assigns v. An
// unreachable node has no path, so every scalar of the unit is vacuously
// assigned there.
func (a *Assigned) Must(n *cfg.Node, v string) bool { return a.has(a.must, n, v) }

// May reports whether some path from the unit entry to n assigns v.
func (a *Assigned) May(n *cfg.Node, v string) bool { return a.has(a.may, n, v) }

func (a *Assigned) has(rows []uint64, n *cfg.Node, v string) bool {
	i, ok := a.index[v]
	return ok && rows[n.ID*a.words+i/64]&(1<<(i%64)) != 0
}

// ComputeAssigned solves both assignment problems on the flat CFG g of one
// of fc's units in one forward pass to a fixpoint: in(n) is the
// intersection (must) or union (may) of out(p) over n's reachable
// predecessors, and out(n) = in(n) ∪ writes(n).
func ComputeAssigned(g *cfg.Graph, fc *Context) *Assigned {
	a := &Assigned{index: map[string]int{}}
	slot := func(v string) int {
		i, ok := a.index[v]
		if !ok {
			i = len(a.index)
			a.index[v] = i
		}
		return i
	}
	// The writes of node i are writes[start[i]:start[i+1]]; every scalar
	// the unit reads or writes gets a slot before the rows are sized.
	var writes []int
	start := make([]int, len(g.Nodes)+1)
	for i, n := range g.Nodes {
		f := fc.Node(n)
		for _, v := range f.ScalarWrites {
			writes = append(writes, slot(v))
		}
		for _, callee := range f.Calls {
			if cu := fc.Info.Program.Unit(callee); cu != nil {
				for v := range fc.Mod.GlobalsModifiedBy(cu).Scalars {
					writes = append(writes, slot(v))
				}
			}
		}
		for _, v := range f.ScalarReads {
			slot(v)
		}
		start[i+1] = len(writes)
	}

	w := (len(a.index) + 63) / 64
	a.words = w
	gen := make([]uint64, len(g.Nodes)*w)
	for i := range g.Nodes {
		for _, v := range writes[start[i]:start[i+1]] {
			gen[i*w+v/64] |= 1 << (v % 64)
		}
	}
	// Must starts at the top, every bit set, and shrinks; the entry, which
	// no path precedes, assigns nothing. May starts empty and grows.
	a.must = make([]uint64, len(g.Nodes)*w)
	for i := range a.must {
		a.must[i] = ^uint64(0)
	}
	clear(a.must[g.Entry.ID*w : (g.Entry.ID+1)*w])
	a.may = make([]uint64, len(g.Nodes)*w)

	order := g.ReversePostorder()
	reached := make([]bool, len(g.Nodes))
	for _, n := range order {
		reached[n.ID] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if n == g.Entry {
				continue
			}
			row := n.ID * w
			for k := 0; k < w; k++ {
				must, may := ^uint64(0), uint64(0)
				for _, p := range n.Preds {
					if !reached[p.ID] {
						continue
					}
					j := p.ID*w + k
					must &= a.must[j] | gen[j]
					may |= a.may[j] | gen[j]
				}
				if must != a.must[row+k] || may != a.may[row+k] {
					a.must[row+k], a.may[row+k] = must, may
					changed = true
				}
			}
		}
	}
	return a
}
