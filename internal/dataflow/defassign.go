package dataflow

import "repro/internal/cfg"

// ---------------------------------------------------------------------------
// Scalar assignment (one forward solve for must and may)

// Assigned holds, for every node of a region of one unit's flat CFG, the
// scalars assigned on entry to the node on every path from the region's
// entry (must) and on some path (may). At variable granularity "assigned
// on some path" is exactly "some definition reaches": over a whole unit,
// May(n, v) holds when ComputeReaching finds a definition of v reaching
// n, without building the definitions. Calls count as assignments of
// every global scalar the callee may modify, as in ComputeReaching.
//
// Each set is a row of dense bitset words, as a ModSet's: row n.ID minus
// the entry's ID, bit k for the scalar of slot k.
type Assigned struct {
	lo    int
	words int
	must  []uint64
	may   []uint64
}

// Must reports whether every path from the region's entry to n assigns
// the scalar of slot v. An unreachable node has no path, so every scalar
// is vacuously assigned there.
func (a *Assigned) Must(n *cfg.Node, v int32) bool { return a.has(a.must, n, v) }

// May reports whether some path from the region's entry to n assigns the
// scalar of slot v.
func (a *Assigned) May(n *cfg.Node, v int32) bool { return a.has(a.may, n, v) }

func (a *Assigned) has(rows []uint64, n *cfg.Node, v int32) bool {
	return rows[(n.ID-a.lo)*a.words+int(v/64)]&(1<<(v%64)) != 0
}

// ComputeAssigned solves both assignment problems over region, a run of
// the flat CFG of one of fc's units that starts at its entry: all of the
// graph's Nodes, entered at the unit entry, or one iteration of a DO loop
// (cfg.Graph.Iteration), entered at its header with the edges back to the
// header dropped, so the header's loop variable is assigned in the body.
// One forward pass runs to a fixpoint: in(n) is the intersection (must)
// or union (may) of out(p) over n's reachable predecessors, and out(n) =
// in(n) ∪ writes(n). Every predecessor of a region node but the entry
// lies in the region: sem rejects a jump into a nested block.
func ComputeAssigned(region []*cfg.Node, fc *Context) *Assigned {
	w := fc.Info.NumSymbols()/64 + 1
	a := &Assigned{lo: region[0].ID, words: w}
	// A call assigns what its callee's summary holds; its array bits are
	// never asked for.
	gen := make([]uint64, len(region)*w)
	for i, n := range region {
		f := fc.Node(n)
		row := ModSet{bits: gen[i*w : (i+1)*w]}
		for _, v := range f.ScalarWrites {
			row.Add(v.Slot)
		}
		for _, callee := range f.Calls {
			if cu := fc.Info.Program.Unit(callee); cu != nil {
				row.Union(fc.Mod.GlobalsModifiedBy(cu))
			}
		}
	}
	// Must starts at the top, every bit set, and shrinks; nothing is
	// assigned on entry to the entry. May starts empty and grows.
	a.must = make([]uint64, len(region)*w)
	for i := range a.must {
		a.must[i] = ^uint64(0)
	}
	clear(a.must[:w])
	a.may = make([]uint64, len(region)*w)

	order := cfg.RegionOrder(region)
	reached := make([]bool, len(region))
	for _, n := range order {
		reached[n.ID-a.lo] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order[1:] {
			row := (n.ID - a.lo) * w
			for k := 0; k < w; k++ {
				must, may := ^uint64(0), uint64(0)
				for _, p := range n.Preds {
					if !reached[p.ID-a.lo] {
						continue
					}
					j := (p.ID-a.lo)*w + k
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
