package property

import (
	"repro/internal/cfg"
	"repro/internal/core/bdfs"
	"repro/internal/core/singleindex"
	"repro/internal/expr"
	"repro/internal/lang"
)

// GatherInfo describes a recognised index-gathering loop (§4): after the
// loop, the index array holds injective, strictly increasing values in
// [ValLo:ValHi], stored consecutively in elements [Base+1 : Counter].
type GatherInfo struct {
	Counter    string     // the position counter (q in Fig. 14)
	Base       *expr.Expr // the counter's value on loop entry (Cbottom analogue)
	ValLo      *expr.Expr // lower bound of the gathered values (loop lower bound)
	ValHi      *expr.Expr // upper bound of the gathered values (loop upper bound)
	Increasing bool       // values strictly increase with the element index
}

// detectGather recognises an index-gathering loop for the given array at
// the HDo node n, per the five conditions of §4:
//
//  1. the loop is a DO loop;
//  2. the index array is single-indexed in the loop (by a counter q);
//  3. the index array is consecutively written in the loop;
//  4. the right-hand side of every assignment of the index array is the
//     loop index;
//  5. one assignment of the index array cannot reach another without first
//     reaching the DO loop header (verified with a bDFS).
//
// Additionally the counter's entry value must be discoverable (an
// invariant assignment on the unique path immediately before the loop) so
// the generated section has a concrete lower bound.
func (s *session) detectGather(n *cfg.HNode, array string) *GatherInfo {
	if n.Kind != cfg.HDo {
		return nil
	}
	d := n.Stmt.(*lang.DoStmt)
	g := s.a.Facts.Graph(n.Graph.Unit)
	loop := g.LoopFor(d)
	if loop == nil {
		return nil
	}

	// Condition 2: single-indexed.
	var acc *singleindex.Access
	for _, a := range singleindex.Find(s.a.Facts, g, loop) {
		if a.Array == array {
			acc = a
			break
		}
	}
	if acc == nil {
		return nil
	}
	acc.Check = s.a.Guard.CheckFn()
	counter := acc.Index
	if counter == d.Var.Name {
		return nil // the counter must be distinct from the loop index
	}

	// Condition 3: consecutively written (increasing).
	cw := singleindex.CheckConsecutivelyWritten(acc)
	if cw == nil || !cw.Increasing {
		return nil
	}

	// Condition 4: every write's RHS is the loop index.
	var writeStmts []lang.Stmt
	for _, wn := range acc.Writes {
		as, ok := wn.Stmt.(*lang.AssignStmt)
		if !ok {
			return nil
		}
		id, ok := as.Rhs.(*lang.Ident)
		if !ok || id.Name != d.Var.Name {
			return nil
		}
		writeStmts = append(writeStmts, wn.Stmt)
	}
	if len(writeStmts) == 0 {
		return nil
	}

	// The loop index must not be modified inside the body (otherwise the
	// "same value never assigned twice" guarantee of condition 4 breaks).
	bodyMod := s.a.Facts.StmtsMod(d.Body)
	if bodyMod.Scalars[d.Var.Name] {
		return nil
	}

	// Condition 5: no write reaches another write without passing the DO
	// header.
	isWrite := map[*cfg.Node]bool{}
	for _, wn := range acc.Writes {
		isWrite[wn] = true
	}
	sentinel := &cfg.Node{ID: -1, Kind: cfg.NExit}
	succs := func(nd *cfg.Node) []*cfg.Node {
		if nd == sentinel {
			return nil
		}
		var out []*cfg.Node
		exited := false
		for _, sc := range nd.Succs {
			if loop.Contains(sc) {
				out = append(out, sc)
			} else {
				exited = true
			}
		}
		if exited {
			out = append(out, sentinel)
		}
		return out
	}
	for _, wn := range acc.Writes {
		res := bdfs.RunFromSuccessors(wn, bdfs.Config{
			Succs:   succs,
			FBound:  func(nd *cfg.Node) bool { return nd == loop.Head },
			FFailed: func(nd *cfg.Node) bool { return isWrite[nd] },
			Check:   s.a.Guard.CheckFn(),
		})
		if res == bdfs.Failed {
			return nil
		}
	}

	// Counter base value: an invariant assignment immediately preceding
	// the loop in the HCG.
	base := s.counterBase(n, counter, array)
	if base == nil {
		return nil
	}

	lo, hi, _, okRange := envRange(d)
	gi := &GatherInfo{
		Counter:    counter,
		Base:       base,
		Increasing: true,
	}
	if okRange {
		gi.ValLo, gi.ValHi = lo, hi
	}
	return gi
}

// counterBase walks the unique-predecessor chain above the loop node
// looking for an invariant assignment to the counter, skipping statements
// that cannot affect the counter or the gathered array.
func (s *session) counterBase(loopNode *cfg.HNode, counter, array string) *expr.Expr {
	cur := loopNode
	for steps := 0; steps < 64; steps++ {
		if len(cur.Preds) != 1 {
			return nil
		}
		p := cur.Preds[0]
		switch p.Kind {
		case cfg.HStmt:
			if as, ok := p.Stmt.(*lang.AssignStmt); ok {
				if id, ok := as.Lhs.(*lang.Ident); ok && id.Name == counter {
					v := expr.FromAST(as.Rhs)
					if v.MentionsVar(counter) {
						return nil
					}
					return v
				}
			}
			// Any other modification of the counter or the array on the
			// path hides the base.
			mod := s.nodeMod(p)
			if mod.Scalars[counter] || mod.Arrays[array] {
				return nil
			}
		case cfg.HIf:
			// Pure test: skip.
		default:
			// Entry, loops, calls: give up.
			return nil
		}
		cur = p
	}
	return nil
}
