package property

import (
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// summarizeSimpleNode computes the (Kill, Gen) effect of one simple
// statement on the property (the SummarizeSimpleNode of §3.2.4, delegated
// to the PropertyChecker for assignments).
func (s *session) summarizeSimpleNode(n *cfg.HNode) (kill, gen *section.Set) {
	switch st := n.Stmt.(type) {
	case *lang.AssignStmt:
		return s.prop.SummarizeAssign(s.ctxFor(n), st)
	default:
		// print/goto/continue/return/stop have no data effect.
		return section.NewSet(), section.NewSet()
	}
}

// envRange returns the value range of a DO loop's index, handling negative
// constant steps. ok is false for unknown steps (the range is then
// unusable for MUST reasoning).
func envRange(d *lang.DoStmt) (lo, hi *expr.Expr, dense, ok bool) {
	loE, hiE := expr.FromAST(d.Lo), expr.FromAST(d.Hi)
	if d.Step == nil {
		return loE, hiE, true, true
	}
	c, isConst := expr.FromAST(d.Step).IsConst()
	switch {
	case isConst && c == 1:
		return loE, hiE, true, true
	case isConst && c == -1:
		return hiE, loE, true, true
	case isConst && c > 1:
		return loE, hiE, false, true
	case isConst && c < -1:
		return hiE, loE, false, true
	default:
		return nil, nil, false, false
	}
}

// summarizeLoop computes the (Kill, Gen) of executing a whole DO loop
// (§3.2.5 case 1). The property checker gets the first shot — this is
// where index-gathering loops (§4) and recurrence idioms (§3.2.8) are
// recognised — and the generic path aggregates the loop-body summary over
// the index range with the Gross–Steenkiste-style aggregation.
func (s *session) summarizeLoop(n *cfg.HNode) (kill, gen *section.Set) {
	s.a.Stats.LoopSummaries++
	if k, g, ok := s.prop.SummarizeLoop(s.ctxFor(n), n); ok {
		return k, g
	}
	d := n.Stmt.(*lang.DoStmt)
	bodyKill, bodyGen := s.summarizeGraph(n.Body)

	lo, hi, dense, okRange := envRange(d)
	v := d.Var.Name
	a := s.a.Assume

	// Sections whose bounds depend on scalars the body itself modifies
	// (other than the loop variable) cannot be aggregated: their meaning
	// changes across iterations.
	bodyMod := s.a.Facts.StmtsMod(d.Body)

	kill = section.NewSet()
	for _, sec := range bodyKill.Sections() {
		bad := false
		for _, sv := range setVars(section.NewSet(sec)) {
			if sv != v && bodyMod.Scalars[sv] {
				bad = true
				break
			}
		}
		if bad || !okRange {
			kill.AddMay(section.Universal(sec.Array, len(sec.Dims)), a)
			continue
		}
		kill.AddMay(sec.AggregateMay(v, lo, hi, a), a)
	}

	gen = section.NewSet()
	// MUST-gen requires a dense index range. A zero-trip loop is handled
	// by the symbolic section itself: the aggregate of an affine section
	// over [lo:hi] has provably empty bounds exactly when lo > hi, so an
	// empty loop generates an empty section.
	if okRange && dense && lo != nil && hi != nil && !n.Body.Cyclic {
		for _, sec := range bodyGen.Sections() {
			bad := false
			for _, sv := range setVars(section.NewSet(sec)) {
				if sv != v && bodyMod.Scalars[sv] {
					bad = true
					break
				}
			}
			if bad {
				continue
			}
			if agg := sec.AggregateMust(v, lo, hi, a); agg != nil {
				gen.AddMust(agg, a)
			}
		}
		// Gen must survive the kills of other iterations.
		gen = gen.SubtractMust(kill, a)
	}
	return kill, gen
}

// summarizeWhile conservatively summarizes a DO WHILE loop: its trip count
// is unknown, so nothing is certainly generated, and everything the body
// may write to the queried arrays is killed.
func (s *session) summarizeWhile(n *cfg.HNode) (kill, gen *section.Set) {
	w := n.Stmt.(*lang.WhileStmt)
	bodyKill, bodyGen := s.summarizeGraph(n.Body)
	kill = section.NewSet()
	for _, sec := range bodyKill.Sections() {
		kill.AddMay(section.Universal(sec.Array, len(sec.Dims)), s.a.Assume)
	}
	// Anything the body might generate is also unreliable (zero-trip).
	for _, sec := range bodyGen.Sections() {
		kill.AddMay(section.Universal(sec.Array, len(sec.Dims)), s.a.Assume)
	}
	_ = w
	return kill, section.NewSet()
}

// summarizeGraph computes the (Kill, Gen) of executing one section graph
// from entry to exit, following SummarizeProgSection (Fig. 9): a backward
// sweep in reverse topological order maintaining, per node, the MUST-Gen of
// the paths from that node's completion to the exit; kills not regenerated
// later accumulate into Kill. Cyclic sections (goto loops, escaped loops)
// are summarized conservatively.
func (s *session) summarizeGraph(g *cfg.HGraph) (kill, gen *section.Set) {
	a := s.a.Assume
	kill = section.NewSet()
	if g.Cyclic {
		// One statement at a time, so the memoized sets are reused.
		mod := dataflow.NewModSet()
		for _, st := range stmtsOf(g) {
			for arr := range s.a.Facts.StmtsMod([]lang.Stmt{st}).Arrays {
				mod.Arrays[arr] = true
			}
		}
		for _, arr := range mod.SortedArrays() {
			nd := 1
			if sym := s.a.Facts.Info.LookupIn(g.Unit, arr); sym != nil {
				nd = len(sym.Dims)
			}
			kill.AddMay(section.Universal(arr, nd), a)
		}
		return kill, section.NewSet()
	}

	// after[n] = MUST-gen of all paths from (just after) n to the exit.
	after := map[*cfg.HNode]*section.Set{}
	for _, n := range g.RTop() { // exit first
		if n == g.Exit {
			after[n] = section.NewSet()
			continue
		}
		// Combine successors: an element is certainly generated after n
		// iff it is on every outgoing path.
		var combined *section.Set
		for _, succ := range n.Succs {
			contrib := after[succ].Clone()
			nk, ng := s.nodeEffect(succ)
			// Executing succ first: its own gen counts, minus later
			// kills which are already excluded from after[succ]; its
			// kill removes from after[succ]? No: after[succ] is what
			// paths *after succ* generate; succ's kill applies to gens
			// before it, handled at accumulation below.
			contrib.UnionMust(ng, a)
			_ = nk
			if combined == nil {
				combined = contrib
			} else {
				combined = combined.IntersectMust(contrib, a)
			}
		}
		if combined == nil {
			combined = section.NewSet()
		}
		after[n] = combined
	}

	// Accumulate kills: a kill at node n matters unless the killed
	// elements are certainly regenerated after n.
	for _, n := range g.RTop() {
		if n == g.Exit || n == g.Entry {
			continue
		}
		nk, _ := s.nodeEffect(n)
		net := nk.SubtractMay(after[n], a)
		for _, sec := range net.Sections() {
			kill.AddMay(sec, a)
		}
	}

	gen = after[g.Entry]
	if gen == nil {
		gen = section.NewSet()
	}
	return kill, gen
}

// nodeEffect returns the (Kill, Gen) of one HCG node, recursing into loops
// and calls (SummarizeSimpleNode / SummarizeLoop / SummarizeProcedure of
// Fig. 9 lines 12–19). Results are memoized per session: property state
// updates (derived values, bound hulls) are idempotent, so recomputation
// would only waste time.
func (s *session) nodeEffect(n *cfg.HNode) (kill, gen *section.Set) {
	if e, ok := s.effects[n]; ok {
		return e[0], e[1]
	}
	kill, gen = s.nodeEffectUncached(n)
	s.effects[n] = [2]*section.Set{kill, gen}
	return kill, gen
}

func (s *session) nodeEffectUncached(n *cfg.HNode) (kill, gen *section.Set) {
	switch n.Kind {
	case cfg.HEntry, cfg.HExit, cfg.HIf:
		return section.NewSet(), section.NewSet()
	case cfg.HStmt:
		return s.summarizeSimpleNode(n)
	case cfg.HDo:
		return s.summarizeLoop(n)
	case cfg.HWhile:
		return s.summarizeWhile(n)
	case cfg.HCall:
		callee := s.a.HP.UnitGraph(n.Stmt.(*lang.CallStmt).Name)
		if callee == nil {
			return section.NewSet(), section.NewSet()
		}
		return s.summarizeGraph(callee)
	}
	return section.NewSet(), section.NewSet()
}

// queryPropLoopHeaderInside is QueryProp_doheader (Fig. 10): the query
// originated inside iteration i of the loop and reaches the loop header.
// Earlier iterations may kill or generate the queried elements; the
// remainder is aggregated over the whole index range before continuing to
// the loop's predecessors.
func (s *session) queryPropLoopHeaderInside(n *cfg.HNode, set *section.Set) (bool, *section.Set) {
	a := s.a.Assume
	if n.Kind == cfg.HWhile {
		// Earlier iterations of a WHILE loop: conservatively reject if
		// the body touches the queried arrays at all; otherwise pass
		// the query through unchanged (nothing in the body concerns it).
		bodyKill, bodyGen := s.summarizeGraph(n.Body)
		if set.IntersectsWith(bodyKill, a) || set.IntersectsWith(bodyGen, a) {
			return true, nil
		}
		mod := s.a.Facts.StmtsMod(n.Stmt.(*lang.WhileStmt).Body)
		for _, v := range setVars(set) {
			if mod.Scalars[v] {
				return true, nil
			}
		}
		return false, set
	}

	d := n.Stmt.(*lang.DoStmt)
	v := d.Var.Name
	lo, hi, _, okRange := envRange(d)
	bodyKill, _ := s.summarizeGraph(n.Body)
	bodyMod := s.a.Facts.StmtsMod(d.Body)

	// Kill check against all other iterations (a superset of the paper's
	// "iterations before i", which is sound).
	killAgg := section.NewSet()
	for _, sec := range bodyKill.Sections() {
		if !okRange {
			killAgg.AddMay(section.Universal(sec.Array, len(sec.Dims)), a)
			continue
		}
		killAgg.AddMay(sec.AggregateMay(v, lo, hi, a), a)
	}
	if set.IntersectsWith(killAgg, a) {
		return true, nil
	}

	// The query section may mention the loop variable and body-modified
	// scalars; aggregate it over the whole range (MAY: over-approximate).
	remain := section.NewSet()
	for _, sec := range set.Sections() {
		// Scalars other than the loop variable that the body modifies
		// make the section meaningless outside the loop.
		for _, sv := range setVars(section.NewSet(sec)) {
			if sv != v && bodyMod.Scalars[sv] {
				return true, nil
			}
		}
		if !okRange {
			if sec.Dims[0].Lo != nil || sec.Dims[0].Hi != nil {
				// Only aggregate with a known range; otherwise widen.
				remain.AddMay(section.Universal(sec.Array, len(sec.Dims)), a)
				continue
			}
		}
		remain.AddMay(sec.AggregateMay(v, lo, hi, a), a)
	}
	return false, remain
}

// stmtsOf collects the top-level statements of a section graph.
func stmtsOf(g *cfg.HGraph) []lang.Stmt {
	var out []lang.Stmt
	seen := map[lang.Stmt]bool{}
	for _, n := range g.Nodes {
		if n.Stmt != nil && !seen[n.Stmt] {
			seen[n.Stmt] = true
			out = append(out, n.Stmt)
		}
	}
	return out
}
