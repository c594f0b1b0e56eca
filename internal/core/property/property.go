// Package property implements the demand-driven interprocedural array
// property analysis of Lin & Padua (PLDI 2000), §3: a reverse query
// propagation over the hierarchical control graph that verifies — and in
// this implementation also derives — properties of index arrays at their
// use sites: value bounds, injectivity, monotonicity, closed-form values
// and closed-form distances.
//
// A query (st, section) asks whether the elements of an index array in
// section have the desired property when control reaches the point after
// st. Queries are propagated in reverse over the HCG (QuerySolver, Fig. 5),
// with one QueryProp variant per node class (Fig. 7): simple statements,
// DO headers met from outside (§3.2.5 case 1) and from inside (case 2,
// Fig. 10), call statements (case 3, Fig. 11) and procedure headers (case
// 4, query splitting, Fig. 12). Per-statement effects come from a
// PropertyChecker that pattern-matches definition idioms (§3.2.8), and
// whole-loop effects may be recognised directly — most importantly
// index-gathering loops (§4), whose detection reuses the single-indexed
// access analysis of §2. Kill is a MAY approximation and Gen a MUST
// approximation throughout (§3.2.3).
package property

import (
	"slices"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/section"
)

// Stats counts analysis work for the compilation-time accounting of
// Table 2.
type Stats struct {
	Queries       int
	NodesVisited  int
	LoopSummaries int
	GatherHits    int
	PatternHits   int
	// CacheHits / CacheMisses count VerifyCached lookups answered from /
	// added to the memo table; CacheInvalidations counts whole-table drops
	// (program mutation between queries). Queries counts only actual
	// propagations, so a cache hit increments CacheHits but not Queries.
	CacheHits          int
	CacheMisses        int
	CacheInvalidations int
	// SharedHits / SharedMisses are always zero: the cross-compilation
	// verdict table they counted is gone, and the fields stay only
	// because the benchmark module (perfbench) still reads them.
	SharedHits   int
	SharedMisses int
	// DerivedMonotonic / DerivedInjective / DerivedDistance count verdicts
	// discharged by the definition-site recurrence derivation (derive.go);
	// DerivedFailed counts recurrence-shaped fills whose increment signs
	// resisted proof. Surfaced as the property.derived.* metrics counters.
	DerivedMonotonic int
	DerivedInjective int
	DerivedDistance  int
	DerivedFailed    int
	// Elapsed is the wall-clock time spent answering queries, counted at
	// the outermost query only: a sub-query issued from inside another
	// query (a recurrence derivation's bounds check) adds nothing of its
	// own, so Elapsed never exceeds the wall time of the calls.
	Elapsed time.Duration
}

// Add accumulates o into s (durations and counters alike), merging the
// bookkeeping of several Analysis instances used in one compilation.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.NodesVisited += o.NodesVisited
	s.LoopSummaries += o.LoopSummaries
	s.GatherHits += o.GatherHits
	s.PatternHits += o.PatternHits
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheInvalidations += o.CacheInvalidations
	s.DerivedMonotonic += o.DerivedMonotonic
	s.DerivedInjective += o.DerivedInjective
	s.DerivedDistance += o.DerivedDistance
	s.DerivedFailed += o.DerivedFailed
	s.Elapsed += o.Elapsed
}

// Analysis bundles the program-wide structures the property analysis needs.
// One Analysis serves many queries; per-query state lives in a session.
type Analysis struct {
	// Facts is the compilation's fact context: the checked program, its
	// mod/ref summaries, and the flat CFGs and statement facts the gather
	// detection reads.
	Facts *dataflow.Context
	HP    *cfg.HProgram
	Stats Stats
	// Rec, when non-nil, receives one "query" span per Verify call and one
	// "query.step" event per propagation step, so a failed query can be
	// replayed as a tree (the `-explain` decision log).
	Rec *obs.Recorder
	// Intraprocedural restricts queries to one unit: a query reaching a
	// subroutine's entry fails instead of splitting to its call sites.
	// This models the original phase organization of Fig. 15(a), which
	// could not support interprocedural property analysis.
	Intraprocedural bool
	// NoRecurrence disables the definition-site recurrence derivation
	// (derive.go) — the `-no-recurrence` ablation.
	NoRecurrence bool
	// Guard is the cooperative cancellation / step-budget checkpoint,
	// polled once per propagated node. Nil (the default) is a disabled
	// guard; when set by a context-aware compilation, a fired deadline or
	// an exhausted query-step budget aborts the query mid-propagation
	// (recovered and typed at the pipeline boundary). The checkpoint only
	// reads, so verdicts are identical whenever it does not fire.
	Guard *comperr.Guard

	memo map[memoKey]memoEntry
	// epoch is the current program generation (see InvalidateCache);
	// memoLive counts the memo entries installed under it.
	epoch    int
	memoLive int
	// deriveDepth guards the nesting of recurrence derivations through
	// bounds sub-queries (an increment array may itself be filled by a
	// recurrence); see maxDeriveDepth.
	deriveDepth int
	// verifyDepth counts the Verify calls in progress, so that only the
	// outermost one adds to Stats.Elapsed: a nested sub-query's time is
	// already inside its parent's.
	verifyDepth int
}

// New builds an Analysis over the checked program of fc.
func New(fc *dataflow.Context, hp *cfg.HProgram) *Analysis {
	return &Analysis{Facts: fc, HP: hp}
}

// Verify checks whether the elements of sec have property prop when control
// reaches the point just after statement at. On success, derive-mode
// properties carry their derived facts (bounds, value, distance).
func (a *Analysis) Verify(prop Property, at lang.Stmt, sec *section.Section) bool {
	start := time.Now()
	a.verifyDepth++
	defer func() {
		elapsed := time.Since(start)
		// Decremented here so that a Guard abort, which panics through
		// Verify, cannot leave the depth raised.
		if a.verifyDepth--; a.verifyDepth == 0 {
			a.Stats.Elapsed += elapsed
		}
		// Per-kind latency histogram: always on, three atomic adds.
		a.Rec.Observe("query.duration:kind="+prop.Kind(), elapsed)
	}()
	a.Stats.Queries++
	// The query span and its per-node propagation steps format node labels
	// and section strings — Debug-level work, skipped in production.
	var sp *obs.Span
	if a.Rec.DebugEnabled() {
		sp = a.Rec.StartSpan("query",
			obs.F("prop", prop.String()),
			obs.F("array", prop.TargetArray()),
			obs.F("at", at.Pos().String()),
			obs.F("section", sec.String()))
	}
	node := a.HP.StmtNode(at)
	if node == nil {
		if sp != nil {
			a.Rec.Event("query.result", obs.Fb("ok", false), obs.F("reason", "no HCG node for use site"))
			sp.End()
		}
		return false
	}
	s := getSession(a, prop, sp != nil)
	seeds := map[*cfg.HNode]*section.Set{node: section.NewSet(sec)}
	ok := s.verifyFrom(node.Graph, seeds)
	// Return the session scratch to the pool only on the normal path: a
	// Guard abort panics through Verify mid-traversal, and the session is
	// then simply left for the GC (putting a half-walked session back
	// would be fine semantically, but the abort path should stay minimal).
	putSession(s)
	if sp != nil {
		a.Rec.Event("query.result", obs.Fb("ok", ok), obs.F("prop", prop.String()))
		sp.End()
	}
	return ok
}

// Replay verifies prop like Verify, but traced into rec, and leaves Stats
// and Rec as it found them: a diagnostic replay of a query adds nothing to
// the analysis bookkeeping (and so to Table 2's overhead share), and its
// trace goes only where the caller asked.
func (a *Analysis) Replay(rec *obs.Recorder, prop Property, at lang.Stmt, sec *section.Section) bool {
	savedRec, savedStats := a.Rec, a.Stats
	defer func() { a.Rec, a.Stats = savedRec, savedStats }()
	a.Rec = rec
	return a.Verify(prop, at, sec)
}

// IndirectRange bounds a subscript e that reads index arrays, as §5.1.4
// approximates {x(p(i)) | lo <= i <= hi} by x[min p : max p]. For each
// index array in e, in name order, it queries bounds(ia) at the statement
// at, over the hull of the subscripts ia occurs with in e
// (expr.IndexHull), and substitutes the derived bounds by the sign of each
// element's coefficient: the low end takes the lower bound where the
// coefficient is positive and the upper bound where it is negative, the
// high end the reverse. It declines when an element of ia has no plain
// integer coefficient. Then it bounds both ends over env. resolve, when
// non-nil, rewrites each derived bound before it is substituted. It
// returns the bounds properties it used, as privatization reports them.
func (a *Analysis) IndirectRange(e *expr.Expr, env expr.Env, at lang.Stmt, resolve func(*expr.Expr) *expr.Expr) (expr.Range, []string, bool) {
	arrays := expr.ArrayAtomNames(e)
	if len(arrays) == 0 {
		return expr.Range{}, nil, false
	}
	var props []string
	lo, hi := e, e
	for _, ia := range arrays {
		hull, ok := expr.IndexHull(ia, []*expr.Expr{e}, []expr.Env{env}, nil)
		if !ok {
			return expr.Range{}, nil, false
		}
		p, ok := a.VerifyCached(func() Property { return NewBounds(ia) }, at, section.New(ia, hull.Lo, hull.Hi))
		b, isB := p.(*Bounds)
		if !ok || !isB || b.Lo == nil || b.Hi == nil {
			return expr.Range{}, nil, false
		}
		props = append(props, b.String())
		bl, bh := b.Lo, b.Hi
		if resolve != nil {
			bl, bh = resolve(bl), resolve(bh)
		}
		var okLo, okHi bool
		lo, okLo = substByCoefSign(lo, ia, bl, bh)
		hi, okHi = substByCoefSign(hi, ia, bh, bl)
		if !okLo || !okHi {
			return expr.Range{}, nil, false
		}
	}
	rlo, ok1 := expr.Bounds(lo, env, nil)
	rhi, ok2 := expr.Bounds(hi, env, nil)
	if !ok1 || !ok2 {
		return expr.Range{}, nil, false
	}
	return expr.Range{Lo: rlo.Lo, Hi: rhi.Hi}, props, true
}

// substByCoefSign replaces each element of the index array ia in e by pos
// where its coefficient is positive and by neg where it is negative. ok is
// false when an element occurs other than as c·ia(s) with an integer c.
func substByCoefSign(e *expr.Expr, ia string, pos, neg *expr.Expr) (*expr.Expr, bool) {
	for _, x := range e.ArrayAtoms(ia) {
		c := e.CoefOf(x.Key)
		if c == 0 || e.WithoutTerm(x.Key).HasAtom(x.Key) {
			return nil, false
		}
		b := pos
		if c < 0 {
			b = neg
		}
		e = e.SubstAtom(x.Key, b)
	}
	return e, true
}

// sessionPool recycles session scratch (three maps per query) across
// Verify calls. Sessions never escape a query — verifyFrom and everything
// under it only read them — so pooling is safe; the maps are cleared on
// reuse, keeping their grown capacity.
var sessionPool = sync.Pool{New: func() any { return new(session) }}

func getSession(a *Analysis, prop Property, trace bool) *session {
	s := sessionPool.Get().(*session)
	s.a, s.prop, s.trace = a, prop, trace
	s.mod = a.Facts.NewModSet()
	if s.effects == nil {
		s.effects = map[*cfg.HNode][2]*section.Set{}
	} else {
		clear(s.effects)
	}
	return s
}

func putSession(s *session) {
	s.a, s.prop = nil, nil
	sessionPool.Put(s)
}

// session is the per-query state: the property being verified and the
// variables seen modified along the reverse traversal (used to reject
// derived facts whose free variables changed between definition and use,
// the "no redefinition in between" condition of §3).
type session struct {
	a    *Analysis
	prop Property
	// trace mirrors a.Rec.DebugEnabled(); checked before building event
	// fields so the production path never formats node labels.
	trace bool
	// mod accumulates everything modified by nodes the query passed
	// through — i.e. code between the use site and the definition sites
	// being examined.
	mod *dataflow.ModSet
	// effects memoizes nodeEffect per HCG node for this query: property
	// summaries are deterministic within a session (derive-state updates
	// are idempotent), and loop summaries are expensive.
	effects map[*cfg.HNode][2]*section.Set
}

// verifyFrom propagates the seeded queries backward within graph g and then
// upward (loop headers, callers) until fully verified or killed.
func (s *session) verifyFrom(g *cfg.HGraph, seeds map[*cfg.HNode]*section.Set) bool {
	killed, remain := s.solveGraph(g, seeds)
	if killed {
		return false
	}
	if remain.Empty() {
		return true
	}
	// The query reached the section entry unresolved.
	if g.Parent != nil {
		// Case 2 (Fig. 10): the query leaves a loop body through the
		// loop header.
		loopNode := g.Parent
		killed2, remainOut := s.queryPropLoopHeaderInside(loopNode, remain)
		if s.trace {
			s.a.Rec.Event("query.step",
				obs.F("class", "do-header-inside"),
				obs.F("node", loopNode.String()),
				obs.F("outcome", stepOutcome(killed2, remainOut)))
		}
		if killed2 {
			return false
		}
		if remainOut.Empty() {
			return true
		}
		return s.verifyFrom(loopNode.Graph, seedPreds(loopNode, remainOut))
	}
	// Case 4 (Fig. 12): the query reached a procedure header.
	if g.Unit == s.a.Facts.Info.Program.Main {
		// Elements not generated anywhere in the program: the paper
		// answers false.
		if s.trace {
			s.a.Rec.Event("query.step",
				obs.F("class", "proc-header"), obs.F("node", "entry of main"),
				obs.F("outcome", "killed: reached program entry unresolved"))
		}
		return false
	}
	if s.a.Intraprocedural {
		if s.trace {
			s.a.Rec.Event("query.step",
				obs.F("class", "proc-header"), obs.F("node", "entry of "+g.Unit.Name),
				obs.F("outcome", "killed: intraprocedural analysis cannot split to call sites"))
		}
		return false
	}
	sites := s.a.HP.CallSites(g.Unit.Name)
	if s.trace {
		s.a.Rec.Event("query.step",
			obs.F("class", "proc-header"), obs.F("node", "entry of "+g.Unit.Name),
			obs.F("outcome", "split"), obs.Fi("sites", int64(len(sites))))
	}
	if len(sites) == 0 {
		return false
	}
	for _, site := range sites {
		var sp *obs.Span
		if s.trace {
			sp = s.a.Rec.StartSpan("query.site", obs.F("node", site.String()),
				obs.F("unit", site.Graph.Unit.Name))
		}
		ok := s.verifyFrom(site.Graph, seedPreds(site, remain))
		sp.End()
		if !ok {
			return false
		}
	}
	return true
}

// stepOutcome labels a propagation step for the trace.
func stepOutcome(killed bool, remain *section.Set) string {
	switch {
	case killed:
		return "killed"
	case remain.Empty():
		return "discharged"
	default:
		return "propagated"
	}
}

// seedPreds builds a seed map placing the query after every predecessor of
// n in n's graph.
func seedPreds(n *cfg.HNode, set *section.Set) map[*cfg.HNode]*section.Set {
	seeds := map[*cfg.HNode]*section.Set{}
	for _, p := range n.Preds {
		seeds[p] = set.Clone()
	}
	if len(n.Preds) == 0 {
		// Defensive: treat as reaching the section entry directly.
		seeds[n.Graph.Entry] = set.Clone()
	}
	return seeds
}

// solveGraph is QuerySolver (Fig. 5) specialised to one section graph: the
// worklist is processed in reverse topological order, so every node is
// handled after all of its successors, and same-node queries are merged
// with a MAY union (the addU operation). It returns the killed flag and
// the unresolved remainder at the section entry.
func (s *session) solveGraph(g *cfg.HGraph, seeds map[*cfg.HNode]*section.Set) (bool, *section.Set) {
	pending := map[*cfg.HNode]*section.Set{}
	for n, set := range seeds {
		pending[n] = set
	}
	var atEntry *section.Set
	for _, n := range g.RTop() {
		set := pending[n]
		if set.Empty() {
			continue
		}
		if n == g.Entry {
			atEntry = set
			continue
		}
		killed, remain := s.queryProp(n, set)
		if killed {
			return true, nil
		}
		if remain.Empty() {
			continue // early termination for this strand of the query
		}
		for _, p := range n.Preds {
			if pending[p] == nil {
				pending[p] = remain.Clone()
			} else {
				pending[p].UnionMay(remain) // addU
			}
		}
		if len(n.Preds) == 0 && n != g.Entry {
			// Unreachable node (e.g. after goto rerouting): route to
			// entry conservatively.
			if atEntry == nil {
				atEntry = remain.Clone()
			} else {
				atEntry.UnionMay(remain)
			}
		}
	}
	if atEntry == nil {
		atEntry = section.NewSet()
	}
	return false, atEntry
}

// queryProp is the reverse query propagation framework of Fig. 6,
// dispatching on the node class (Fig. 7). With tracing enabled it emits one
// "query.step" event per node carrying the node class, the HCG node label
// and the step outcome (killed / discharged / propagated).
func (s *session) queryProp(n *cfg.HNode, set *section.Set) (bool, *section.Set) {
	s.a.Guard.Step()
	s.a.Stats.NodesVisited++
	if !s.trace {
		return s.queryPropClass(n, set)
	}
	var sp *obs.Span
	if n.Kind == cfg.NCall {
		// Case 3 descends into the callee; nest its steps under a span.
		sp = s.a.Rec.StartSpan("query.call", obs.F("node", n.String()))
	}
	killed, remain := s.queryPropClass(n, set)
	sp.End()
	s.a.Rec.Event("query.step",
		obs.F("class", n.Kind.String()),
		obs.F("node", n.String()),
		obs.F("outcome", stepOutcome(killed, remain)))
	return killed, remain
}

// queryPropClass implements the per-node-class propagation.
func (s *session) queryPropClass(n *cfg.HNode, set *section.Set) (bool, *section.Set) {
	var kill, gen *section.Set

	switch n.Kind {
	case cfg.NEntry, cfg.NExit, cfg.NIfCond:
		// Conditions and markers only read values.
		kill, gen = section.NewSet(), section.NewSet()

	case cfg.NStmt:
		kill, gen = s.summarizeSimpleNode(n)

	case cfg.NCall:
		// Case 3 (Fig. 11): construct a sub-problem whose initial query
		// node is the exit of the callee.
		callee := s.a.HP.UnitGraph(n.Stmt.(*lang.CallStmt).Name)
		if callee == nil {
			return true, nil
		}
		killed, remain := s.solveGraph(callee, map[*cfg.HNode]*section.Set{callee.Exit: set.Clone()})
		if killed {
			return true, nil
		}
		s.noteMods(s.a.Facts.Mod.GlobalsModifiedBy(callee.Unit))
		return s.checkRemainVars(n, remain)

	case cfg.NDoHead:
		// Case 1 (§3.2.5): the query meets the loop from outside.
		kill, gen = s.summarizeLoop(n)

	case cfg.NWhileHead:
		kill, gen = s.summarizeWhile(n)

	default:
		return true, nil
	}

	// anykilled: some element of the query may have its property killed.
	if set.IntersectsWith(kill) {
		return true, nil
	}
	s.noteMods(s.nodeMod(n))

	var remain *section.Set
	if s.prop.Relational() {
		// Relational properties (injectivity, monotonicity) hold of a
		// section as a whole: only full containment in a single Gen
		// section discharges a query section.
		remain = section.NewSet()
		for _, qs := range set.Sections() {
			discharged := false
			for _, gs := range gen.Sections() {
				if gs.Contains(qs) {
					discharged = true
					break
				}
			}
			if !discharged {
				remain.AddMay(qs)
			}
		}
	} else {
		remain = set.SubtractMay(gen)
	}
	return s.checkRemainVars(n, remain)
}

// checkRemainVars kills the query when it must propagate past a node that
// modifies a variable its section bounds or its property facts depend on.
func (s *session) checkRemainVars(n *cfg.HNode, remain *section.Set) (bool, *section.Set) {
	if remain.Empty() {
		return false, remain
	}
	mod := s.nodeMod(n)
	vars, arrays := s.prop.Mentions()
	for _, names := range [][]string{setVars(remain), vars, arrays} {
		if slices.ContainsFunc(names, mod.HasName) {
			return true, nil
		}
	}
	return false, remain
}

// noMod is the write set of the nodes that only read.
var noMod dataflow.ModSet

// nodeMod returns everything node n may modify (transitively through calls
// and nested loops).
func (s *session) nodeMod(n *cfg.HNode) *dataflow.ModSet {
	switch n.Kind {
	case cfg.NEntry, cfg.NExit, cfg.NIfCond: // a condition only reads
		return &noMod
	default:
		return s.a.Facts.StmtsMod([]lang.Stmt{n.Stmt})
	}
}

func (s *session) noteMods(m *dataflow.ModSet) { s.mod.Union(m) }

// seenModified reports whether any of the named scalars or arrays was
// modified by code the query already traversed (between definition and
// use). A query's sections and facts cross units without renaming, so the
// property analysis tests a name against every symbol of that name
// (ModSet.HasName), never against one unit's scope.
func (s *session) seenModified(vars, arrays []string) bool {
	return slices.ContainsFunc(vars, s.mod.HasName) || slices.ContainsFunc(arrays, s.mod.HasName)
}

// setVars collects the scalar variable names mentioned by the bounds of all
// sections in a set.
func setVars(set *section.Set) []string {
	var out []string
	add := func(e *expr.Expr) {
		if e == nil {
			return
		}
		lang.WalkExpr(e.ToAST(), func(x lang.Expr) bool {
			if id, ok := x.(*lang.Ident); ok && !slices.Contains(out, id.Name) {
				out = append(out, id.Name)
			}
			return true
		})
	}
	for _, sec := range set.Sections() {
		for _, d := range sec.Dims {
			add(d.Lo)
			add(d.Hi)
		}
	}
	return out
}

// exprVars collects the scalar variable names mentioned by a symbolic
// expression (including inside opaque atoms).
func exprVars(e *expr.Expr) []string {
	if e == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	lang.WalkExpr(e.ToAST(), func(x lang.Expr) bool {
		if id, ok := x.(*lang.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

// exprArrays collects the array names mentioned by a symbolic expression.
func exprArrays(e *expr.Expr) []string {
	if e == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	lang.WalkExpr(e.ToAST(), func(x lang.Expr) bool {
		if ar, ok := x.(*lang.ArrayRef); ok && !ar.Intrinsic && !seen[ar.Name] {
			seen[ar.Name] = true
			out = append(out, ar.Name)
		}
		return true
	})
	return out
}
