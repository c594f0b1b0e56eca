// Package privatize implements the array privatization test of the paper's
// evaluation pipeline (§5.1.4): an array can be privatized for a loop when
// its upward-exposed read set in each iteration is empty — every element
// read in an iteration was written earlier in the same iteration.
//
// The baseline test (Tu–Padua style) handles affine accesses by computing
// per-iteration MUST write sections and MAY read sections. It is extended
// exactly as §5.1.4 describes:
//
//   - consecutively-written arrays (§2.2): the write section of a loop that
//     fills x(p), p incrementing from a known entry value C, is [C+1 : p];
//   - array stacks (§2.3): a stack whose pointer is reset at the start of
//     each iteration is privatizable outright;
//   - simple indirect reads x(ind(j)): approximated to x[lo:hi] using the
//     closed-form bounds of the index array from the property analysis.
package privatize

import (
	"fmt"
	"slices"

	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/core/singleindex"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// Reason names the technique that made an array privatizable.
type Reason string

// Reasons.
const (
	ReasonAffine   Reason = "affine"
	ReasonCW       Reason = "consecutively-written"
	ReasonStack    Reason = "stack"
	ReasonIndirect Reason = "indirect-bounds"
)

// Result is the outcome for one array in one loop.
type Result struct {
	Array   string
	Private bool
	Reason  Reason
	// Properties lists verified index-array properties used, if any.
	Properties []string
	// LiveOut is set when the array may be read after the loop in the
	// same unit; a parallel executor must then copy out the last
	// iteration's private copy.
	LiveOut bool
}

// Analyzer runs the privatization test. Prop may be nil (no irregular
// access analysis: the paper's baseline configuration).
type Analyzer struct {
	// Facts is the compilation's fact context: the checked program and its
	// flat CFGs, loops and statement facts.
	Facts  *dataflow.Context
	Prop   *property.Analysis
	Assume expr.Assumptions
	// DisableSingleIndex turns off the §2 analyses (consecutively-written
	// and stack), leaving only the traditional affine test — the paper's
	// "without irregular access analysis" configuration.
	DisableSingleIndex bool
	// Guard is the cooperative cancellation checkpoint threaded into the
	// §2 bounded depth-first searches and polled once per written section
	// a read is compared with; nil is a disabled guard.
	Guard *comperr.Guard
}

// New builds an Analyzer over the checked program of fc; prop may be nil.
func New(fc *dataflow.Context, prop *property.Analysis) *Analyzer {
	return &Analyzer{
		Facts: fc, Prop: prop,
		Assume: expr.Assumptions{},
	}
}

// AnalyzeLoop decides privatizability of each of the given arrays that is
// written inside the loop; an array only read there needs no
// privatization and gets no entry. The walk skips every other array's
// reads and writes, so an array's Result does not depend on which others
// are decided with it.
func (a *Analyzer) AnalyzeLoop(u *lang.Unit, loop *lang.DoStmt, arrays []string) map[string]*Result {
	results := map[string]*Result{}
	written := a.Facts.StmtsMod(loop.Body)
	for _, arr := range arrays {
		if written.Arrays[arr] {
			results[arr] = &Result{Array: arr}
		}
	}

	// Stack pass: the region is the body of this loop (§2.3).
	stacked := map[string]bool{}
	g := a.Facts.Graph(u)
	if l := g.LoopFor(loop); l != nil && !a.DisableSingleIndex {
		for _, acc := range singleindex.Find(a.Facts, g, l) {
			r := results[acc.Array]
			if r == nil {
				continue
			}
			acc.Check = a.Guard.CheckFn()
			if st := singleindex.CheckStack(acc); st != nil && st.ResetFirst {
				r.Private = true
				r.Reason = ReasonStack
				stacked[acc.Array] = true
			}
		}
	}

	// Upward-exposed read walk over one iteration of the loop.
	w := &walker{
		a: a, unit: u, outer: loop,
		results: results,
		written: section.NewSet(),
		exposed: map[string]bool{},
		skip:    stacked,
		scalars: map[string]*expr.Expr{},
	}
	w.walk(loop.Body, expr.Env{})

	for arr, r := range results {
		switch {
		case stacked[arr]:
		case w.failed[arr] || w.outerDep[arr]:
		case !w.exposed[arr]:
			r.Private = true
			r.Reason = w.reason(arr)
			r.Properties = w.props[arr]
		}
		if r.Private {
			r.LiveOut = a.liveAfter(u, loop, arr)
		}
	}
	return results
}

// liveAfter reports (syntactically, conservatively) whether privatizing the
// array for this loop could change an observable value: for a local array,
// whether it is read after the loop in its unit; for a global, whether any
// read of it anywhere in the program lies outside the loop body (a read
// before the loop in the same unit matters too — on a later call it would
// observe the previous invocation's data).
func (a *Analyzer) liveAfter(u *lang.Unit, loop *lang.DoStmt, arr string) bool {
	sym := a.Facts.Info.LookupIn(u, arr)
	if sym == nil {
		return true
	}
	inLoop := map[lang.Stmt]bool{}
	lang.WalkStmts(loop.Body, func(s lang.Stmt) bool {
		inLoop[s] = true
		return true
	})
	readsOutside := func(unit *lang.Unit, name string) bool {
		found := false
		lang.WalkStmts(unit.Body, func(s lang.Stmt) bool {
			if inLoop[s] {
				return true
			}
			f := a.Facts.Stmt(s)
			for _, rd := range f.ArrayReads {
				if rd.Array == name {
					// The name must resolve to the same symbol.
					if a.Facts.Info.LookupIn(unit, name) == sym {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}
	if !sym.Global {
		// A local: only reads after the loop in this unit matter (reads
		// before the loop see the zero-initialised fresh locals anyway,
		// but stay conservative and count any outside read).
		return readsOutside(u, arr)
	}
	for _, unit := range a.Facts.Info.Program.Units() {
		if readsOutside(unit, arr) {
			return true
		}
	}
	return false
}

// walker performs the per-iteration upward-exposed read computation.
type walker struct {
	a       *Analyzer
	unit    *lang.Unit
	outer   *lang.DoStmt
	results map[string]*Result // the arrays being decided

	written  *section.Set    // MUST-written so far in this iteration
	exposed  map[string]bool // arrays with an upward-exposed read
	failed   map[string]bool // arrays with writes we could not summarize
	outerDep map[string]bool // arrays written at outer-var-dependent subscripts
	skip     map[string]bool // arrays handled by the stack pass
	reasons  map[string]Reason
	props    map[string][]string
	// scalars tracks, at the current straight-line level, the last simple
	// invariant assignment to each scalar (used to find a CW index's
	// entry value).
	scalars map[string]*expr.Expr
	// namesArrays is set once a tracked value or MUST section may mention
	// an array element; until then array writes leave nothing stale.
	namesArrays bool
}

// decides reports whether the walk decides arr: it checks no read and
// records no write of any other array.
func (w *walker) decides(arr string) bool { return w.results[arr] != nil }

func (w *walker) noteExposed(arr string) {
	if w.exposed == nil {
		w.exposed = map[string]bool{}
	}
	w.exposed[arr] = true
}

func (w *walker) noteFailed(arr string) {
	if w.failed == nil {
		w.failed = map[string]bool{}
	}
	w.failed[arr] = true
}

func (w *walker) noteOuterDependent(arr string) {
	if w.outerDep == nil {
		w.outerDep = map[string]bool{}
	}
	w.outerDep[arr] = true
}

func (w *walker) noteReason(arr string, r Reason, props []string) {
	if w.reasons == nil {
		w.reasons = map[string]Reason{}
	}
	// Keep the most specific reason (later techniques override affine).
	if r != ReasonAffine || w.reasons[arr] == "" {
		if w.reasons[arr] == "" || r != ReasonAffine {
			w.reasons[arr] = r
		}
	}
	if len(props) > 0 {
		if w.props == nil {
			w.props = map[string][]string{}
		}
		w.props[arr] = append(w.props[arr], props...)
	}
}

func (w *walker) reason(arr string) Reason {
	if r, ok := w.reasons[arr]; ok {
		return r
	}
	return ReasonAffine
}

// invalidateScalar drops the scalar's tracked value and every tracked
// value and written section that mentions it: the scalar was just
// modified.
func (w *walker) invalidateScalar(name string) {
	delete(w.scalars, name)
	w.forget(func(e *expr.Expr) bool { return e.MentionsVar(name) }, true)
}

// invalidateArray drops every tracked value and written section that
// mentions an element of the array: the array was just modified.
func (w *walker) invalidateArray(name string) {
	if w.namesArrays {
		w.forget(func(e *expr.Expr) bool { return slices.Contains(expr.ArrayAtomNames(e), name) }, false)
	}
}

// invalidateModified invalidates every scalar and array in mod.
func (w *walker) invalidateModified(mod *dataflow.ModSet) {
	for v := range mod.Scalars {
		w.invalidateScalar(v)
	}
	for arr := range mod.Arrays {
		w.invalidateArray(arr)
	}
}

// forget drops the tracked values and written sections with an expression
// that is stale. With rebuild, the remaining sections are added again, so
// those of one array that have become adjacent merge; without it, they
// keep their order. Either way an array's sections evolve alone.
func (w *walker) forget(stale func(*expr.Expr) bool, rebuild bool) {
	for v, e := range w.scalars {
		if stale(e) {
			delete(w.scalars, v)
		}
	}
	staleSec := func(sec *section.Section) bool { return staleSection(sec, stale) }
	if !rebuild {
		w.written = w.written.Without(staleSec)
		return
	}
	kept := section.NewSet()
	for _, sec := range w.written.Sections() {
		if !staleSec(sec) {
			kept.AddMust(sec, w.a.Assume)
		}
	}
	w.written = kept
}

// staleSection reports whether a bound of sec is stale.
func staleSection(sec *section.Section, stale func(*expr.Expr) bool) bool {
	for _, d := range sec.Dims {
		if (d.Lo != nil && stale(d.Lo)) || (d.Hi != nil && stale(d.Hi)) {
			return true
		}
	}
	return false
}

// namesArray reports whether an expression reads an array element.
func namesArray(es ...lang.Expr) bool {
	found := false
	for _, e := range es {
		lang.WalkExpr(e, func(x lang.Expr) bool {
			if ar, ok := x.(*lang.ArrayRef); ok && !ar.Intrinsic {
				found = true
			}
			return !found
		})
	}
	return found
}

// readSection computes a MAY section for one array read under the loop
// environment, or nil when it cannot be bounded (the read is then exposed
// unless the whole array is already written).
func (w *walker) readSection(r dataflow.Ref, env expr.Env) (*section.Section, []string) {
	dims := make([]expr.Range, len(r.Args))
	var props []string
	for i, arg := range r.Args {
		e := expr.FromAST(arg)
		if len(expr.ArrayAtomNames(e)) == 0 {
			// Affine-in-scalars subscript: keep the exact symbolic point;
			// checkRead aggregates over the environment when a whole-loop
			// comparison is needed, and the point form is what makes
			// same-iteration read-after-write coverage provable.
			dims[i] = expr.Point(e)
			continue
		}
		// Indirect subscript: try closed-form bounds of the index arrays
		// (§5.1.4: {a(p(i)) | 1<=i<=n} ≈ a[min p : max p]).
		if rg, ps, ok := w.indirectRange(e, env, r.Stmt); ok {
			dims[i] = rg
			props = append(props, ps...)
			continue
		}
		dims[i] = expr.Range{} // unbounded
	}
	return section.NewMulti(r.Array, dims), props
}

// indirectRange bounds a subscript containing index-array atoms by querying
// the bounds property for each atom and substituting.
func (w *walker) indirectRange(e *expr.Expr, env expr.Env, at lang.Stmt) (expr.Range, []string, bool) {
	if w.a.Prop == nil {
		return expr.Range{}, nil, false
	}
	arrays := expr.ArrayAtomNames(e)
	if len(arrays) == 0 {
		return expr.Range{}, nil, false
	}
	var props []string
	lo, hi := e, e
	for _, ia := range arrays {
		// Query section: the subscripts used with ia, bounded over env.
		var qlo, qhi *expr.Expr
		for _, arg := range e.ArrayAtoms(ia) {
			rg, ok := expr.Bounds(arg, env, w.a.Assume)
			if !ok || rg.Lo == nil || rg.Hi == nil {
				return expr.Range{}, nil, false
			}
			qlo = expr.ProvableMin(qlo, rg.Lo, w.a.Assume)
			qhi = expr.ProvableMax(qhi, rg.Hi, w.a.Assume)
		}
		if qlo == nil || qhi == nil {
			return expr.Range{}, nil, false
		}
		iaName := ia
		p, ok := w.a.Prop.VerifyCached(
			func() property.Property { return property.NewBounds(iaName) },
			at, section.New(ia, qlo, qhi))
		prop, isB := p.(*property.Bounds)
		if !ok || !isB || prop.Lo == nil || prop.Hi == nil {
			return expr.Range{}, nil, false
		}
		props = append(props, prop.String())
		for key := range lo.ArrayAtoms(ia) {
			lo = lo.SubstAtom(key, prop.Lo)
		}
		for key := range hi.ArrayAtoms(ia) {
			hi = hi.SubstAtom(key, prop.Hi)
		}
	}
	rlo, ok1 := expr.Bounds(lo, env, w.a.Assume)
	rhi, ok2 := expr.Bounds(hi, env, w.a.Assume)
	if !ok1 || !ok2 {
		return expr.Range{}, nil, false
	}
	return expr.Range{Lo: rlo.Lo, Hi: rhi.Hi}, props, true
}

// checkRead tests whether a read is covered by the MUST-written set; if
// not, the array has an upward-exposed read.
func (w *walker) checkRead(r dataflow.Ref, env expr.Env) {
	if !w.decides(r.Array) || w.skip[r.Array] {
		return
	}
	sec, props := w.readSection(r, env)
	// Try the raw section first (a read right after a write of the same
	// element), then the env-aggregated one (a point read inside an inner
	// loop against a whole-loop write section).
	agg := sec.AggregateMayEnv(env, w.a.Assume)
	for _, cand := range []*section.Section{sec, agg} {
		for _, ws := range w.written.Sections() {
			w.a.Guard.Check()
			if ws.Contains(cand, w.a.Assume) {
				if len(props) > 0 {
					w.noteReason(r.Array, ReasonIndirect, props)
				} else {
					w.noteReason(r.Array, ReasonAffine, nil)
				}
				return
			}
		}
	}
	w.noteExposed(r.Array)
}

// writeSection computes a MUST section for one array write: the point
// section of its (symbolic) subscripts. Later MUST aggregation turns point
// writes inside DO loops into dense ranges.
func (w *walker) writeSection(r dataflow.Ref, env expr.Env) *section.Section {
	dims := make([]expr.Range, len(r.Args))
	for i, arg := range r.Args {
		dims[i] = expr.Point(expr.FromAST(arg))
	}
	return section.NewMulti(r.Array, dims)
}

// statement-level entry points ----------------------------------------------

func (w *walker) walk(stmts []lang.Stmt, env expr.Env) {
	for i := 0; i < len(stmts); i++ {
		s := stmts[i]
		switch s := s.(type) {
		case *lang.AssignStmt:
			w.assign(s, env)
		case *lang.IfStmt:
			w.ifStmt(s, env)
		case *lang.DoStmt:
			w.doLoop(s, env)
		case *lang.WhileStmt:
			w.whileLoop(s, env)
		case *lang.CallStmt:
			w.call(s)
		case *lang.PrintStmt:
			f := w.a.Facts.Stmt(s)
			for _, r := range f.ArrayReads {
				w.checkRead(r, env)
			}
		case *lang.GotoStmt:
			// Unstructured flow inside the iteration: be conservative
			// about everything written from here on.
			w.conservativeRest(stmts[i:], env)
			return
		}
	}
}

func (w *walker) assign(s *lang.AssignStmt, env expr.Env) {
	f := w.a.Facts.Stmt(s)
	for _, r := range f.ArrayReads {
		w.checkRead(r, env)
	}
	for _, wr := range f.ArrayWrites {
		w.arrayWrite(wr, env)
		w.invalidateArray(wr.Array)
	}
	for _, sc := range f.ScalarWrites {
		w.invalidateScalar(sc)
		// Track simple invariant assignments for CW entry values.
		if id, ok := s.Lhs.(*lang.Ident); ok && id.Name == sc {
			v := expr.FromAST(s.Rhs)
			if !v.MentionsVar(sc) {
				w.scalars[sc] = v
				w.namesArrays = w.namesArrays || namesArray(s.Rhs)
			}
		}
	}
}

// arrayWrite adds the MUST section of one array write.
func (w *walker) arrayWrite(wr dataflow.Ref, env expr.Env) {
	if !w.decides(wr.Array) {
		return
	}
	// Writes subscripted by the outer loop variable are disjoint per
	// iteration: they are the dependence test's concern, and privatizing
	// them would lose all but the last iteration's data on copy-out.
	for _, arg := range wr.Args {
		if expr.FromAST(arg).MentionsVar(w.outer.Var.Name) {
			w.noteOuterDependent(wr.Array)
		}
	}
	if w.skip[wr.Array] {
		return
	}
	sec := w.writeSection(wr, env)
	if sec == nil {
		w.noteFailed(wr.Array)
		return
	}
	// Sections may mention inner loop variables; each enclosing doLoop
	// level MUST-aggregates them on the way out, and reads checked before
	// aggregation compare symbolically at the same iteration, which is
	// exactly the per-iteration semantics.
	w.written.AddMust(sec, w.a.Assume)
	w.namesArrays = w.namesArrays || namesArray(wr.Args...)
}

func (w *walker) ifStmt(s *lang.IfStmt, env expr.Env) {
	f := w.a.Facts.Cond(s, -1)
	for _, r := range f.ArrayReads {
		w.checkRead(r, env)
	}
	for i := range s.Elifs {
		ef := w.a.Facts.Cond(s, i)
		for _, r := range ef.ArrayReads {
			w.checkRead(r, env)
		}
	}

	base := w.written.Clone()
	baseScalars := cloneScalars(w.scalars)

	branches := make([][]lang.Stmt, 0, len(s.Elifs)+2)
	branches = append(branches, s.Then)
	for _, arm := range s.Elifs {
		branches = append(branches, arm.Body)
	}
	branches = append(branches, s.Else) // nil means fall-through arm

	var combined *section.Set
	for _, body := range branches {
		w.written = base.Clone()
		w.scalars = cloneScalars(baseScalars)
		w.walk(body, env)
		if combined == nil {
			combined = w.written
		} else {
			combined = combined.IntersectMust(w.written, w.a.Assume)
		}
	}
	w.written = combined
	// Each arm's tracked values held only on its own path: start from the
	// pre-IF values and drop those naming anything an arm wrote.
	w.scalars = cloneScalars(baseScalars)
	w.invalidateModified(w.a.Facts.StmtsMod([]lang.Stmt{s}))
}

func cloneScalars(m map[string]*expr.Expr) map[string]*expr.Expr {
	c := make(map[string]*expr.Expr, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// doLoop processes an inner DO loop: reads are checked with the loop's
// index range added to the environment; writes are MUST-aggregated over the
// full range afterwards. CW analysis refines single-indexed fills.
func (w *walker) doLoop(s *lang.DoStmt, env expr.Env) {
	// Bounds expressions themselves are reads.
	f := w.a.Facts.Stmt(s)
	for _, r := range f.ArrayReads {
		w.checkRead(r, env)
	}

	lo := expr.FromAST(s.Lo)
	hi := expr.FromAST(s.Hi)
	dense := s.Step == nil
	if s.Step != nil {
		if c, ok := expr.FromAST(s.Step).IsConst(); ok {
			switch {
			case c == 1:
				dense = true
			case c == -1:
				lo, hi = hi, lo
				dense = true
			case c > 1:
				// sparse but bounded
			case c < 0:
				lo, hi = hi, lo
			}
		} else {
			lo, hi = nil, nil
		}
	}
	inner := env
	if lo != nil && hi != nil {
		inner = env.With(s.Var.Name, expr.NewRange(lo, hi))
	} else {
		inner = env.With(s.Var.Name, expr.Range{})
	}

	// Single-indexed refinement for this inner loop.
	handled := w.singleIndexedLoop(s, env)

	// Sections depending on scalars the body modifies are stale from the
	// second iteration on: drop them before walking the body, or a read
	// in iteration 2 could claim coverage from a pre-loop write that used
	// an outdated scalar value.
	bodyMod := w.a.Facts.StmtsMod(s.Body)
	w.invalidateModified(bodyMod)
	w.invalidateScalar(s.Var.Name)
	w.namesArrays = w.namesArrays || namesArray(s.Lo, s.Hi)

	// Collect the iteration's writes separately so we can aggregate.
	saved := w.written
	w.written = saved.Clone()
	w.walkInner(s.Body, inner, handled)
	iterWritten := w.written
	w.written = saved
	w.invalidateModified(bodyMod)

	if lo == nil || hi == nil {
		return
	}
	// MUST-aggregate the new sections over the loop range.
	for _, sec := range iterWritten.Sections() {
		already := false
		for _, old := range saved.Sections() {
			if old.Contains(sec, w.a.Assume) {
				already = true
				break
			}
		}
		if already {
			continue
		}
		if !dense {
			continue
		}
		if agg := sec.AggregateMust(s.Var.Name, lo, hi, w.a.Assume); agg != nil {
			// Sections depending on body-modified scalars or arrays are
			// invalid.
			stale := staleSection(agg, func(e *expr.Expr) bool {
				for sv := range bodyMod.Scalars {
					if sv != s.Var.Name && e.MentionsVar(sv) {
						return true
					}
				}
				return w.namesArrays && slices.ContainsFunc(expr.ArrayAtomNames(e), func(arr string) bool { return bodyMod.Arrays[arr] })
			})
			if !stale {
				w.written.AddMust(agg, w.a.Assume)
			}
		}
	}
	// CW sections discovered by singleIndexedLoop were added directly.
	for arr, sec := range handled.cwSections {
		w.written.AddMust(sec, w.a.Assume)
		w.noteReason(arr, ReasonCW, nil)
	}
}

// walkInner walks an inner loop body, skipping arrays already handled by
// the single-indexed analysis.
func (w *walker) walkInner(stmts []lang.Stmt, env expr.Env, handled *siResult) {
	oldSkip := w.skip
	if len(handled.arrays) > 0 {
		w.skip = map[string]bool{}
		for k, v := range oldSkip {
			w.skip[k] = v
		}
		for arr := range handled.arrays {
			w.skip[arr] = true
		}
	}
	w.walk(stmts, env)
	w.skip = oldSkip
}

type siResult struct {
	arrays     map[string]bool
	cwSections map[string]*section.Section
}

// singleIndexedLoop runs the §2 analyses on an inner loop (DO or WHILE) and
// returns the arrays it fully accounts for plus the CW write sections valid
// after the loop.
func (w *walker) singleIndexedLoop(loopStmt lang.Stmt, env expr.Env) *siResult {
	res := &siResult{arrays: map[string]bool{}, cwSections: map[string]*section.Section{}}
	if w.a.DisableSingleIndex {
		return res
	}
	g := w.a.Facts.Graph(w.unit)
	l := g.LoopFor(loopStmt)
	if l == nil {
		return res
	}
	for _, acc := range singleindex.Find(w.a.Facts, g, l) {
		if !w.decides(acc.Array) {
			continue
		}
		acc.Check = w.a.Guard.CheckFn()
		cw := singleindex.CheckConsecutivelyWritten(acc)
		if cw == nil || !cw.Increasing {
			continue
		}
		if !cw.ReadsCovered {
			// Reads of x(p) inside the loop come before the write.
			w.noteExposed(acc.Array)
			res.arrays[acc.Array] = true
			continue
		}
		// Entry value of the index: the last tracked invariant
		// assignment at this level.
		base := w.scalars[acc.Index]
		if base == nil {
			// Unknown entry value: the writes are real but their
			// section is unknown; treat reads handled (covered), writes
			// unknown (no MUST section).
			res.arrays[acc.Array] = true
			continue
		}
		res.arrays[acc.Array] = true
		res.cwSections[acc.Array] = section.New(acc.Array, base.AddConst(1), expr.Var(acc.Index))
	}
	return res
}

// whileLoop processes an inner WHILE loop: CW analysis may summarize its
// single-indexed fills; everything else is conservative (reads checked
// against the pre-loop written set; no new MUST writes).
func (w *walker) whileLoop(s *lang.WhileStmt, env expr.Env) {
	f := w.a.Facts.Stmt(s)
	for _, r := range f.ArrayReads {
		w.checkRead(r, env)
	}
	handled := w.singleIndexedLoop(s, env)
	bodyMod := w.a.Facts.StmtsMod(s.Body)
	w.invalidateModified(bodyMod) // stale from the second iteration on
	w.walkInner(s.Body, envWithUnknownVars(env, bodyMod), handled)
	w.invalidateModified(bodyMod)
	for arr, sec := range handled.cwSections {
		w.written.AddMust(sec, w.a.Assume)
		w.noteReason(arr, ReasonCW, nil)
	}
}

// envWithUnknownVars extends the environment with unbounded ranges for
// scalars the body modifies, so reads using them aggregate to unbounded
// (exposed unless the whole array is written).
func envWithUnknownVars(env expr.Env, mod *dataflow.ModSet) expr.Env {
	out := env
	for v := range mod.Scalars {
		out = out.With(v, expr.Range{})
	}
	return out
}

func (w *walker) call(s *lang.CallStmt) {
	cu := w.a.Facts.Info.Program.Unit(s.Name)
	if cu == nil {
		return
	}
	m := w.a.Facts.Mod.GlobalsModifiedBy(cu)
	// Arrays written by the callee cannot be summarized (no inlining at
	// this point): their privatization fails. Arrays read by the callee:
	// conservatively exposed.
	for arr := range m.Arrays {
		w.noteFailed(arr)
	}
	w.invalidateModified(m)
	// Reads by the callee: any global array it references.
	lang.WalkStmts(cu.Body, func(st lang.Stmt) bool {
		f := w.a.Facts.Stmt(st)
		for _, r := range f.ArrayReads {
			if sym := w.a.Facts.Info.LookupIn(cu, r.Array); sym != nil && sym.Global {
				w.noteExposed(r.Array)
			}
		}
		return true
	})
}

// conservativeRest handles unstructured tails: every array written later in
// the list fails, every read is exposed.
func (w *walker) conservativeRest(stmts []lang.Stmt, env expr.Env) {
	lang.WalkStmts(stmts, func(s lang.Stmt) bool {
		f := w.a.Facts.Stmt(s)
		for _, r := range f.ArrayReads {
			w.noteExposed(r.Array)
		}
		for _, wr := range f.ArrayWrites {
			w.noteFailed(wr.Array)
		}
		return true
	})
}

// String renders a result for reports.
func (r *Result) String() string {
	if !r.Private {
		return fmt.Sprintf("%s: not private", r.Array)
	}
	return fmt.Sprintf("%s: private (%s)", r.Array, r.Reason)
}
