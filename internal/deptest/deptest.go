// Package deptest implements the data dependence tests of the paper's
// evaluation pipeline (§3.2.7, §5.1.5): a GCD quick test and a symbolic
// range test for affine and quasi-affine subscripts, the offset–length test
// for subscripts built from offset and length index arrays, the injective
// test for subscripts of the form a(p(i)), and closed-form-value
// substitution that turns index-array subscripts into affine ones. The
// last three consult the demand-driven array property analysis, which is
// exactly how the paper wires its tests to the property framework ("the
// offset–length test serves as a query generator").
package deptest

import (
	"sort"

	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/section"
)

// TestKind names the technique that disproved a dependence, for reporting
// (Table 3's "Test" column).
type TestKind string

// Test kinds.
const (
	TestNone         TestKind = ""
	TestAffine       TestKind = "affine"        // GCD / window separation on affine subscripts
	TestRange        TestKind = "range"         // symbolic range test
	TestOffsetLength TestKind = "offset-length" // closed-form distance rewrite (CFD)
	TestInjective    TestKind = "injective"     // injectivity of the index array
	TestCFV          TestKind = "closed-form"   // closed-form value substitution (CFV)
	// TestRecurrence is the recurrence-window test: inner-loop windows
	// bounded by an offset array (CSR row pointers) are proven separated
	// with monotonicity facts derived from the loop that fills the array.
	TestRecurrence TestKind = "recurrence-window"
)

// Verdict is the per-array outcome of analyzing one loop.
type Verdict struct {
	Independent bool
	Test        TestKind
	// Properties lists the index-array properties that were verified to
	// reach the verdict, e.g. "closed-form-distance(pptr)".
	Properties []string
}

// Analyzer runs dependence tests over loops. Prop may be nil, which
// disables every property-based test (the "without irregular access
// analysis" configuration of the evaluation).
type Analyzer struct {
	// Facts is the compilation's fact context: the checked program and its
	// statement facts.
	Facts  *dataflow.Context
	Prop   *property.Analysis
	Assume expr.Assumptions
	// Rec, when non-nil, receives one "dep.verdict" event per array and
	// loop, recording which dependence test fired (or why none did).
	Rec *obs.Recorder
	// Guard is the cooperative cancellation checkpoint, polled once per
	// reference pair; nil is a disabled guard.
	Guard *comperr.Guard
}

// New builds an Analyzer over the checked program of fc. prop may be nil.
func New(fc *dataflow.Context, prop *property.Analysis) *Analyzer {
	return &Analyzer{
		Facts: fc, Prop: prop,
		Assume: expr.Assumptions{},
	}
}

// verifyCached runs (or replays) a property verification through the
// analysis-wide memo table (property.VerifyCached): the same (node,
// property, section) query repeats across the reference pairs of one loop
// and across loops sharing index arrays, and is deterministic for an
// unchanged program. mk builds the fresh property instance; on a hit the
// previously derived instance is returned instead. Callers guarantee
// a.Prop != nil (every property-based test is gated on it).
func (a *Analyzer) verifyCached(sec *section.Section, at lang.Stmt, mk func() property.Property) (property.Property, bool) {
	return a.Prop.VerifyCached(mk, at, sec)
}

// Invalidate drops every memoized property verdict and the fact context's
// graphs and facts. Passes that mutate the program mid-analysis (loop
// interchange) must call it after each mutation: cached entries describe
// the pre-mutation program and would otherwise replay stale verdicts — the
// bug the pointer-keyed ad-hoc cache used to have.
func (a *Analyzer) Invalidate() {
	a.Facts.Invalidate()
	if a.Prop != nil {
		a.Prop.InvalidateCache()
	}
}

// ref is one array reference with its inner-loop environment.
type ref struct {
	subs  []*expr.Expr // canonical subscripts, one per dimension
	env   expr.Env     // inner loops enclosing the ref (outer loop excluded)
	store bool
	stmt  lang.Stmt
}

// collectRefs gathers the references of every array inside the loop body,
// tracking the inner DO-loop environment of each. ok is false for arrays
// whose references cannot be analyzed (calls touching them, non-DO inner
// control with unknown iteration ranges are fine — only bounds matter).
func (a *Analyzer) collectRefs(u *lang.Unit, loop *lang.DoStmt) (map[string][]ref, map[string]bool) {
	refs := map[string][]ref{}
	unanalyzable := map[string]bool{}

	var walk func(stmts []lang.Stmt, env expr.Env)
	record := func(r dataflow.Ref, env expr.Env) {
		subs := make([]*expr.Expr, len(r.Args))
		for i, s := range r.Args {
			subs[i] = expr.FromAST(s)
		}
		refs[r.Array] = append(refs[r.Array], ref{subs: subs, env: env, store: r.Store, stmt: r.Stmt})
	}
	walk = func(stmts []lang.Stmt, env expr.Env) {
		for _, s := range stmts {
			f := a.Facts.Stmt(s)
			for _, r := range f.ArrayReads {
				record(r, env)
			}
			for _, w := range f.ArrayWrites {
				record(w, env)
			}
			for _, callee := range f.Calls {
				if cu := a.Facts.Info.Program.Unit(callee); cu != nil {
					for _, arr := range a.Facts.Mod.GlobalsModifiedBy(cu).SortedArrays() {
						unanalyzable[arr] = true
					}
				}
			}
			switch s := s.(type) {
			case *lang.IfStmt:
				walk(s.Then, env)
				for _, arm := range s.Elifs {
					walk(arm.Body, env)
				}
				walk(s.Else, env)
			case *lang.DoStmt:
				lo := expr.FromAST(s.Lo)
				hi := expr.FromAST(s.Hi)
				inner := env.With(s.Var.Name, expr.NewRange(lo, hi))
				if s.Step != nil {
					if c, ok := expr.FromAST(s.Step).IsConst(); !ok || c == 0 {
						inner = env.With(s.Var.Name, expr.Range{})
					} else if c < 0 {
						inner = env.With(s.Var.Name, expr.NewRange(hi, lo))
					}
				}
				walk(s.Body, inner)
			case *lang.WhileStmt:
				walk(s.Body, env)
			}
		}
	}
	walk(loop.Body, expr.Env{})
	return refs, unanalyzable
}

// AnalyzeLoop tests, for every array written inside the loop, whether the
// loop carries a dependence on it. Arrays not written are trivially
// independent and omitted. Results are keyed by array name.
func (a *Analyzer) AnalyzeLoop(u *lang.Unit, loop *lang.DoStmt) map[string]*Verdict {
	refs, unanalyzable := a.collectRefs(u, loop)
	out := map[string]*Verdict{}
	for arr, rs := range refs {
		hasWrite := false
		for _, r := range rs {
			if r.store {
				hasWrite = true
				break
			}
		}
		if !hasWrite {
			continue
		}
		v := &Verdict{}
		out[arr] = v
		if unanalyzable[arr] {
			continue
		}
		v.Independent, v.Test, v.Properties = a.independent(u, loop, arr, rs)
	}
	if a.Rec.Enabled() {
		arrays := make([]string, 0, len(out))
		for arr := range out {
			arrays = append(arrays, arr)
		}
		sort.Strings(arrays)
		for _, arr := range arrays {
			v := out[arr]
			fields := []obs.Field{
				obs.F("array", arr),
				obs.Fb("independent", v.Independent),
			}
			switch {
			case v.Independent:
				fields = append(fields, obs.F("test", string(v.Test)))
			case unanalyzable[arr]:
				fields = append(fields, obs.F("reason", "modified by an out-of-line call"))
			default:
				fields = append(fields, obs.F("reason", "no test disproved the dependence"))
			}
			a.Rec.Event("dep.verdict", fields...)
		}
	}
	return out
}

// DiagnoseArray replays, with tracing, the index-array property queries
// relevant to one dependent array of a loop: for every index array
// appearing in the array's subscripts it verifies injectivity, monotonicity
// and value bounds over the loop's index range. The verdicts do not change
// — this exists so `-explain` can show *which* property query failed for a
// loop that stayed serial, the diagnosis Bhosale & Eigenmann identify as
// the key to extending coverage. No-op without a recorder or property
// analysis.
func (a *Analyzer) DiagnoseArray(u *lang.Unit, loop *lang.DoStmt, arr string) {
	// Replaying queries is pure diagnostic overhead: Debug-level only.
	if a.Prop == nil || !a.Rec.DebugEnabled() {
		return
	}
	lo, hi, okR := loopRange(loop)
	if !okR {
		return
	}
	refs, _ := a.collectRefs(u, loop)
	seen := map[string]bool{}
	for _, r := range refs[arr] {
		for _, e := range r.subs {
			for _, ia := range expr.ArrayAtomNames(e) {
				if seen[ia] {
					continue
				}
				seen[ia] = true
				sp := a.Rec.StartSpan("diagnose",
					obs.F("array", arr), obs.F("index", ia))
				sec := section.New(ia, lo, hi)
				for _, mk := range []func() property.Property{
					func() property.Property { return property.NewInjective(ia) },
					func() property.Property { return property.NewMonotonic(ia) },
					func() property.Property { return property.NewBounds(ia) },
				} {
					prop := mk()
					ok := a.Prop.Replay(a.Rec, prop, r.stmt, sec)
					a.Rec.Event("diagnose.result",
						obs.F("prop", prop.String()), obs.Fb("ok", ok))
				}
				sp.End()
			}
		}
	}
}

// independent tests all conflicting pairs of references of one array.
func (a *Analyzer) independent(u *lang.Unit, loop *lang.DoStmt, arr string, rs []ref) (bool, TestKind, []string) {
	sym := a.Facts.Info.LookupIn(u, arr)
	if sym == nil {
		return false, TestNone, nil
	}
	bodyMod := a.Facts.StmtsMod(loop.Body)
	best := TestNone
	var props []string
	for i := range rs {
		for j := i; j < len(rs); j++ {
			if !rs[i].store && !rs[j].store {
				continue
			}
			a.Guard.Check()
			ok, kind, ps := a.pairIndependent(u, loop, arr, rs[i], rs[j], bodyMod)
			if !ok {
				return false, TestNone, nil
			}
			if rank(kind) > rank(best) {
				best = kind
			}
			props = append(props, ps...)
		}
	}
	return true, best, dedup(props)
}

func rank(k TestKind) int {
	switch k {
	case TestAffine:
		return 1
	case TestRange:
		return 2
	case TestCFV:
		return 3
	case TestInjective:
		return 4
	case TestOffsetLength:
		return 5
	case TestRecurrence:
		return 6
	}
	return 0
}

func dedup(ss []string) []string {
	seen := map[string]bool{}
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// pairIndependent proves that references A and B never touch the same
// element in different iterations of the outer loop. It tries, per
// dimension: the GCD test, window separation on the raw subscripts, the
// injective test, closed-form-value substitution, and the offset–length
// rewrite. Any single dimension with proven separation suffices.
func (a *Analyzer) pairIndependent(u *lang.Unit, loop *lang.DoStmt, arr string, A, B ref, bodyMod *dataflow.ModSet) (bool, TestKind, []string) {
	if len(A.subs) != len(B.subs) {
		return false, TestNone, nil
	}
	v := loop.Var.Name
	assume := a.envAssumptions(loop, A, B)
	for d := range A.subs {
		fa, fb := A.subs[d], B.subs[d]

		// A subscript mentioning a scalar or array the loop body itself
		// modifies (outside the DO-variable environment) is not a stable
		// symbol: its value differs between iterations and even within
		// one, so the purely symbolic tests below would compare
		// different dynamic values under one name. Such dimensions are
		// left to the property-based tests, whose reverse propagation
		// explicitly tracks in-loop modification.
		taintedA := subscriptTainted(fa, v, A.env, bodyMod)
		taintedB := subscriptTainted(fb, v, B.env, bodyMod)
		clean := !taintedA && !taintedB

		// Identical affine subscripts with a nonzero coefficient in the
		// loop variable touch distinct elements in distinct iterations.
		if clean && fa.Equal(fb) {
			if coef, _, ok := fa.Affine(v); ok && coef != 0 &&
				!mentionsAnyEnvVar(fa, A.env) && !mentionsAnyEnvVar(fb, B.env) {
				return true, TestAffine, nil
			}
		}

		// GCD quick test (affine, no inner-loop dependence).
		if clean && a.gcdIndependent(fa, fb, v, A.env, B.env) {
			return true, TestAffine, nil
		}

		// Window separation on the raw subscripts (range test).
		if clean && a.windowsSeparated(fa, fb, v, A.env, B.env, assume) {
			return true, TestRange, nil
		}

		if a.Prop == nil {
			continue
		}

		// Injective test: both subscripts are the same index-array
		// element indexed by the loop variable.
		if ok, ps := a.injectiveIndependent(fa, fb, v, loop, A, B); ok {
			return true, TestInjective, ps
		}

		// Closed-form value substitution, then retry separation. The
		// substituted expressions must come out clean: the closed forms
		// themselves are validated by the property analysis, but any
		// residual tainted symbol still disqualifies the comparison.
		if ok, kind, ps := a.cfvIndependent(fa, fb, v, loop, A, B, assume, bodyMod); ok {
			return true, kind, ps
		}

		// Offset–length test: rewrite with closed-form distances, then
		// retry separation under value-bound assumptions. The offset and
		// distance arrays are verified loop-stable by the property
		// queries; residual tainted scalars still disqualify.
		if clean {
			if ok, ps := a.offsetLengthIndependent(fa, fb, v, loop, A, B, assume); ok {
				return true, TestOffsetLength, ps
			}
		}

		// Recurrence-window test: atom-free subscripts whose inner-loop
		// windows run through an offset array (CSR row pointers). The
		// separation conditions are discharged with monotonicity facts
		// derived at the array's definition site, so the whole test —
		// including its closed-form-distance fallback — is gated by the
		// same `-no-recurrence` ablation as the derivation itself.
		if clean && !a.Prop.NoRecurrence {
			if ok, ps := a.recurrenceWindowIndependent(fa, fb, v, loop, A, B, assume); ok {
				return true, TestRecurrence, ps
			}
		}
	}
	return false, TestNone, nil
}

// subscriptTainted reports whether e mentions a scalar or array the loop
// body modifies, other than the outer loop variable and the enclosing DO
// variables (those are modelled by the environment).
func subscriptTainted(e *expr.Expr, v string, env expr.Env, bodyMod *dataflow.ModSet) bool {
	for _, sv := range scalarVarsOf(e) {
		if sv == v {
			continue
		}
		if _, inEnv := env[sv]; inEnv {
			continue
		}
		if bodyMod.Scalars[sv] {
			return true
		}
	}
	for _, arr := range expr.ArrayAtomNames(e) {
		if bodyMod.Arrays[arr] {
			return true
		}
	}
	return false
}

// scalarVarsOf lists the scalar variable names e mentions (including
// inside array-atom subscripts).
func scalarVarsOf(e *expr.Expr) []string {
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

// envAssumptions extends the analyzer's assumptions with sign facts about
// the loop variables in scope: a loop variable is at least its (constant)
// lower bound while the loop executes.
func (a *Analyzer) envAssumptions(loop *lang.DoStmt, A, B ref) expr.Assumptions {
	assume := a.Assume
	addVar := func(v string, lo *expr.Expr) {
		if c, ok := lo.IsConst(); ok {
			switch {
			case c >= 1:
				assume = assume.With(v, expr.GT0)
			case c >= 0:
				assume = assume.With(v, expr.GE0)
			}
		}
	}
	if lo, _, ok := loopRange(loop); ok && lo != nil {
		addVar(loop.Var.Name, lo)
	}
	for _, env := range []expr.Env{A.env, B.env} {
		for v, r := range env {
			if r.Lo != nil {
				addVar(v, r.Lo)
			}
		}
	}
	return assume
}

func mentionsAnyEnvVar(e *expr.Expr, env expr.Env) bool {
	for v := range env {
		if e.MentionsVar(v) {
			return true
		}
	}
	return false
}

// gcdIndependent applies the classic GCD test to a pair of affine
// subscripts c1*i + r1 and c2*i' + r2 with constant difference: if
// gcd(c1,c2) does not divide the constant part of r2-r1 there is no
// solution at all. Inner-loop variables must be absent.
func (a *Analyzer) gcdIndependent(fa, fb *expr.Expr, v string, envA, envB expr.Env) bool {
	for iv := range envA {
		if fa.MentionsVar(iv) {
			return false
		}
	}
	for iv := range envB {
		if fb.MentionsVar(iv) {
			return false
		}
	}
	c1, r1, ok1 := fa.Affine(v)
	c2, r2, ok2 := fb.Affine(v)
	if !ok1 || !ok2 || (c1 == 0 && c2 == 0) {
		return false
	}
	diff, isConst := r2.DiffConst(r1)
	if !isConst {
		return false
	}
	g := gcd64(abs64(c1), abs64(c2))
	if g == 0 {
		return false
	}
	return diff%g != 0
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// windowsSeparated proves that the per-iteration access windows of fa and
// fb never overlap across different iterations of v: with
// RA(i) = [A.lo(i), A.hi(i)] over the inner loops,
//
//	A.hi(i) < B.lo(i+1), B.hi(i) < A.lo(i+1),
//	A.lo and B.lo monotonically non-decreasing in i
//
// (or the fully symmetric decreasing direction).
func (a *Analyzer) windowsSeparated(fa, fb *expr.Expr, v string, envA, envB expr.Env, assume expr.Assumptions) bool {
	ra, ok1 := expr.Bounds(fa, envA, assume)
	rb, ok2 := expr.Bounds(fb, envB, assume)
	if !ok1 || !ok2 || ra.Lo == nil || ra.Hi == nil || rb.Lo == nil || rb.Hi == nil {
		return false
	}
	ident := func(e *expr.Expr) *expr.Expr { return e }
	if separatedIncreasing(ra, rb, v, assume, ident) {
		return true
	}
	return separatedDecreasing(ra, rb, v, assume, ident)
}

func at(e *expr.Expr, v string, delta int64) *expr.Expr {
	return e.SubstVar(v, expr.Var(v).AddConst(delta))
}

// separatedIncreasing proves the access windows strictly separated with
// non-decreasing lower ends. Differences are normalized (e.g. by a closed-
// form-distance rewrite) before each proof.
func separatedIncreasing(ra, rb expr.Range, v string, assume expr.Assumptions, norm func(*expr.Expr) *expr.Expr) bool {
	lt := func(x, y *expr.Expr) bool {
		return expr.ProveGT0(norm(y.Sub(x)), assume)
	}
	nonDec := func(e *expr.Expr) bool {
		return expr.ProveGE0(norm(at(e, v, 1).Sub(e)), assume)
	}
	return lt(ra.Hi, at(rb.Lo, v, 1)) &&
		lt(rb.Hi, at(ra.Lo, v, 1)) &&
		nonDec(ra.Lo) && nonDec(rb.Lo)
}

func separatedDecreasing(ra, rb expr.Range, v string, assume expr.Assumptions, norm func(*expr.Expr) *expr.Expr) bool {
	lt := func(x, y *expr.Expr) bool {
		return expr.ProveGT0(norm(y.Sub(x)), assume)
	}
	nonInc := func(e *expr.Expr) bool {
		return expr.ProveGE0(norm(e.Sub(at(e, v, 1))), assume)
	}
	return lt(at(rb.Hi, v, 1), ra.Lo) &&
		lt(at(ra.Hi, v, 1), rb.Lo) &&
		nonInc(ra.Hi) && nonInc(rb.Hi)
}
