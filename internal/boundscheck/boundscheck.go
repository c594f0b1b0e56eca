// Package boundscheck implements one of the companion applications the
// paper points to for the irregular-access machinery (§2.3, citing the
// authors' CC'00 paper): eliminating run-time array bounds checks. A
// reference is proven safe when every subscript's symbolic range — computed
// over the enclosing DO environments, with index-array subscripts bounded
// by the closed-form-bounds property — provably lies within the array's
// declared bounds. The interpreter consults the result: proven references
// skip the per-access check and cost less, giving the run-time effect the
// paper describes.
package boundscheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/property"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
	"repro/internal/sem"
)

// Result reports which array references are provably in bounds.
type Result struct {
	// Safe marks references whose every subscript is proven in range.
	Safe map[*lang.ArrayRef]bool
	// Total counts analyzed references; Proven counts safe ones.
	Total, Proven int
	// PerArray counts proven references by array, for reports.
	PerArray map[string]int
}

// Ratio returns the fraction of references proven safe.
func (r *Result) Ratio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Proven) / float64(r.Total)
}

// Summary renders a short report.
func (r *Result) Summary() string {
	var names []string
	for n := range r.PerArray {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "bounds checks: %d/%d proven removable (%.0f%%)\n",
		r.Proven, r.Total, 100*r.Ratio())
	for _, n := range names {
		fmt.Fprintf(&sb, "  %s: %d\n", n, r.PerArray[n])
	}
	return sb.String()
}

// Analyzer proves references in bounds. Prop may be nil (no index-array
// bounds available; only affine subscripts are then provable).
type Analyzer struct {
	Info   *sem.Info
	Prop   *property.Analysis
	Assume expr.Assumptions

	// params lists, per unit, the named constants visible in it, sorted by
	// name.
	params map[*lang.Unit][]param
}

// param is one visible named constant and its value.
type param struct {
	name  string
	value *expr.Expr
}

// New builds an Analyzer; prop may be nil.
func New(info *sem.Info, prop *property.Analysis) *Analyzer {
	a := &Analyzer{Info: info, Prop: prop, Assume: expr.Assumptions{}, params: map[*lang.Unit][]param{}}
	for _, u := range info.Program.Units() {
		a.params[u] = paramTable(info.Scope(u), info.Globals)
	}
	return a
}

// paramTable lists the named constants visible in scope sc, a unit's own
// before the globals it does not shadow, sorted by name.
func paramTable(sc *sem.Scope, globals map[string]*sem.Symbol) []param {
	if sc == nil {
		return nil
	}
	var ps []param
	add := func(syms map[string]*sem.Symbol) {
		for name, sym := range syms {
			if sym.Kind == sem.ParamSym && sc.Lookup(name) == sym {
				ps = append(ps, param{name, expr.Const(sym.Value)})
			}
		}
	}
	add(sc.Locals)
	add(globals)
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })
	return ps
}

// Analyze inspects every array reference of every unit.
func (a *Analyzer) Analyze() *Result {
	res := &Result{Safe: map[*lang.ArrayRef]bool{}, PerArray: map[string]int{}}
	for _, u := range a.Info.Program.Units() {
		a.unit(u, res)
	}
	return res
}

func (a *Analyzer) unit(u *lang.Unit, res *Result) {
	a.walkRefs(u, func(s lang.Stmt, ref *lang.ArrayRef, env expr.Env) {
		res.Total++
		if a.refSafe(u, s, ref, env) {
			res.Safe[ref] = true
			res.Proven++
			res.PerArray[ref.Name]++
		}
	})
}

// walkRefs visits every non-intrinsic array reference of u together with
// the symbolic range environment of its enclosing DO loops, with named
// constants already substituted in the bounds — the shared traversal of
// the safety proof (Analyze) and the violation proof (Violations).
func (a *Analyzer) walkRefs(u *lang.Unit, visit func(s lang.Stmt, ref *lang.ArrayRef, env expr.Env)) {
	var walk func(stmts []lang.Stmt, env expr.Env)
	inspect := func(s lang.Stmt, env expr.Env) {
		lang.StmtExprs(s, func(e lang.Expr) {
			lang.WalkExpr(e, func(x lang.Expr) bool {
				ref, ok := x.(*lang.ArrayRef)
				if !ok || ref.Intrinsic {
					return true
				}
				visit(s, ref, env)
				return true
			})
		})
	}
	walk = func(stmts []lang.Stmt, env expr.Env) {
		for _, s := range stmts {
			inspect(s, env)
			switch s := s.(type) {
			case *lang.IfStmt:
				walk(s.Then, env)
				for _, arm := range s.Elifs {
					walk(arm.Body, env)
				}
				walk(s.Else, env)
			case *lang.DoStmt:
				lo := a.resolveParams(u, expr.FromAST(s.Lo))
				hi := a.resolveParams(u, expr.FromAST(s.Hi))
				rng := expr.NewRange(lo, hi)
				if s.Step != nil {
					if c, ok := expr.FromAST(s.Step).IsConst(); ok && c < 0 {
						rng = expr.NewRange(hi, lo)
					} else if !ok {
						rng = expr.Range{}
					}
				}
				walk(s.Body, env.With(s.Var.Name, rng))
			case *lang.WhileStmt:
				// Scalars may change unpredictably inside: analyze the
				// body without extending the environment (subscripts
				// depending on while-modified scalars will simply fail
				// the range proof).
				walk(s.Body, env)
			}
		}
	}
	walk(u.Body, expr.Env{})
}

// resolveParams substitutes named integer constants (PARAM declarations)
// by their values, making loop bounds like "do i = 1, n" comparable against
// constant array dimensions.
func (a *Analyzer) resolveParams(u *lang.Unit, e *expr.Expr) *expr.Expr {
	for _, p := range a.params[u] {
		e = e.SubstVar(p.name, p.value)
	}
	return e
}

// refSafe proves one reference's subscripts within the declared bounds.
func (a *Analyzer) refSafe(u *lang.Unit, at lang.Stmt, ref *lang.ArrayRef, env expr.Env) bool {
	sym := a.Info.LookupIn(u, ref.Name)
	if sym == nil || sym.Kind != sem.ArraySym || len(sym.Dims) != len(ref.Args) {
		return false
	}
	// Subscripts that depend on scalars modified inside enclosing WHILE
	// bodies would need flow-sensitive ranges; the env omission above
	// handles DO vars, but an unbound scalar simply has a point range and
	// the proof fails unless the bounds are constants anyway — still
	// sound because we only prove against the env we trust. To remain
	// strictly sound for scalars reassigned between here and the range's
	// derivation we only accept subscripts whose free scalars are either
	// env-bound DO variables or appear directly (point proofs need the
	// subscript itself constant).
	for d, arg := range ref.Args {
		dim := sym.Dims[d]
		lo, hi := expr.Const(dim.Lo), expr.Const(dim.Hi)
		e := a.resolveParams(u, expr.FromAST(arg))

		rng, ok := expr.Bounds(e, env, a.Assume)
		if !ok {
			rng, ok = a.indirectBounds(u, at, e, env)
		}
		if !ok || rng.Lo == nil || rng.Hi == nil {
			return false
		}
		// Free scalars other than env-bound loop variables make the
		// range valid only at this instant; for bounds proofs that is
		// exactly what we need (the subscript is evaluated here), so a
		// symbolic residue is acceptable only when the comparison is
		// still provable.
		if !expr.ProveLE(lo, rng.Lo, a.Assume) || !expr.ProveLE(rng.Hi, hi, a.Assume) {
			return false
		}
	}
	return true
}

// indirectBounds bounds a subscript containing index-array atoms using the
// closed-form-bounds property.
func (a *Analyzer) indirectBounds(u *lang.Unit, at lang.Stmt, e *expr.Expr, env expr.Env) (expr.Range, bool) {
	if a.Prop == nil {
		return expr.Range{}, false
	}
	arrays := map[string]bool{}
	lang.WalkExpr(e.ToAST(), func(x lang.Expr) bool {
		if ar, ok := x.(*lang.ArrayRef); ok && !ar.Intrinsic {
			arrays[ar.Name] = true
		}
		return true
	})
	if len(arrays) == 0 {
		return expr.Range{}, false
	}
	lo, hi := e, e
	names := make([]string, 0, len(arrays))
	for n := range arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, ia := range names {
		var qlo, qhi *expr.Expr
		for _, arg := range e.ArrayAtoms(ia) {
			r, ok := expr.Bounds(arg, env, a.Assume)
			if !ok || r.Lo == nil || r.Hi == nil {
				return expr.Range{}, false
			}
			qlo = expr.ProvableMin(qlo, r.Lo, a.Assume)
			qhi = expr.ProvableMax(qhi, r.Hi, a.Assume)
		}
		if qlo == nil || qhi == nil {
			return expr.Range{}, false
		}
		iaName := ia
		p, ok := a.Prop.VerifyCached(
			func() property.Property { return property.NewBounds(iaName) },
			at, sectionOf(ia, qlo, qhi))
		prop, isB := p.(*property.Bounds)
		if !ok || !isB || prop.Lo == nil || prop.Hi == nil {
			return expr.Range{}, false
		}
		pl := a.resolveParams(u, prop.Lo)
		ph := a.resolveParams(u, prop.Hi)
		for key := range lo.ArrayAtoms(ia) {
			lo = lo.SubstAtom(key, pl)
		}
		for key := range hi.ArrayAtoms(ia) {
			hi = hi.SubstAtom(key, ph)
		}
	}
	rlo, ok1 := expr.Bounds(lo, env, a.Assume)
	rhi, ok2 := expr.Bounds(hi, env, a.Assume)
	if !ok1 || !ok2 {
		return expr.Range{}, false
	}
	return expr.Range{Lo: rlo.Lo, Hi: rhi.Hi}, true
}

// Violation is one subscript proven to lie entirely outside its array's
// declared bounds: every execution of the reference that reaches it faults.
// The inversion of refSafe — and sound under the same over-approximated
// ranges, because a range wholly past a bound certifies that even the
// tightest actual subscript value is past it.
type Violation struct {
	Unit *lang.Unit
	Stmt lang.Stmt
	Ref  *lang.ArrayRef
	// Dim is the offending dimension, 0-based.
	Dim int
	// Low reports the direction: true when the subscript is provably below
	// the lower bound, false when provably above the upper bound.
	Low bool
	// Sub is the resolved symbolic subscript range; Bound is the violated
	// declared bound.
	Sub   expr.Range
	Bound int64
}

// Violations proves subscripts out of bounds: a reference is reported when
// some dimension's symbolic range lies provably and entirely outside the
// declared bounds. References that merely fail the safety proof are not
// violations — only a definite fault qualifies.
func (a *Analyzer) Violations() []Violation {
	var out []Violation
	for _, u := range a.Info.Program.Units() {
		u := u
		a.walkRefs(u, func(s lang.Stmt, ref *lang.ArrayRef, env expr.Env) {
			out = append(out, a.refViolations(u, s, ref, env)...)
		})
	}
	return out
}

func (a *Analyzer) refViolations(u *lang.Unit, at lang.Stmt, ref *lang.ArrayRef, env expr.Env) []Violation {
	sym := a.Info.LookupIn(u, ref.Name)
	if sym == nil || sym.Kind != sem.ArraySym || len(sym.Dims) != len(ref.Args) {
		return nil
	}
	var out []Violation
	for d, arg := range ref.Args {
		dim := sym.Dims[d]
		e := a.resolveParams(u, expr.FromAST(arg))
		rng, ok := expr.Bounds(e, env, a.Assume)
		if !ok {
			rng, ok = a.indirectBounds(u, at, e, env)
		}
		if !ok || rng.Lo == nil || rng.Hi == nil {
			continue
		}
		switch {
		case expr.ProveLE(rng.Hi, expr.Const(dim.Lo-1), a.Assume):
			out = append(out, Violation{Unit: u, Stmt: at, Ref: ref, Dim: d, Low: true, Sub: rng, Bound: dim.Lo})
		case expr.ProveLE(expr.Const(dim.Hi+1), rng.Lo, a.Assume):
			out = append(out, Violation{Unit: u, Stmt: at, Ref: ref, Dim: d, Low: false, Sub: rng, Bound: dim.Hi})
		}
	}
	return out
}

func sectionOf(arr string, lo, hi *expr.Expr) *section.Section {
	return section.New(arr, lo, hi)
}
