package property

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// Formal is the formal index variable used in derived closed forms: the
// derived value of a ClosedFormValue property is an expression over Formal.
// The name cannot collide with F-lite identifiers (they are lower-case
// letters/digits/underscores only).
const Formal = "#k"

// Ctx gives property checkers access to the surrounding analysis when
// summarizing one node.
type Ctx struct {
	s    *session
	node *cfg.HNode
}

func (s *session) ctxFor(n *cfg.HNode) *Ctx { return &Ctx{s: s, node: n} }

// Env returns the index ranges of every DO loop enclosing the node (walking
// the section-graph parent chain). Value hulls bounded over this
// environment are valid anywhere in the unit.
func (c *Ctx) Env() expr.Env {
	env := expr.Env{}
	for g := c.node.Graph; g != nil && g.Parent != nil; g = g.Parent.Graph {
		if d, ok := g.Parent.Stmt.(*lang.DoStmt); ok {
			lo, hi, _, _ := expr.DoRange(d)
			env[d.Var.Name] = expr.NewRange(lo, hi)
		}
	}
	return env
}

// SeenModified reports whether code between the prospective definition
// site and the use site (a node the query already traversed) wrote a
// scalar or an array one of es reads.
func (c *Ctx) SeenModified(es ...*expr.Expr) bool {
	return writes(c.s.mod, "", es...)
}

// Property is one verifiable/derivable index-array property. Kill results
// are MAY approximations, Gen results MUST approximations.
type Property interface {
	// Kind names the property class ("bounds", "injective", ...). Unlike
	// String, it is stable across verification: derive-mode properties
	// accumulate facts that change their String rendering, so the memo
	// table (VerifyCached) keys on Kind plus the target array instead.
	Kind() string
	// TargetArray is the index array the property concerns.
	TargetArray() string
	// Relational marks whole-section properties (injectivity,
	// monotonicity): a query section is only discharged by a single Gen
	// section containing it.
	Relational() bool
	// Mentions returns the expressions the property's derived facts rest
	// on; a write of a scalar or an array they read on the query path kills
	// the query.
	Mentions() []*expr.Expr
	// SummarizeAssign reports the effect of one assignment.
	SummarizeAssign(c *Ctx, st *lang.AssignStmt) (kill, gen *section.Set)
	// SummarizeLoop lets the checker recognise whole-loop idioms (index
	// gathering, recurrences); ok=false falls back to generic
	// aggregation.
	SummarizeLoop(c *Ctx, n *cfg.HNode) (kill, gen *section.Set, ok bool)
	fmt.Stringer
}

// base carries the common property fields.
type base struct {
	array string
	ndims int
	// rests are the expressions the derived facts rest on.
	rests []*expr.Expr
}

func (b *base) TargetArray() string { return b.array }

func (b *base) Mentions() []*expr.Expr { return b.rests }

// rest adds each of es that the derived facts do not rest on yet.
func (b *base) rest(es ...*expr.Expr) {
	for _, e := range es {
		if !slices.ContainsFunc(b.rests, e.Equal) {
			b.rests = append(b.rests, e)
		}
	}
}

func (b *base) killAll() *section.Set {
	return section.NewSet(section.Universal(b.array, b.ndims))
}

func emptySets() (*section.Set, *section.Set) {
	return section.NewSet(), section.NewSet()
}

// lhsInfo decomposes an assignment's left-hand side.
type lhsInfo struct {
	array string
	sub   *expr.Expr // first-dimension subscript (canonical), arrays only
	nsubs int
}

func lhsOf(st *lang.AssignStmt) lhsInfo {
	l, ok := st.Lhs.(*lang.ArrayRef)
	if !ok {
		return lhsInfo{}
	}
	li := lhsInfo{array: l.Name, nsubs: len(l.Args)}
	if len(l.Args) >= 1 {
		li.sub = expr.FromAST(l.Args[0])
	}
	return li
}

// ---------------------------------------------------------------------------
// Bounds: every element value lies within a derived [Lo, Hi] hull.

// Bounds derives closed-form bounds (§3: "closed-form bound") for the
// values of an index array section. On success, Lo and Hi hold the hull.
type Bounds struct {
	base
	Lo, Hi *expr.Expr
	broken bool
}

// NewBounds builds a bounds property for a one-dimensional index array.
func NewBounds(array string) *Bounds {
	return &Bounds{base: base{array: array, ndims: 1}}
}

func (p *Bounds) Kind() string { return "bounds" }

func (p *Bounds) Relational() bool { return false }

func (p *Bounds) String() string {
	return fmt.Sprintf("bounds(%s) in [%v:%v]", p.array, p.Lo, p.Hi)
}

// merge widens the derived hull; it fails (breaking the property) when the
// relative order of bounds cannot be proven. The property rests on every
// hull end it adopts.
func (p *Bounds) merge(lo, hi *expr.Expr, c *Ctx) bool {
	if p.Lo == nil && p.Hi == nil && !p.broken {
		p.Lo, p.Hi = lo, hi
	} else {
		nl := expr.ProvableMin(p.Lo, lo, nil)
		nh := expr.ProvableMax(p.Hi, hi, nil)
		if nl == nil || nh == nil {
			p.broken = true
			return false
		}
		p.Lo, p.Hi = nl, nh
	}
	p.rest(p.Lo, p.Hi)
	return true
}

func (p *Bounds) SummarizeAssign(c *Ctx, st *lang.AssignStmt) (*section.Set, *section.Set) {
	l := lhsOf(st)
	if l.array != p.array {
		return emptySets()
	}
	if l.nsubs != 1 || p.broken {
		return p.killAll(), section.NewSet()
	}
	val := expr.FromAST(st.Rhs)
	r, ok := expr.Bounds(val, c.Env(), nil)
	if !ok || r.Lo == nil || r.Hi == nil {
		r, ok = modulusBounds(st.Rhs, c)
	}
	if !ok || r.Lo == nil || r.Hi == nil {
		return p.killElem(l.sub, c), section.NewSet()
	}
	if c.SeenModified(r.Lo, r.Hi) {
		return p.killElem(l.sub, c), section.NewSet()
	}
	// The element's subscript may itself depend on enclosing loop
	// variables; the loop aggregation takes care of that. But a value
	// whose hull cannot merge breaks the whole derivation.
	if !p.merge(r.Lo, r.Hi, c) {
		return p.killAll(), section.NewSet()
	}
	return section.NewSet(), section.NewSet(section.Elem(p.array, l.sub))
}

// modulusBounds bounds values of the shape mod(x, c) + rest: for constant
// c > 0 and provably nonnegative x, mod(x, c) lies in [0, c-1]. This idiom
// is how block-size index arrays are commonly synthesised.
func modulusBounds(rhs lang.Expr, c *Ctx) (expr.Range, bool) {
	return modulusBoundsEnv(rhs, c.Env(), nil)
}

// modulusBoundsEnv is modulusBounds over an explicit environment, so the
// recurrence derivation can extend the env with the fill loop's own
// variable (Ctx.Env only covers enclosing loops).
func modulusBoundsEnv(rhs lang.Expr, env expr.Env, a expr.Assumptions) (expr.Range, bool) {
	var modRef *lang.ArrayRef
	replaced := lang.MapExpr(lang.CloneExpr(rhs), func(e lang.Expr) lang.Expr {
		ar, ok := e.(*lang.ArrayRef)
		if !ok || !ar.Intrinsic || ar.Name != "mod" || len(ar.Args) != 2 || modRef != nil {
			return e
		}
		modRef = ar
		// Stand-in marker variable, replaced by the mod bounds below.
		return &lang.Ident{Name: "#mod"}
	})
	if modRef == nil {
		return expr.Range{}, false
	}
	cv, ok := expr.FromAST(modRef.Args[1]).IsConst()
	if !ok || cv <= 0 {
		return expr.Range{}, false
	}
	argR, ok := expr.Bounds(expr.FromAST(modRef.Args[0]), env, a)
	if !ok || argR.Lo == nil || !expr.ProveGE0(argR.Lo, a) {
		return expr.Range{}, false
	}
	menv := env.With("#mod", expr.NewRange(expr.Zero, expr.Const(cv-1)))
	return expr.Bounds(expr.FromAST(replaced), menv, a)
}

func (p *Bounds) killElem(sub *expr.Expr, c *Ctx) *section.Set {
	if sub == nil {
		return p.killAll()
	}
	// The subscript may mention loop variables; widen over the env so the
	// MAY kill stays sound after aggregation.
	sec := section.Elem(p.array, sub)
	return section.NewSet(sec.AggregateMayEnv(c.Env()))
}

func (p *Bounds) SummarizeLoop(c *Ctx, n *cfg.HNode) (*section.Set, *section.Set, bool) {
	gi := c.s.detectGather(n, p.array)
	if gi == nil {
		return nil, nil, false
	}
	if gi.ValLo == nil || gi.ValHi == nil || p.broken {
		return nil, nil, false
	}
	if c.SeenModified(gi.ValLo, gi.ValHi, gi.Base) {
		return nil, nil, false
	}
	if !p.merge(gi.ValLo, gi.ValHi, c) {
		return p.killAll(), section.NewSet(), true
	}
	c.s.a.Stats.GatherHits++
	gen := section.NewSet(section.New(p.array, gi.Base.AddConst(1), expr.Var(gi.Counter)))
	return section.NewSet(), gen, true
}

// ---------------------------------------------------------------------------
// Injective: the values in the section are pairwise distinct.

// Injective verifies that an index array section holds pairwise-distinct
// values (the prerequisite of the injective dependence test, §5.1.5).
type Injective struct {
	base
}

// NewInjective builds an injectivity property for a 1-D index array.
func NewInjective(array string) *Injective {
	return &Injective{base: base{array: array, ndims: 1}}
}

func (p *Injective) Kind() string     { return "injective" }
func (p *Injective) Relational() bool { return true }
func (p *Injective) String() string   { return fmt.Sprintf("injective(%s)", p.array) }

func (p *Injective) SummarizeAssign(c *Ctx, st *lang.AssignStmt) (*section.Set, *section.Set) {
	l := lhsOf(st)
	if l.array != p.array {
		return emptySets()
	}
	// Any individual write may break injectivity of sections containing
	// the element.
	return p.killAll(), section.NewSet()
}

func (p *Injective) SummarizeLoop(c *Ctx, n *cfg.HNode) (*section.Set, *section.Set, bool) {
	if gi := c.s.detectGather(n, p.array); gi != nil {
		c.s.a.Stats.GatherHits++
		gen := section.NewSet(section.New(p.array, gi.Base.AddConst(1), expr.Var(gi.Counter)))
		// Net kill is empty: everything written is exactly the generated
		// section (SummarizeProgSection reports kills net of regeneration).
		return section.NewSet(), gen, true
	}
	// An affine fill a(i) = c*i + rest with c != 0 assigns pairwise
	// distinct values (the closed-form-value route to injectivity).
	if af := matchAffineFill(c, n, p.array); af != nil && af.coef != 0 {
		c.s.a.Stats.PatternHits++
		return section.NewSet(), section.NewSet(section.New(p.array, af.lo, af.hi)), true
	}
	// Definition-site derivation: a recurrence fill with strictly positive
	// increments is strictly monotonic, hence injective (injectivity as a
	// corollary of strict monotonicity).
	if dr := c.deriveForLoop(n, p.array); dr != nil && dr.Strict() {
		c.s.a.Stats.DerivedInjective++
		gen := section.NewSet(section.New(p.array, dr.ElemLo, dr.ElemHi))
		return section.NewSet(), gen, true
	}
	return nil, nil, false
}

// ---------------------------------------------------------------------------
// Monotonic: values are monotonically non-decreasing (or strictly
// increasing) across the section.

// Monotonic verifies monotonicity of the values of an index array section.
type Monotonic struct {
	base
	// Strict is set when the generated values are provably strictly
	// increasing (which subsumes non-decreasing).
	Strict bool
}

// NewMonotonic builds a monotonicity property for a 1-D index array.
func NewMonotonic(array string) *Monotonic {
	return &Monotonic{base: base{array: array, ndims: 1}}
}

func (p *Monotonic) Kind() string     { return "monotonic" }
func (p *Monotonic) Relational() bool { return true }
func (p *Monotonic) String() string   { return fmt.Sprintf("monotonic(%s)", p.array) }

func (p *Monotonic) SummarizeAssign(c *Ctx, st *lang.AssignStmt) (*section.Set, *section.Set) {
	l := lhsOf(st)
	if l.array != p.array {
		return emptySets()
	}
	return p.killAll(), section.NewSet()
}

func (p *Monotonic) SummarizeLoop(c *Ctx, n *cfg.HNode) (*section.Set, *section.Set, bool) {
	if gi := c.s.detectGather(n, p.array); gi != nil && gi.Increasing {
		c.s.a.Stats.GatherHits++
		p.Strict = true
		gen := section.NewSet(section.New(p.array, gi.Base.AddConst(1), expr.Var(gi.Counter)))
		return section.NewSet(), gen, true
	}
	// An affine fill a(i) = c*i + rest is monotonically non-decreasing in
	// the element index for c >= 0, strictly increasing for c >= 1.
	if af := matchAffineFill(c, n, p.array); af != nil && af.coef >= 0 {
		c.s.a.Stats.PatternHits++
		p.Strict = af.coef >= 1
		return section.NewSet(), section.NewSet(section.New(p.array, af.lo, af.hi)), true
	}
	// Definition-site derivation (Bhosale & Eigenmann): a prefix-sum fill
	// x(i+1) = x(i) + d with every increment provably nonnegative is
	// monotonic by construction, strictly when every increment is positive.
	if dr := c.deriveForLoop(n, p.array); dr != nil && dr.Monotonic() {
		c.s.a.Stats.DerivedMonotonic++
		p.Strict = dr.Strict()
		gen := section.NewSet(section.New(p.array, dr.ElemLo, dr.ElemHi))
		return section.NewSet(), gen, true
	}
	return nil, nil, false
}

// affineFill describes a loop "do i = lo, hi: a(i) = coef*i + rest" with
// loop-invariant rest.
type affineFill struct {
	coef   int64
	lo, hi *expr.Expr
}

// matchAffineFill recognises a dense affine fill of the array: the loop
// body is exactly one assignment a(i) = e with e affine in the loop
// variable, and nothing about the loop can change between definition and
// use (checked against the traversal's modification log).
func matchAffineFill(c *Ctx, n *cfg.HNode, array string) *affineFill {
	if n.Kind != cfg.NDoHead {
		return nil
	}
	d := n.Stmt.(*lang.DoStmt)
	if len(d.Body) != 1 {
		return nil
	}
	as, ok := d.Body[0].(*lang.AssignStmt)
	if !ok {
		return nil
	}
	ref, ok := as.Lhs.(*lang.ArrayRef)
	if !ok || ref.Name != array || len(ref.Args) != 1 {
		return nil
	}
	if v, isVar := expr.FromAST(ref.Args[0]).IsVar(); !isVar || v != d.Var.Name {
		return nil
	}
	lo, hi, dense, okRange := expr.DoRange(d)
	if !okRange || !dense {
		return nil
	}
	val := expr.FromAST(as.Rhs)
	coef, rest, okAff := val.Affine(d.Var.Name)
	if !okAff {
		return nil
	}
	// The rest and the bounds must be stable between definition and use.
	if c.SeenModified(rest, lo, hi) {
		return nil
	}
	return &affineFill{coef: coef, lo: lo, hi: hi}
}

// ---------------------------------------------------------------------------
// ClosedFormValue: x(k) = f(k) for every k in the section.

// ClosedFormValue derives a closed-form expression for the elements of an
// index array. The derived Value is an expression over the formal variable
// Formal.
type ClosedFormValue struct {
	base
	// Value is the derived closed form (over Formal).
	Value *expr.Expr
}

// NewClosedFormValue builds a derive-mode closed-form-value property.
func NewClosedFormValue(array string) *ClosedFormValue {
	return &ClosedFormValue{base: base{array: array, ndims: 1}}
}

func (p *ClosedFormValue) Kind() string     { return "closed-form-value" }
func (p *ClosedFormValue) Relational() bool { return false }

func (p *ClosedFormValue) String() string {
	return fmt.Sprintf("closed-form-value(%s) = %v", p.array, p.Value)
}

// ValueAt instantiates the derived closed form at a subscript expression.
func (p *ClosedFormValue) ValueAt(sub *expr.Expr) *expr.Expr {
	if p.Value == nil {
		return nil
	}
	return p.Value.SubstVar(Formal, sub)
}

func (p *ClosedFormValue) SummarizeAssign(c *Ctx, st *lang.AssignStmt) (*section.Set, *section.Set) {
	l := lhsOf(st)
	if l.array != p.array {
		return emptySets()
	}
	if l.nsubs != 1 {
		return p.killAll(), section.NewSet()
	}
	val := expr.FromAST(st.Rhs)
	if p.Value != nil {
		// Verify: does the assigned value match f(sub)?
		want := p.Value.SubstVar(Formal, l.sub)
		if val.Equal(want) {
			return section.NewSet(), section.NewSet(section.Elem(p.array, l.sub))
		}
		return p.killElemWide(l.sub, c), section.NewSet()
	}

	// Derive: the subscript must be a plain variable so the value can be
	// re-expressed as a function of the position.
	v, isVar := l.sub.IsVar()
	if !isVar {
		return p.killElemWide(l.sub, c), section.NewSet()
	}
	f := val.SubstVar(v, expr.Var(Formal))
	// f must be a pure function of the position: no scalar or array it
	// reads may have been written on the use–def path.
	if c.SeenModified(f) {
		return p.killElemWide(l.sub, c), section.NewSet()
	}
	p.Value = f
	p.rest(f)
	c.s.a.Stats.PatternHits++
	return section.NewSet(), section.NewSet(section.Elem(p.array, l.sub))
}

func (p *ClosedFormValue) killElemWide(sub *expr.Expr, c *Ctx) *section.Set {
	if sub == nil {
		return p.killAll()
	}
	sec := section.Elem(p.array, sub)
	return section.NewSet(sec.AggregateMayEnv(c.Env()))
}

func (p *ClosedFormValue) SummarizeLoop(c *Ctx, n *cfg.HNode) (*section.Set, *section.Set, bool) {
	return nil, nil, false // the generic aggregation handles CFV loops
}

// ---------------------------------------------------------------------------
// ClosedFormDistance: x(k+1) - x(k) = d(k).
//
// Section semantics are PAIR space: a section [a:b] of this property stands
// for the pairs (k, k+1) for k in [a:b].

// ClosedFormDistance derives the closed-form distance of an index array
// (§3.2.8): x(k+1) − x(k) = Dist(k), Dist over the formal variable Formal.
type ClosedFormDistance struct {
	base
	Dist *expr.Expr
}

// NewClosedFormDistance builds a derive-mode closed-form-distance property.
func NewClosedFormDistance(array string) *ClosedFormDistance {
	return &ClosedFormDistance{base: base{array: array, ndims: 1}}
}

func (p *ClosedFormDistance) Kind() string     { return "closed-form-distance" }
func (p *ClosedFormDistance) Relational() bool { return false }

func (p *ClosedFormDistance) String() string {
	return fmt.Sprintf("closed-form-distance(%s) = %v", p.array, p.Dist)
}

// DistAt instantiates the derived distance at a subscript expression.
func (p *ClosedFormDistance) DistAt(sub *expr.Expr) *expr.Expr {
	if p.Dist == nil {
		return nil
	}
	return p.Dist.SubstVar(Formal, sub)
}

func (p *ClosedFormDistance) SummarizeAssign(c *Ctx, st *lang.AssignStmt) (*section.Set, *section.Set) {
	l := lhsOf(st)
	if l.array != p.array {
		return emptySets()
	}
	if l.nsubs != 1 || l.sub == nil {
		return p.killAll(), section.NewSet()
	}
	// A lone write to element e destroys the distance knowledge of the
	// pairs (e-1, e) and (e, e+1).
	sec := section.New(p.array, l.sub.AddConst(-1), l.sub)
	return section.NewSet(sec.AggregateMayEnv(c.Env())), section.NewSet()
}

// SummarizeLoop matches the recurrence idioms of §3.2.8 and Fig. 3(c):
//
//	(b) do i = lo, hi:  x(i) = x(i-1) + d(i-1)   → pairs [lo-1 : hi-1]
//	    do i = lo, hi:  x(i+1) = x(i) + d(i)     → pairs [lo : hi]
//	(a) do i = lo, hi:  x(i) = t ; t = t + d(i)  → pairs [lo : hi-1]
func (p *ClosedFormDistance) SummarizeLoop(c *Ctx, n *cfg.HNode) (*section.Set, *section.Set, bool) {
	d, ok := n.Stmt.(*lang.DoStmt)
	if !ok {
		return nil, nil, false
	}
	lo, hi, dense, okRange := expr.DoRange(d)
	if !okRange || !dense {
		return nil, nil, false
	}
	m := matchRecurrence(d, p.array)
	if m == nil {
		return nil, nil, false
	}
	// The distance expression must be stable between definition and use.
	dist := m.dist.SubstVar(d.Var.Name, expr.Var(Formal))
	if c.SeenModified(dist) {
		return nil, nil, false
	}
	if p.Dist != nil && !p.Dist.Equal(dist) {
		return p.killAll(), section.NewSet(), true
	}
	p.Dist = dist
	p.rest(dist)
	c.s.a.Stats.PatternHits++
	if !c.s.a.NoRecurrence {
		c.s.a.Stats.DerivedDistance++
	}

	pairLo := lo.Add(m.pairLoOff)
	pairHi := hi.Add(m.pairHiOff)
	gen := section.NewSet(section.New(p.array, pairLo, pairHi))
	// Net kill: pairs broken by the loop's writes and not regenerated.
	kill := section.NewSet()
	for _, ks := range m.netKillPairs(lo, hi) {
		kill.AddMay(ks)
	}
	return kill, gen, true
}
