// Package section implements symbolic regular array sections and the
// conservative set algebra the array analyses are built on.
//
// A Section describes a rectangular region of one array: one symbolic
// [lo:hi] range per dimension (step 1). The paper's data-flow equations
// (§3.1) manipulate sections with union, subtraction and loop aggregation;
// crucially, Kill sets are MAY approximations (may only grow) and Gen sets
// are MUST approximations (may only shrink), so each operation here comes in
// a flavour for each direction. In the worst case Kill becomes the universal
// section and Gen becomes empty — exactly the paper's fallback.
package section

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/expr"
)

// Section is a rectangular symbolic region of one array. A nil bound in a
// dimension means unbounded in that direction; a Section with no Dims is
// invalid except via Universal, which represents "all of the array".
type Section struct {
	Array string
	Dims  []expr.Range

	// key memoizes Key(). Safe because sections are built (or Cloned — which
	// deliberately does not copy key) before being mutated, and never mutated
	// after first being used as a map key.
	key string
}

// New builds a one-dimensional section array[lo:hi].
func New(array string, lo, hi *expr.Expr) *Section {
	return &Section{Array: array, Dims: []expr.Range{{Lo: lo, Hi: hi}}}
}

// Elem builds the single-element section array[at] (one-dimensional).
func Elem(array string, at *expr.Expr) *Section {
	return New(array, at, at)
}

// NewMulti builds a multi-dimensional section.
func NewMulti(array string, dims []expr.Range) *Section {
	return &Section{Array: array, Dims: dims}
}

// Universal returns the section covering all of array, whatever its bounds.
func Universal(array string, ndims int) *Section {
	dims := make([]expr.Range, ndims)
	return &Section{Array: array, Dims: dims}
}

// Clone returns a copy of s.
func (s *Section) Clone() *Section {
	c := &Section{Array: s.Array, Dims: append([]expr.Range(nil), s.Dims...)}
	return c
}

func (s *Section) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		lo, hi := "*", "*"
		if d.Lo != nil {
			lo = d.Lo.String()
		}
		if d.Hi != nil {
			hi = d.Hi.String()
		}
		if lo == hi && d.Lo != nil {
			parts[i] = lo
		} else {
			parts[i] = lo + ":" + hi
		}
	}
	return fmt.Sprintf("%s[%s]", s.Array, strings.Join(parts, ", "))
}

// Key returns an unambiguous identity string for memoization. Unlike
// String — which collapses a lo==hi dimension to a single value, so
// p[i] and p[i:i] render identically while p[i:j] does not — Key always
// writes both bounds with a separator no expression rendering contains,
// so two sections share a Key exactly when they are structurally equal.
func (s *Section) Key() string {
	if s.key == "" {
		s.key = s.renderKey()
	}
	return s.key
}

// keyScratch recycles the assembly buffer of renderKey. Sections are keyed
// constantly on the analysis hot path (every memo probe); the pooled
// scratch leaves the bounds' renderings and the key string as a render's
// only allocations.
var keyScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

func (s *Section) renderKey() string {
	bp := keyScratch.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, s.Array...)
	for _, d := range s.Dims {
		b = append(b, '|')
		if d.Lo != nil {
			b = append(b, d.Lo.String()...)
		}
		b = append(b, ';')
		if d.Hi != nil {
			b = append(b, d.Hi.String()...)
		}
	}
	key := string(b)
	*bp = b
	keyScratch.Put(bp)
	return key
}

// ProvablyEmpty reports whether some dimension's range is provably empty
// (lo > hi).
func (s *Section) ProvablyEmpty() bool {
	for _, d := range s.Dims {
		if d.Lo != nil && d.Hi != nil && expr.ProveLT(d.Hi, d.Lo, nil) {
			return true
		}
	}
	return false
}

// Equal reports whether two sections are structurally identical.
func (s *Section) Equal(o *Section) bool {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if !rangeEqual(s.Dims[i], o.Dims[i]) {
			return false
		}
	}
	return true
}

func rangeEqual(a, b expr.Range) bool {
	return exprEqualOrBothNil(a.Lo, b.Lo) && exprEqualOrBothNil(a.Hi, b.Hi)
}

func exprEqualOrBothNil(a, b *expr.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// Contains conservatively proves s ⊇ o (same array, every dimension of s
// covering the corresponding dimension of o).
func (s *Section) Contains(o *Section) bool {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if !expr.RangeContains(s.Dims[i], o.Dims[i]) {
			return false
		}
	}
	return true
}

// Disjoint conservatively proves s ∩ o = ∅: different arrays, or some
// dimension provably disjoint.
func (s *Section) Disjoint(o *Section) bool {
	if s.Array != o.Array {
		return true
	}
	if len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if expr.DisjointRanges(s.Dims[i], o.Dims[i]) {
			return true
		}
	}
	return false
}

// UnionMay returns the rectangular hull of s and o: an over-approximation
// suitable for MAY sets (Kill, read sets). Returns nil when the arrays
// differ (callers keep them separate).
func (s *Section) UnionMay(o *Section) *Section {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return nil
	}
	out := &Section{Array: s.Array, Dims: make([]expr.Range, len(s.Dims))}
	for i := range s.Dims {
		out.Dims[i] = expr.Range{
			Lo: hullLo(s.Dims[i].Lo, o.Dims[i].Lo),
			Hi: hullHi(s.Dims[i].Hi, o.Dims[i].Hi),
		}
	}
	return out
}

func hullLo(x, y *expr.Expr) *expr.Expr {
	if x == nil || y == nil {
		return nil
	}
	switch {
	case expr.ProveLE(x, y, nil):
		return x
	case expr.ProveLE(y, x, nil):
		return y
	default:
		return nil // unknown ⇒ unbounded (conservative for MAY)
	}
}

func hullHi(x, y *expr.Expr) *expr.Expr {
	if x == nil || y == nil {
		return nil
	}
	switch {
	case expr.ProveLE(x, y, nil):
		return y
	case expr.ProveLE(y, x, nil):
		return x
	default:
		return nil
	}
}

// UnionMust returns an under-approximation of s ∪ o: the exact union when
// the sections agree in all dimensions but one and are provably adjacent or
// overlapping in that one; otherwise it returns whichever operand contains
// the other, or nil if neither relation is provable. Suitable for MUST sets
// (Gen, write sets).
func (s *Section) UnionMust(o *Section) *Section {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return nil
	}
	if s.Contains(o) {
		return s.Clone()
	}
	if o.Contains(s) {
		return o.Clone()
	}
	// Exact merge along one dimension.
	diffDim := -1
	for i := range s.Dims {
		if !rangeEqual(s.Dims[i], o.Dims[i]) {
			if diffDim >= 0 {
				return nil
			}
			diffDim = i
		}
	}
	if diffDim < 0 {
		return s.Clone()
	}
	d1, d2 := s.Dims[diffDim], o.Dims[diffDim]
	if d1.Lo == nil || d1.Hi == nil || d2.Lo == nil || d2.Hi == nil {
		return nil
	}
	// Mergeable iff d2.lo <= d1.hi+1 and d1.lo <= d2.hi+1 (adjacent or
	// overlapping, in either order).
	if expr.ProveLE(d2.Lo, d1.Hi.AddConst(1), nil) && expr.ProveLE(d1.Lo, d2.Hi.AddConst(1), nil) {
		out := s.Clone()
		out.Dims[diffDim] = expr.Range{
			Lo: expr.ProvableMin(d1.Lo, d2.Lo, nil),
			Hi: expr.ProvableMax(d1.Hi, d2.Hi, nil),
		}
		if out.Dims[diffDim].Lo == nil || out.Dims[diffDim].Hi == nil {
			return nil
		}
		return out
	}
	return nil
}

// SubtractMay returns an over-approximation of s \ o, used for propagating
// the still-unverified part of a query (paper: Section(remain) = Section −
// Gen). The result is nil when s is provably fully covered by o.
func (s *Section) SubtractMay(o *Section) *Section {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return s.Clone()
	}
	if o.Contains(s) {
		return nil
	}
	// Trimming is exact only if o covers s in every dimension but one.
	trimDim := -1
	for i := range s.Dims {
		if !expr.RangeContains(o.Dims[i], s.Dims[i]) {
			if trimDim >= 0 {
				return s.Clone() // more than one uncovered dim: give up
			}
			trimDim = i
		}
	}
	if trimDim < 0 {
		return nil
	}
	d, od := s.Dims[trimDim], o.Dims[trimDim]
	out := s.Clone()
	// Trim from below: o covers [*, od.Hi] from the start of d.
	coversLow := od.Lo == nil || (d.Lo != nil && expr.ProveLE(od.Lo, d.Lo, nil))
	coversHigh := od.Hi == nil || (d.Hi != nil && expr.ProveLE(d.Hi, od.Hi, nil))
	switch {
	case coversLow && od.Hi != nil:
		// Remaining part is (od.Hi, d.Hi].
		out.Dims[trimDim] = expr.Range{Lo: od.Hi.AddConst(1), Hi: d.Hi}
	case coversHigh && od.Lo != nil:
		out.Dims[trimDim] = expr.Range{Lo: d.Lo, Hi: od.Lo.AddConst(-1)}
	default:
		return s.Clone() // cut in the middle or unknown: keep all of s
	}
	if out.ProvablyEmpty() {
		return nil
	}
	return out
}

// SubtractMust returns an under-approximation of s \ o, used when the
// result must itself stay a MUST set (e.g. Gen minus a MAY Kill). When the
// relationship between the sections cannot be proven, the result is nil
// (empty) — the safe direction for MUST.
func (s *Section) SubtractMust(o *Section) *Section {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return s.Clone()
	}
	if s.Disjoint(o) {
		return s.Clone()
	}
	// Exact trim requires o to cover s in every dimension but one and the
	// cut to be provably at one end of the remaining dimension.
	trimDim := -1
	for i := range s.Dims {
		if !expr.RangeContains(o.Dims[i], s.Dims[i]) {
			if trimDim >= 0 {
				return nil
			}
			trimDim = i
		}
	}
	if trimDim < 0 {
		return nil // fully covered
	}
	d, od := s.Dims[trimDim], o.Dims[trimDim]
	if d.Lo == nil || d.Hi == nil {
		return nil
	}
	out := s.Clone()
	switch {
	case od.Hi != nil && (od.Lo == nil || expr.ProveLE(od.Lo, d.Lo, nil)) &&
		expr.ProveLE(d.Lo, od.Hi.AddConst(1), nil):
		// o covers the low end of s up to od.Hi (and reaches at least to
		// d.Lo-1): the remainder [od.Hi+1 : d.Hi] is inside s and outside o.
		out.Dims[trimDim] = expr.Range{Lo: od.Hi.AddConst(1), Hi: d.Hi}
	case od.Lo != nil && (od.Hi == nil || expr.ProveLE(d.Hi, od.Hi, nil)) &&
		expr.ProveLE(od.Lo.AddConst(-1), d.Hi, nil):
		out.Dims[trimDim] = expr.Range{Lo: d.Lo, Hi: od.Lo.AddConst(-1)}
	default:
		return nil
	}
	if out.ProvablyEmpty() {
		return nil
	}
	return out
}

// AggregateMay returns an over-approximation of the union of s over all
// values of the loop index v in [lo,hi]: each dimension's bounds are
// replaced by their extremes over the index range (Gross & Steenkiste
// aggregation). A dimension whose bounds cannot be bounded becomes
// unbounded.
func (s *Section) AggregateMay(v string, lo, hi *expr.Expr) *Section {
	env := expr.Env{v: expr.NewRange(lo, hi)}
	out := &Section{Array: s.Array, Dims: make([]expr.Range, len(s.Dims))}
	for i, d := range s.Dims {
		var nlo, nhi *expr.Expr
		if d.Lo != nil {
			if r, ok := expr.Bounds(d.Lo, env, nil); ok {
				nlo = r.Lo
			}
		}
		if d.Hi != nil {
			if r, ok := expr.Bounds(d.Hi, env, nil); ok {
				nhi = r.Hi
			}
		}
		out.Dims[i] = expr.Range{Lo: nlo, Hi: nhi}
	}
	return out
}

// AggregateMayEnv widens s over every variable bound in env (MAY): each
// dimension bound is replaced by its extreme over all the env ranges, or
// dropped (unbounded) when it cannot be bounded. Dimensions not mentioning
// any env variable are unchanged.
func (s *Section) AggregateMayEnv(env expr.Env) *Section {
	out := s.Clone()
	for _, v := range env.Vars() {
		r := env[v]
		for i, d := range out.Dims {
			lo, hi := d.Lo, d.Hi
			if lo != nil && lo.MentionsVar(v) {
				lo = nil
				if r.Lo != nil && r.Hi != nil {
					if b, ok := expr.Bounds(d.Lo, expr.Env{v: r}, nil); ok {
						lo = b.Lo
					}
				}
			}
			if hi != nil && hi.MentionsVar(v) {
				hi = nil
				if r.Lo != nil && r.Hi != nil {
					if b, ok := expr.Bounds(d.Hi, expr.Env{v: r}, nil); ok {
						hi = b.Hi
					}
				}
			}
			out.Dims[i] = expr.Range{Lo: lo, Hi: hi}
		}
	}
	return out
}

// AggregateMust returns an under-approximation of the union of s over v in
// [lo,hi]. The aggregation is exact — and therefore admissible as MUST —
// only when, in the single dimension that varies with v, consecutive
// iterations produce adjacent or overlapping ranges (dense coverage):
//
//	hi(v) + 1 >= lo(v+1)   for all v
//
// and the dimension bounds are affine in v. Dimensions not mentioning v
// must be identical across iterations (they are, syntactically). Returns
// nil when exactness cannot be proven; callers must then drop the Gen.
//
// The loop is assumed non-empty by the caller (lo <= hi); DO-loop Gen sets
// are only used under that premise.
func (s *Section) AggregateMust(v string, lo, hi *expr.Expr) *Section {
	varying := -1
	for i, d := range s.Dims {
		mentions := (d.Lo != nil && d.Lo.MentionsVar(v)) || (d.Hi != nil && d.Hi.MentionsVar(v))
		if mentions {
			if varying >= 0 {
				return nil // varies in two dimensions: not a dense sweep
			}
			varying = i
		}
	}
	if varying < 0 {
		return s.Clone() // invariant in v: every iteration writes the same region
	}
	d := s.Dims[varying]
	if d.Lo == nil || d.Hi == nil {
		return nil
	}
	// Affine check (also rejects v inside opaque atoms).
	if _, _, ok := d.Lo.Affine(v); !ok {
		return nil
	}
	if _, _, ok := d.Hi.Affine(v); !ok {
		return nil
	}
	vp1 := expr.Var(v).AddConst(1)
	nextLo := d.Lo.SubstVar(v, vp1)
	// Density: hi(v)+1 >= lo(v+1), i.e. lo(v+1) <= hi(v)+1.
	if !expr.ProveLE(nextLo, d.Hi.AddConst(1), nil) {
		return nil
	}
	// Non-empty per-iteration range: lo(v) <= hi(v) must hold for all v;
	// prove it symbolically (conservatively).
	if !expr.ProveLE(d.Lo, d.Hi, nil) {
		return nil
	}
	// Monotonicity direction: with density proven lo(v+1) <= hi(v)+1 and
	// per-iteration non-emptiness, the union over [lo,hi] is exactly
	// [min(lo(lo),lo(hi)) : max(hi(lo),hi(hi))]; we additionally require
	// the bounds to be monotone in v so the extremes sit at the ends.
	loAtLo := d.Lo.SubstVar(v, lo)
	loAtHi := d.Lo.SubstVar(v, hi)
	hiAtLo := d.Hi.SubstVar(v, lo)
	hiAtHi := d.Hi.SubstVar(v, hi)
	coefLo, _, _ := d.Lo.Affine(v)
	coefHi, _, _ := d.Hi.Affine(v)
	var newLo, newHi *expr.Expr
	switch {
	case coefLo >= 0 && coefHi >= 0:
		newLo, newHi = loAtLo, hiAtHi
	case coefLo <= 0 && coefHi <= 0:
		newLo, newHi = loAtHi, hiAtLo
	default:
		return nil
	}
	out := s.Clone()
	out.Dims[varying] = expr.Range{Lo: newLo, Hi: newHi}
	return out
}
