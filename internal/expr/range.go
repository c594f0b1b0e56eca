package expr

import (
	"sort"
	"strings"

	"repro/internal/lang"
)

// Sign encodes conservative sign knowledge about an atom.
type Sign int

// Sign facts, ordered so that stronger facts have higher values where
// meaningful.
const (
	Unknown Sign = iota
	GE0          // atom >= 0
	GT0          // atom >= 1 (atoms are integers)
	LE0          // atom <= 0
	LT0          // atom <= -1
)

// Assumptions maps atom names (canonical keys, see Expr.Atoms) to sign
// facts. It represents what the analysis has been able to prove about
// symbolic terms, e.g. that every element of a length array is nonnegative.
type Assumptions map[string]Sign

// With returns a copy of a extended with name:s.
func (a Assumptions) With(name string, s Sign) Assumptions {
	n := make(Assumptions, len(a)+1)
	for k, v := range a {
		n[k] = v
	}
	n[name] = s
	return n
}

// signOf returns the sign of one atom under the assumptions. A key of the
// form "name(*)" states a fact about every element of an array: it matches
// any atom "name(<subscript>)".
func (a Assumptions) signOf(atom string) Sign {
	if s, ok := a[atom]; ok {
		return s
	}
	if i := strings.IndexByte(atom, '('); i > 0 {
		if s, ok := a[atom[:i]+"(*)"]; ok {
			return s
		}
	}
	return Unknown
}

// coefSign computes the sign of coef·Πatoms^pow under the assumptions.
// The caller guarantees an integral coefficient (the provers scale first).
func coefSign(coef rat, factors []factor, a Assumptions) Sign {
	if coef.invalid() {
		return Unknown // overflowed coefficient: no usable sign
	}
	// Start from the coefficient.
	var s Sign
	switch {
	case coef.sign() > 0:
		s = GT0
	case coef.sign() < 0:
		s = LT0
	default:
		return GE0 // zero term
	}
	for _, f := range factors {
		fs := a.signOf(f.atom)
		if f.pow%2 == 0 {
			// Even power: x^2k >= 0 always; > 0 only if x != 0 which we
			// cannot express, so weaken strict to non-strict.
			switch fs {
			case GT0, LT0:
				fs = GT0
			default:
				fs = GE0
			}
		}
		s = mulSign(s, fs)
		if s == Unknown {
			return Unknown
		}
	}
	return s
}

func mulSign(x, y Sign) Sign {
	switch {
	case x == Unknown || y == Unknown:
		return Unknown
	case x == GT0 && y == GT0, x == LT0 && y == LT0:
		return GT0
	case (x == GT0 && y == LT0) || (x == LT0 && y == GT0):
		return LT0
	case (x == GE0 && (y == GE0 || y == GT0)) || (x == GT0 && y == GE0):
		return GE0
	case (x == LE0 && (y == LE0 || y == LT0)) || (x == LT0 && y == LE0):
		return GE0
	case (x == GE0 && (y == LE0 || y == LT0)) || ((x == LE0 || x == LT0) && y == GE0),
		(x == GT0 && y == LE0) || (x == LE0 && y == GT0):
		return LE0
	}
	return Unknown
}

// proveDiffGE0 conservatively proves y - x + extra >= 0 without ever
// materializing the difference. It merges the two sorted term lists twice,
// computing each difference coefficient on the fly: the first merge finds
// the common denominator, and the second scales by it coefficient-wise
// and sign-checks each term. Every rat overflow returns false, exactly
// the verdict the materialized difference reached by degrading the
// overflowed result to an opaque (Unknown-sign) atom. This is the
// allocation-free path behind all four public provers, which sit under
// every dependence and property query.
func proveDiffGE0(y, x *Expr, extra int64, a Assumptions) bool {
	k := y.konst.sub(x.konst).add(ratInt(extra))
	if k.invalid() {
		return false
	}
	// den is the common denominator over the constant and every nonzero
	// difference coefficient; 0 means lcm overflow (cannot scale, cannot
	// prove).
	den := int64(1)
	if !k.isInt() {
		den = lcm64(den, k.d)
	}
	// A negative constant must be covered by strictly positive terms: GT0
	// means >= 1 for integer atoms, so a GT0 term with coefficient c
	// contributes at least |c|; with a nonnegative constant every term
	// must be GE0/GT0. Scaling by den > 0 keeps the constant's sign.
	needBudget := k.n < 0
	var budget int64
	for pass := 0; pass < 2; pass++ {
		ok := mergeTerms(y.terms, x.terms, func(yt, xt *term) bool {
			var c rat
			var fs []factor
			switch {
			case xt == nil:
				c, fs = yt.coef, yt.factors
			case yt == nil:
				c, fs = xt.coef.neg(), xt.factors
			default:
				c, fs = yt.coef.sub(xt.coef), yt.factors
			}
			switch {
			case c.isZero():
				return true // cancelled term: absent from the difference
			case pass == 1:
				return diffTermOK(c, fs, den, needBudget, &budget, a)
			case c.invalid():
				return false
			case !c.isInt():
				den = lcm64(den, c.d)
			}
			return den != 0
		})
		if !ok {
			return false
		}
		if pass == 0 {
			if k = k.mul(ratInt(den)); k.invalid() {
				return false
			}
			budget = k.n
		}
	}
	return !needBudget || budget >= 0
}

// diffTermOK sign-checks one nonzero difference term for proveDiffGE0,
// scaling the coefficient by den first. In the budget regime a GT0 term
// pays |coef| toward the negative constant and GE0 is free; otherwise the
// term itself must be provably nonnegative.
func diffTermOK(c rat, factors []factor, den int64, needBudget bool, budget *int64, a Assumptions) bool {
	if den != 1 {
		c = c.mul(ratInt(den))
	}
	s := coefSign(c, factors, a)
	if !needBudget {
		return s == GE0 || s == GT0
	}
	switch s {
	case GT0:
		n := c.n
		if n < 0 {
			n = -n
		}
		*budget += n
	case GE0:
		// contributes >= 0
	default:
		return false
	}
	return true
}

// ProveGE0 conservatively proves e >= 0 under the assumptions: true means
// provably nonnegative; false means "could not prove", not "negative".
// Rational coefficients are cleared by scaling with the (positive) common
// denominator, which preserves the sign.
func ProveGE0(e *Expr, a Assumptions) bool { return proveDiffGE0(e, Zero, 0, a) }

// ProveGT0 conservatively proves e >= 1.
func ProveGT0(e *Expr, a Assumptions) bool { return proveDiffGE0(e, Zero, -1, a) }

// ProveLE conservatively proves x <= y.
func ProveLE(x, y *Expr, a Assumptions) bool { return proveDiffGE0(y, x, 0, a) }

// ProveLT conservatively proves x < y (x <= y-1 over the integers).
func ProveLT(x, y *Expr, a Assumptions) bool { return proveDiffGE0(y, x, -1, a) }

// ProvableMin returns whichever of x and y is provably no larger, or nil
// when neither order can be proven. A nil operand means "no bound yet", so
// the other operand is returned.
func ProvableMin(x, y *Expr, a Assumptions) *Expr {
	switch {
	case x == nil:
		return y
	case y == nil:
		return x
	case ProveLE(x, y, a):
		return x
	case ProveLE(y, x, a):
		return y
	default:
		return nil
	}
}

// ProvableMax returns whichever of x and y is provably no smaller, or nil
// when neither order can be proven. A nil operand means "no bound yet", so
// the other operand is returned.
func ProvableMax(x, y *Expr, a Assumptions) *Expr {
	switch {
	case x == nil:
		return y
	case y == nil:
		return x
	case ProveLE(x, y, a):
		return y
	case ProveLE(y, x, a):
		return x
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// Symbolic ranges

// Range is a closed symbolic interval [Lo, Hi]. Either bound may be nil,
// meaning unbounded in that direction.
type Range struct {
	Lo, Hi *Expr
}

// NewRange builds a range from two expressions.
func NewRange(lo, hi *Expr) Range { return Range{Lo: lo, Hi: hi} }

// ConstRange builds [lo, hi] with constant bounds.
func ConstRange(lo, hi int64) Range { return Range{Lo: Const(lo), Hi: Const(hi)} }

// Point builds the degenerate range [e, e].
func Point(e *Expr) Range { return Range{Lo: e, Hi: e} }

func (r Range) String() string {
	lo, hi := "-inf", "+inf"
	if r.Lo != nil {
		lo = r.Lo.String()
	}
	if r.Hi != nil {
		hi = r.Hi.String()
	}
	return "[" + lo + ":" + hi + "]"
}

// Env maps variable names (typically loop indices) to their value ranges.
type Env map[string]Range

// With returns a copy of env extended with name:r.
func (env Env) With(name string, r Range) Env {
	n := make(Env, len(env)+1)
	for k, v := range env {
		n[k] = v
	}
	n[name] = r
	return n
}

// Vars returns the sorted variable names bound in the environment.
func (env Env) Vars() []string {
	vs := make([]string, 0, len(env))
	for v := range env {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

// Bounds computes a symbolic range for e under env and assumptions: each
// environment variable is replaced by its lower or upper bound according to
// the sign of its coefficient. ok is false when e uses an environment
// variable in a position the method cannot bound (non-linear occurrence,
// occurrence inside an opaque atom, or a product with another environment
// variable of unknown sign).
//
// This is the bound-substitution step of Banerjee's test, extended to
// symbolic bounds as in the range test (Blume & Eigenmann), which the
// offset–length test builds on (paper §3.2.7).
func Bounds(e *Expr, env Env, a Assumptions) (Range, bool) {
	lo, hi := e, e
	// Eliminate innermost variables first: if u's range mentions v (u is
	// nested inside v's loop), u must be eliminated before v, otherwise
	// substituting v's bounds loses the u–v correlation and the interval
	// widens needlessly (Banerjee's test substitutes innermost-first).
	order := eliminationOrder(env)
	// Eliminating one variable can still introduce another, so iterate to
	// a fixed point; a cyclic environment is caught by the final
	// MentionsVar check.
	for pass := 0; pass <= len(env); pass++ {
		changed := false
		for _, v := range order {
			r := env[v]
			if lo.HasAtom(v) {
				coef, rest, ok := lo.Affine(v)
				if !ok {
					return Range{}, false
				}
				lo = substBound(coef, rest, r, false)
				if lo == nil {
					return Range{}, false
				}
				changed = true
			}
			if hi.HasAtom(v) {
				coef, rest, ok := hi.Affine(v)
				if !ok {
					return Range{}, false
				}
				hi = substBound(coef, rest, r, true)
				if hi == nil {
					return Range{}, false
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Any remaining env vars (hidden inside atoms, or a cyclic
	// environment) make the bound invalid.
	for v := range env {
		if lo.MentionsVar(v) || hi.MentionsVar(v) {
			return Range{}, false
		}
	}
	return Range{Lo: lo, Hi: hi}, true
}

// DoRange returns the range of values a DO loop's index takes: [lo:hi],
// or [hi:lo] under a constant negative step. dense reports a step of 1 or
// -1, with which the index takes every value in between. ok is false, and
// lo and hi are nil, when the step is not a nonzero constant: an unknown
// step gives no usable range, and a zero step faults before the first
// iteration.
func DoRange(d *lang.DoStmt) (lo, hi *Expr, dense, ok bool) {
	lo, hi = FromAST(d.Lo), FromAST(d.Hi)
	if d.Step == nil {
		return lo, hi, true, true
	}
	c, isConst := FromAST(d.Step).IsConst()
	switch {
	case !isConst || c == 0:
		return nil, nil, false, false
	case c < 0:
		lo, hi = hi, lo
	}
	return lo, hi, c == 1 || c == -1, true
}

// IndexHull returns the hull of every subscript with which the index
// array ia occurs as an atom of es[k], bounded over envs[k]. It visits the
// atoms in canonical term order and gives up at the first subscript it
// cannot bound, or whose bounds it cannot order against the hull so far:
// skipping that atom would let the next one's bound stand in for the lost
// one. ok is false then, and when ia is an atom of none of es.
func IndexHull(ia string, es []*Expr, envs []Env, a Assumptions) (Range, bool) {
	var lo, hi *Expr
	for k, e := range es {
		for _, at := range e.ArrayAtoms(ia) {
			r, ok := Bounds(at.Sub, envs[k], a)
			if !ok || r.Lo == nil || r.Hi == nil {
				return Range{}, false
			}
			if lo, hi = ProvableMin(lo, r.Lo, a), ProvableMax(hi, r.Hi, a); lo == nil || hi == nil {
				return Range{}, false
			}
		}
	}
	return Range{Lo: lo, Hi: hi}, lo != nil
}

// eliminationOrder sorts the environment variables innermost-first: a
// variable whose range mentions another pending variable is nested inside
// it and must be eliminated earlier. Ties and cycles fall back to name
// order (cycles are then caught by the caller's residual-mention check).
func eliminationOrder(env Env) []string {
	pending := env.Vars()
	order := make([]string, 0, len(pending))
	for len(pending) > 0 {
		picked := -1
		for i, v := range pending {
			mentionedByOther := false
			for _, u := range pending {
				if u == v {
					continue
				}
				r := env[u]
				if (r.Lo != nil && r.Lo.MentionsVar(v)) || (r.Hi != nil && r.Hi.MentionsVar(v)) {
					mentionedByOther = true
					break
				}
			}
			if !mentionedByOther {
				picked = i
				break
			}
		}
		if picked < 0 {
			picked = 0 // cycle: arbitrary but deterministic
		}
		// The picked variable is mentioned by no other pending range, so
		// it is innermost: an inner index appears in no other variable's
		// bounds, while its own bounds mention the outer indices.
		order = append(order, pending[picked])
		pending = append(pending[:picked], pending[picked+1:]...)
	}
	return order
}

// substBound replaces coef·v (+ rest) by coef·bound + rest choosing the
// bound that maximises (wantHi) or minimises the value.
func substBound(coef int64, rest *Expr, r Range, wantHi bool) *Expr {
	if coef == 0 {
		return rest
	}
	var b *Expr
	if (coef > 0) == wantHi {
		b = r.Hi
	} else {
		b = r.Lo
	}
	if b == nil {
		return nil
	}
	return rest.Add(b.MulConst(coef))
}

// DisjointRanges conservatively proves that ranges r1 and r2 do not
// intersect: r1.Hi < r2.Lo or r2.Hi < r1.Lo.
func DisjointRanges(r1, r2 Range) bool {
	if r1.Hi != nil && r2.Lo != nil && ProveLT(r1.Hi, r2.Lo, nil) {
		return true
	}
	if r2.Hi != nil && r1.Lo != nil && ProveLT(r2.Hi, r1.Lo, nil) {
		return true
	}
	return false
}

// RangeContains conservatively proves outer ⊇ inner.
func RangeContains(outer, inner Range) bool {
	loOK := outer.Lo == nil || (inner.Lo != nil && ProveLE(outer.Lo, inner.Lo, nil))
	hiOK := outer.Hi == nil || (inner.Hi != nil && ProveLE(inner.Hi, outer.Hi, nil))
	return loOK && hiOK
}
