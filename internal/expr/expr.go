// Package expr implements the symbolic integer expression algebra used by
// the array analyses: canonical sum-of-products form, simplification,
// substitution, symbolic range computation and conservative sign proofs.
//
// Expressions are canonicalised into
//
//	c0 + Σ coef_t · Π atom^pow
//
// where atoms are opaque symbolic factors: scalar variables, array elements
// such as offset(i+1), or whole subexpressions the algebra cannot see
// through (integer division, intrinsic calls, real-typed values). Two
// expressions are equal iff their canonical forms are identical, which gives
// the algebra the decision power needed by the range test and the
// offset–length test of Lin & Padua (PLDI 2000, §3.2.7).
package expr

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/lang"
)

// factor is one atom raised to a positive power. ast is the atom's
// representative AST, from which expressions are rebuilt and substituted
// into.
type factor struct {
	atom string
	pow  int
	ast  lang.Expr
}

// term is coef · Π factors, with factors sorted by atom name. key is the
// factors' canonical rendering, computed once when the term is built.
type term struct {
	key     string
	coef    rat
	factors []factor
}

func factorsKey(fs []factor) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		if f.pow == 1 {
			parts[i] = f.atom
		} else {
			parts[i] = fmt.Sprintf("%s^%d", f.atom, f.pow)
		}
	}
	return strings.Join(parts, "*")
}

// Expr is a symbolic integer expression in canonical form: a constant plus
// terms sorted by key, none with a zero coefficient. Values come only from
// Const, Var, FromAST and the operations below. Exprs are immutable: no
// slice is written after construction, so results share the term and
// factor slices they leave unchanged.
type Expr struct {
	konst rat
	terms []term
}

// Zero is the constant 0.
var Zero = Const(0)

// One is the constant 1.
var One = Const(1)

// Const returns the constant expression c.
func Const(c int64) *Expr { return &Expr{konst: ratInt(c)} }

// constRat returns a constant expression with a rational value.
func constRat(r rat) *Expr { return &Expr{konst: r} }

// Var returns the expression for the scalar variable name.
func Var(name string) *Expr { return atomExpr(name, &lang.Ident{Name: name}) }

// atomExpr returns an expression that is a single opaque atom.
func atomExpr(key string, ast lang.Expr) *Expr {
	return &Expr{konst: ratInt(0), terms: []term{{key, ratInt(1), []factor{{key, 1, ast}}}}}
}

// IsConst reports whether e is a constant integer, and returns it.
// (Rational constants, which can only arise transiently, report false.)
func (e *Expr) IsConst() (int64, bool) {
	if len(e.terms) == 0 && e.konst.isInt() {
		return e.konst.n, true
	}
	return 0, false
}

// IsZero reports whether e is the constant 0.
func (e *Expr) IsZero() bool { return len(e.terms) == 0 && e.konst.isZero() }

// IsVar reports whether e is exactly one scalar variable (coefficient 1),
// returning its name.
func (e *Expr) IsVar() (string, bool) {
	if !e.konst.isZero() || len(e.terms) != 1 {
		return "", false
	}
	t := e.terms[0]
	if t.coef == ratInt(1) && len(t.factors) == 1 && t.factors[0].pow == 1 {
		if _, ok := t.factors[0].ast.(*lang.Ident); ok {
			return t.key, true
		}
	}
	return "", false
}

// Atoms returns the sorted atom names appearing in e.
func (e *Expr) Atoms() []string {
	var names []string
	for _, t := range e.terms {
		for _, f := range t.factors {
			names = append(names, f.atom)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// HasAtom reports whether the atom named a occurs in e (as a factor; atoms
// hidden inside other atoms' ASTs are found by MentionsVar instead).
func (e *Expr) HasAtom(a string) bool {
	for _, t := range e.terms {
		for _, f := range t.factors {
			if f.atom == a {
				return true
			}
		}
	}
	return false
}

// Reads reports whether e reads a name for which f holds, and stops at the
// first. It calls f with every scalar variable e reads, array false, and
// with every array one of its elements belongs to, array true, inside
// subscripts and intrinsic arguments too; an intrinsic call is no array.
// It walks the atoms' ASTs in term order, once per occurrence, and
// allocates nothing.
func (e *Expr) Reads(f func(name string, array bool) bool) bool {
	for _, t := range e.terms {
		for _, fc := range t.factors {
			if reads(fc.ast, f) {
				return true
			}
		}
	}
	return false
}

// reads is Reads over one AST.
func reads(x lang.Expr, f func(name string, array bool) bool) bool {
	switch x := x.(type) {
	case *lang.Ident:
		return f(x.Name, false)
	case *lang.ArrayRef:
		if !x.Intrinsic && f(x.Name, true) {
			return true
		}
		for _, a := range x.Args {
			if reads(a, f) {
				return true
			}
		}
	case *lang.Unary:
		return reads(x.X, f)
	case *lang.Binary:
		return reads(x.X, f) || reads(x.Y, f)
	}
	return false
}

// MentionsVar reports whether the scalar variable name occurs anywhere in e,
// including inside opaque atoms such as array subscripts.
func (e *Expr) MentionsVar(name string) bool {
	return e.Reads(func(n string, array bool) bool { return !array && n == name })
}

// astMentions is MentionsVar over one AST.
func astMentions(ast lang.Expr, name string) bool {
	return reads(ast, func(n string, array bool) bool { return !array && n == name })
}

// ArrayAtomNames lists, sorted, the distinct names of the arrays whose
// elements appear in e (intrinsic calls excluded).
func ArrayAtomNames(e *Expr) []string {
	var out []string
	e.Reads(func(name string, array bool) bool {
		if array && !slices.Contains(out, name) {
			out = append(out, name)
		}
		return false
	})
	sort.Strings(out)
	return out
}

// mergeTerms walks two sorted term lists in one merge, calling f with the
// terms of each key (nil for a list without it) until f returns false.
func mergeTerms(a, b []term, f func(x, y *term) bool) bool {
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var x, y *term
		if i < len(a) && (j == len(b) || a[i].key <= b[j].key) {
			x = &a[i]
		}
		if j < len(b) && (i == len(a) || b[j].key <= a[i].key) {
			y = &b[j]
		}
		if x != nil {
			i++
		}
		if y != nil {
			j++
		}
		if !f(x, y) {
			return false
		}
	}
	return true
}

// withoutAt returns ts without its i-th term, sharing ts when the term is
// at either end.
func withoutAt(ts []term, i int) []term {
	if i == 0 {
		return ts[1:]
	}
	return append(ts[:i:i], ts[i+1:]...)
}

// scaled returns a copy of ts with every coefficient mapped through f.
func scaled(ts []term, f func(rat) rat) []term {
	out := make([]term, len(ts))
	for i, t := range ts {
		t.coef = f(t.coef)
		out[i] = t
	}
	return out
}

// hasOverflow reports whether any coefficient of e overflowed int64
// during the operation that produced it.
func (e *Expr) hasOverflow() bool {
	if e.konst.invalid() {
		return true
	}
	for _, t := range e.terms {
		if t.coef.invalid() {
			return true
		}
	}
	return false
}

// degrade replaces an arithmetic result whose coefficients overflowed
// int64 with a single opaque atom standing for the whole value: the value
// is well-defined, merely unrepresentable, so it is treated like any other
// construct the algebra cannot see through (a sound "unknown"). The atom
// key is built from the operands' canonical keys, so identical operations
// on identical values degrade to identical atoms and equality stays exact.
func degrade(op lang.Op, sym string, x, y *Expr) *Expr {
	key := "{ovf:(" + x.String() + ")" + sym + "(" + y.String() + ")}"
	return atomExpr(key, &lang.Binary{Op: op, X: x.ToAST(), Y: y.ToAST()})
}

// Add returns e + o.
func (e *Expr) Add(o *Expr) *Expr {
	if r := e.addSigned(o, false); r != nil {
		return r
	}
	return degrade(lang.OpAdd, "+", e, o)
}

// AddConst returns e + c.
func (e *Expr) AddConst(c int64) *Expr {
	r := &Expr{konst: e.konst.add(ratInt(c)), terms: e.terms}
	if r.konst.invalid() {
		return degrade(lang.OpAdd, "+", e, Const(c))
	}
	return r
}

// Neg returns -e.
func (e *Expr) Neg() *Expr { return e.MulConst(-1) }

// Sub returns e - o. An overflowing difference degrades exactly as
// e.Add(o.Neg()) does.
func (e *Expr) Sub(o *Expr) *Expr {
	if r := e.addSigned(o, true); r != nil {
		return r
	}
	return e.Add(o.Neg())
}

// addSigned returns e + o, or e - o when neg, from one merge of the two
// term lists, or nil when a coefficient overflows. When one side has no
// terms the result shares the other's.
func (e *Expr) addSigned(o *Expr, neg bool) *Expr {
	sign := func(c rat) rat {
		if neg {
			return c.neg()
		}
		return c
	}
	r := &Expr{konst: e.konst.add(sign(o.konst)), terms: e.terms}
	switch {
	case len(e.terms) == 0 && !neg:
		r.terms = o.terms
	case len(o.terms) > 0:
		r.terms = make([]term, 0, len(e.terms)+len(o.terms))
		mergeTerms(e.terms, o.terms, func(x, y *term) bool {
			switch {
			case y == nil:
				r.terms = append(r.terms, *x)
			case x == nil:
				r.terms = append(r.terms, term{y.key, sign(y.coef), y.factors})
			default:
				if c := x.coef.add(sign(y.coef)); !c.isZero() {
					r.terms = append(r.terms, term{x.key, c, x.factors})
				}
			}
			return true
		})
	}
	if r.hasOverflow() {
		return nil
	}
	return r
}

// MulConst returns c·e.
func (e *Expr) MulConst(c int64) *Expr { return e.mulRat(ratInt(c)) }

func (e *Expr) mulRat(c rat) *Expr {
	if c.isZero() {
		return Zero
	}
	r := &Expr{konst: e.konst.mul(c), terms: scaled(e.terms, func(x rat) rat { return x.mul(c) })}
	if r.hasOverflow() {
		return degrade(lang.OpMul, "*", e, constRat(c))
	}
	return r
}

// mulFactors merges two sorted factor lists, adding the powers of shared
// atoms.
func mulFactors(a, b []factor) []factor {
	out := make([]factor, 0, len(a)+len(b))
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || i < len(a) && a[i].atom < b[j].atom:
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].atom < a[i].atom:
			out = append(out, b[j])
			j++
		default:
			f := a[i]
			f.pow += b[j].pow
			out = append(out, f)
			i, j = i+1, j+1
		}
	}
	return out
}

// Mul returns e · o, expanding products of sums.
func (e *Expr) Mul(o *Expr) *Expr {
	if c, ok := o.IsConst(); ok {
		return e.MulConst(c)
	}
	if c, ok := e.IsConst(); ok {
		return o.MulConst(c)
	}
	ts := make([]term, 0, (len(e.terms)+1)*(len(o.terms)+1))
	for _, t := range e.terms {
		if !o.konst.isZero() {
			ts = append(ts, term{t.key, t.coef.mul(o.konst), t.factors})
		}
		for _, u := range o.terms {
			fs := mulFactors(t.factors, u.factors)
			ts = append(ts, term{factorsKey(fs), t.coef.mul(u.coef), fs})
		}
	}
	if !e.konst.isZero() {
		for _, u := range o.terms {
			ts = append(ts, term{u.key, e.konst.mul(u.coef), u.factors})
		}
	}
	// Sort the products once, stably so that each key keeps its first
	// product's factors, and sum the coefficients of equal keys.
	slices.SortStableFunc(ts, func(x, y term) int { return strings.Compare(x.key, y.key) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].key == t.key {
			out[n-1].coef = out[n-1].coef.add(t.coef)
		} else {
			out = append(out, t)
		}
	}
	r := &Expr{konst: e.konst.mul(o.konst), terms: slices.DeleteFunc(out, func(t term) bool { return t.coef.isZero() })}
	if r.hasOverflow() {
		return degrade(lang.OpMul, "*", e, o)
	}
	return r
}

// Equal reports whether e and o have identical canonical forms: the same
// pointer, or else both term lists walked in order, allocating nothing.
func (e *Expr) Equal(o *Expr) bool {
	return e == o || e.konst == o.konst && sameTerms(e.terms, o.terms)
}

// sameTerms reports whether two canonical term lists have the same keys
// and coefficients. Coefficients are normalized rats, so struct equality
// decides identity exactly.
func sameTerms(a, b []term) bool {
	return slices.EqualFunc(a, b, func(x, y term) bool { return x.key == y.key && x.coef == y.coef })
}

// DiffConst reports whether e - o is a constant, and returns it. Since
// terms never carry zero coefficients, the difference is constant exactly
// when the term lists agree, so no subtraction needs to be materialized.
func (e *Expr) DiffConst(o *Expr) (int64, bool) {
	if !sameTerms(e.terms, o.terms) {
		return 0, false
	}
	d := e.konst.sub(o.konst)
	if !d.isInt() {
		return 0, false
	}
	return d.n, true
}

// String returns the canonical rendering of e. Identical expressions have
// identical strings, so String doubles as a canonical key.
func (e *Expr) String() string {
	if len(e.terms) == 0 {
		return e.konst.String()
	}
	var sb strings.Builder
	for i, t := range e.terms {
		c := t.coef
		switch {
		case c.sign() < 0 && i == 0:
			sb.WriteByte('-')
		case c.sign() < 0:
			sb.WriteString(" - ")
		case i > 0:
			sb.WriteString(" + ")
		}
		if c.sign() < 0 {
			c = c.neg()
		}
		if c != ratInt(1) {
			fmt.Fprintf(&sb, "%s*", c)
		}
		sb.WriteString(t.key)
	}
	if e.konst.sign() > 0 {
		fmt.Fprintf(&sb, " + %s", e.konst)
	} else if e.konst.sign() < 0 {
		fmt.Fprintf(&sb, " - %s", e.konst.neg())
	}
	return sb.String()
}

// find returns the index of the term with key k, if there is one.
func (e *Expr) find(k string) (int, bool) {
	return slices.BinarySearchFunc(e.terms, k, func(t term, k string) int { return strings.Compare(t.key, k) })
}

// CoefOf returns the integer coefficient of the plain degree-1 term in the
// variable or atom named a, e.g. CoefOf("i") of 3*i + 2*i*j + 1 is 3.
// Non-integral coefficients report 0.
func (e *Expr) CoefOf(a string) int64 {
	if i, ok := e.find(a); ok && e.terms[i].coef.isInt() {
		return e.terms[i].coef.n
	}
	return 0
}

// WithoutTerm returns e with the plain degree-1 term in atom a removed.
func (e *Expr) WithoutTerm(a string) *Expr {
	if i, ok := e.find(a); ok {
		return &Expr{konst: e.konst, terms: withoutAt(e.terms, i)}
	}
	return e
}

// Affine decomposes e as coef·v + rest where rest does not contain v at all
// (not even inside opaque atoms). ok is false if v occurs non-linearly or
// inside an opaque atom. When v is absent, rest is e itself.
func (e *Expr) Affine(v string) (coef int64, rest *Expr, ok bool) {
	at := -1
	for i, t := range e.terms {
		for _, f := range t.factors {
			if f.atom == v {
				if f.pow != 1 || len(t.factors) != 1 {
					return 0, nil, false
				}
				at = i
			} else if astMentions(f.ast, v) {
				return 0, nil, false
			}
		}
	}
	if at < 0 {
		return 0, e, true
	}
	if c := e.terms[at].coef; c.isInt() {
		return c.n, &Expr{konst: e.konst, terms: withoutAt(e.terms, at)}, true
	}
	return 0, nil, false
}

// ---------------------------------------------------------------------------
// Conversion from and to the AST

// FromAST converts an AST expression to canonical symbolic form. Non-integer
// or non-polynomial constructs (real literals, division, intrinsics, logical
// operators) become opaque atoms, so the result is always well-defined.
func FromAST(e lang.Expr) *Expr {
	switch e := e.(type) {
	case *lang.IntLit:
		return Const(e.Value)
	case *lang.Ident:
		return Var(e.Name)
	case *lang.ArrayRef:
		return refAtom(e)
	case *lang.Unary:
		if e.Op == lang.OpNeg {
			return FromAST(e.X).Neg()
		}
	case *lang.Binary:
		switch e.Op {
		case lang.OpAdd:
			return FromAST(e.X).Add(FromAST(e.Y))
		case lang.OpSub:
			return FromAST(e.X).Sub(FromAST(e.Y))
		case lang.OpMul:
			return FromAST(e.X).Mul(FromAST(e.Y))
		case lang.OpDiv:
			x, y := FromAST(e.X), FromAST(e.Y)
			if c, ok := y.IsConst(); ok && c != 0 {
				if xc, ok2 := x.IsConst(); ok2 {
					return Const(xc / c)
				}
				// Division is kept exact (rational coefficients) only
				// when the value is provably divisible — coefficient-wise
				// or via the parity argument for /2 (x² ≡ x mod 2).
				if r, ok2 := x.divExact(c); ok2 {
					return r
				}
			}
			key := fmt.Sprintf("(%s / %s)", x, y)
			return atomExpr(key, &lang.Binary{Op: lang.OpDiv, X: x.ToAST(), Y: y.ToAST()})
		case lang.OpPow:
			x, y := FromAST(e.X), FromAST(e.Y)
			if c, ok := y.IsConst(); ok && c >= 0 && c <= 4 {
				r := One
				for i := int64(0); i < c; i++ {
					r = r.Mul(x)
				}
				return r
			}
		}
	}
	// Opaque fallback: the canonical key is the printed AST.
	return atomExpr("{"+lang.FormatExpr(e)+"}", e)
}

// divExact divides e by the integer c when the *value* of e is provably a
// multiple of c: either every coefficient is divisible, or, for c = 2, the
// parity argument applies (x^k ≡ x (mod 2) for every integer x and k ≥ 1,
// so the odd-coefficient monomials must cancel modulo 2 after squarefree
// reduction — this is what proves i*(i-1)/2 exact). The result may have
// rational coefficients; ToAST re-emits it as one whole-expression
// division, preserving truncating semantics.
func (e *Expr) divExact(c int64) (*Expr, bool) {
	if c < 0 {
		r, ok := e.divExact(-c)
		if !ok {
			return nil, false
		}
		return r.Neg(), true
	}
	coeffwise := e.konst.isInt() && e.konst.n%c == 0
	if coeffwise {
		for _, t := range e.terms {
			if !t.coef.isInt() || t.coef.n%c != 0 {
				coeffwise = false
				break
			}
		}
	}
	if !coeffwise && !(c == 2 && e.evenByParity()) {
		return nil, false
	}
	return &Expr{konst: e.konst.divInt(c), terms: scaled(e.terms, func(x rat) rat { return x.divInt(c) })}, true
}

// evenByParity proves that e is even for every integer assignment of its
// atoms: the constant is even, and for each squarefree-reduced monomial the
// odd coefficients cancel modulo 2 (using x^k ≡ x mod 2).
func (e *Expr) evenByParity() bool {
	if !e.konst.isInt() || e.konst.n%2 != 0 {
		return false
	}
	oddSum := map[string]int64{}
	for _, t := range e.terms {
		if !t.coef.isInt() {
			return false
		}
		if t.coef.n%2 == 0 {
			continue
		}
		// Squarefree reduction of the factors, which are sorted and
		// distinct.
		names := make([]string, len(t.factors))
		for i, f := range t.factors {
			names[i] = f.atom
		}
		key := strings.Join(names, "*")
		oddSum[key] += t.coef.n
	}
	for _, v := range oddSum {
		if v%2 != 0 {
			return false
		}
	}
	return true
}

// RefKey returns the canonical atom name of an array element or intrinsic
// call: the name applied to the canonical form of each argument.
func RefKey(e *lang.ArrayRef) string { return refAtom(e).terms[0].key }

// refAtom converts an array element or intrinsic call to one opaque atom
// whose AST applies the name to each argument's canonical form. Each
// argument is converted once, for the key and the AST both, so nested
// subscripts are not converted once per level and key.
func refAtom(e *lang.ArrayRef) *Expr {
	parts := make([]string, len(e.Args))
	c := &lang.ArrayRef{NamePos: e.NamePos, Name: e.Name, Intrinsic: e.Intrinsic, Args: make([]lang.Expr, len(e.Args))}
	for i, a := range e.Args {
		x := FromAST(a)
		parts[i] = x.String()
		c.Args[i] = x.ToAST()
	}
	return atomExpr(fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ",")), c)
}

// toASTInt rebuilds an AST from a canonical form with integral
// coefficients.
func (e *Expr) toASTInt() lang.Expr {
	var out lang.Expr
	add := func(x lang.Expr, negative bool) {
		if out == nil {
			if negative {
				out = &lang.Unary{Op: lang.OpNeg, X: x}
			} else {
				out = x
			}
			return
		}
		op := lang.OpAdd
		if negative {
			op = lang.OpSub
		}
		out = &lang.Binary{Op: op, X: out, Y: x}
	}

	for _, t := range e.terms {
		var prod lang.Expr
		for _, f := range t.factors {
			for p := 0; p < f.pow; p++ {
				fc := lang.CloneExpr(f.ast)
				if prod == nil {
					prod = fc
				} else {
					prod = &lang.Binary{Op: lang.OpMul, X: prod, Y: fc}
				}
			}
		}
		c := t.coef
		neg := c.sign() < 0
		if neg {
			c = c.neg()
		}
		if c != ratInt(1) {
			prod = &lang.Binary{Op: lang.OpMul, X: &lang.IntLit{Value: c.n}, Y: prod}
		}
		add(prod, neg)
	}
	if !e.konst.isZero() || out == nil {
		c := e.konst
		neg := c.sign() < 0
		if neg {
			c = c.neg()
		}
		add(&lang.IntLit{Value: c.n}, neg)
	}
	return out
}

// ToAST rebuilds an AST expression from the canonical form. Rational
// coefficients are re-emitted as one whole-expression division (the
// rational form only ever arises from a proven-exact division, so the
// truncating division in the AST computes the same value).
func (e *Expr) ToAST() lang.Expr {
	den := int64(1)
	if !e.konst.isInt() {
		den = lcm64(den, e.konst.d)
	}
	for _, t := range e.terms {
		if !t.coef.isInt() {
			den = lcm64(den, t.coef.d)
		}
	}
	if den == 1 {
		return e.toASTInt()
	}
	if den == 0 {
		// Unreachable: rational coefficients only arise from divExact,
		// whose denominators are powers of two, so their lcm is their
		// maximum and cannot overflow.
		panic("expr: denominator lcm overflow")
	}
	scaled := e.MulConst(den)
	return &lang.Binary{Op: lang.OpDiv, X: scaled.toASTInt(), Y: &lang.IntLit{Value: den}}
}

// SubstAtom returns e with every factor equal to the atom key replaced by
// repl. Unlike SubstVar it does not look inside other atoms' ASTs: atom
// keys are canonical, so the caller matches them exactly.
func (e *Expr) SubstAtom(key string, repl *Expr) *Expr {
	if !e.HasAtom(key) {
		return e
	}
	r := constRat(e.konst)
	for _, t := range e.terms {
		tv := constRat(t.coef)
		for _, f := range t.factors {
			var base *Expr
			if f.atom == key {
				base = repl
			} else {
				base = atomExpr(f.atom, f.ast)
			}
			for p := 0; p < f.pow; p++ {
				tv = tv.Mul(base)
			}
		}
		r = r.Add(tv)
	}
	return r
}

// ArrayAtom is an element of a one-dimensional array that occurs as an
// atom of an expression: the atom's key and its canonical subscript.
type ArrayAtom struct {
	Key string
	Sub *Expr
}

// ArrayAtoms returns the distinct atoms of e that are elements of the
// named one-dimensional array, in canonical term order: by term key, then
// by atom within a term. Elements nested inside another atom are not
// atoms of e.
func (e *Expr) ArrayAtoms(array string) []ArrayAtom {
	var out []ArrayAtom
	for _, t := range e.terms {
		for _, f := range t.factors {
			ref, ok := f.ast.(*lang.ArrayRef)
			if !ok || ref.Name != array || len(ref.Args) != 1 ||
				slices.ContainsFunc(out, func(a ArrayAtom) bool { return a.Key == f.atom }) {
				continue
			}
			out = append(out, ArrayAtom{Key: f.atom, Sub: FromAST(ref.Args[0])})
		}
	}
	return out
}

// SubstVar returns e with every occurrence of the scalar variable name
// replaced by repl — including occurrences buried inside opaque atoms (array
// subscripts), which are rewritten at the AST level and re-canonicalised.
func (e *Expr) SubstVar(name string, repl *Expr) *Expr {
	if !e.MentionsVar(name) {
		return e
	}
	replAST := repl.ToAST()
	r := constRat(e.konst)
	for _, t := range e.terms {
		tv := constRat(t.coef)
		for _, f := range t.factors {
			var base *Expr
			if f.atom == name {
				base = repl
			} else if astMentions(f.ast, name) {
				nast := lang.MapExpr(lang.CloneExpr(f.ast), func(x lang.Expr) lang.Expr {
					if id, ok := x.(*lang.Ident); ok && id.Name == name {
						return lang.CloneExpr(replAST)
					}
					return x
				})
				base = FromAST(nast)
			} else {
				base = atomExpr(f.atom, f.ast)
			}
			for p := 0; p < f.pow; p++ {
				tv = tv.Mul(base)
			}
		}
		r = r.Add(tv)
	}
	return r
}
