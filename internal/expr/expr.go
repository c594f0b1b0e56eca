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
	"sort"
	"strings"

	"repro/internal/lang"
)

// factor is one atom raised to a positive power.
type factor struct {
	atom string
	pow  int
}

// term is coef · Π factors, with factors sorted by atom name.
type term struct {
	coef    rat
	factors []factor
}

func (t *term) key() string {
	parts := make([]string, len(t.factors))
	for i, f := range t.factors {
		if f.pow == 1 {
			parts[i] = f.atom
		} else {
			parts[i] = fmt.Sprintf("%s^%d", f.atom, f.pow)
		}
	}
	return strings.Join(parts, "*")
}

// Expr is a symbolic integer expression in canonical form. The zero value
// is the constant 0. Exprs are immutable: all operations return new values.
type Expr struct {
	konst rat
	terms map[string]*term
	// atoms maps atom names to a representative AST so expressions can be
	// rebuilt and substituted into.
	atoms map[string]lang.Expr
	// ckey caches the canonical rendering (String). It is written by the
	// package init for the shared constants and by Interner.Intern —
	// never lazily inside String, which would race when batch
	// compilations share Zero/One across goroutines. clone deliberately
	// does not copy it: a clone exists to be mutated.
	ckey string
}

// Zero is the constant 0.
var Zero = Const(0)

// One is the constant 1.
var One = Const(1)

func init() {
	// The shared constants cross compilation (and goroutine) boundaries;
	// their keys must be set before any concurrent use.
	Zero.ckey = Zero.render()
	One.ckey = One.render()
}

// Const returns the constant expression c.
func Const(c int64) *Expr { return &Expr{konst: ratInt(c)} }

// constRat returns a constant expression with a rational value.
func constRat(r rat) *Expr { return &Expr{konst: r} }

// Var returns the expression for the scalar variable name.
func Var(name string) *Expr {
	return &Expr{
		konst: ratInt(0),
		terms: map[string]*term{name: {coef: ratInt(1), factors: []factor{{name, 1}}}},
		atoms: map[string]lang.Expr{name: &lang.Ident{Name: name}},
	}
}

// atomExpr returns an expression that is a single opaque atom.
func atomExpr(key string, ast lang.Expr) *Expr {
	return &Expr{
		konst: ratInt(0),
		terms: map[string]*term{key: {coef: ratInt(1), factors: []factor{{key, 1}}}},
		atoms: map[string]lang.Expr{key: ast},
	}
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

// ConstPart returns the integral constant term of e (0 if the constant
// part is not an integer).
func (e *Expr) ConstPart() int64 {
	if e.konst.isInt() {
		return e.konst.n
	}
	return 0
}

// IsVar reports whether e is exactly one scalar variable (coefficient 1),
// returning its name.
func (e *Expr) IsVar() (string, bool) {
	if !e.konst.isZero() || len(e.terms) != 1 {
		return "", false
	}
	for _, t := range e.terms {
		if t.coef == ratInt(1) && len(t.factors) == 1 && t.factors[0].pow == 1 {
			a := t.factors[0].atom
			if _, ok := e.atoms[a].(*lang.Ident); ok {
				return a, true
			}
		}
	}
	return "", false
}

// Atoms returns the sorted atom names appearing in e.
func (e *Expr) Atoms() []string {
	seen := map[string]bool{}
	for _, t := range e.terms {
		for _, f := range t.factors {
			seen[f.atom] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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

// MentionsVar reports whether the scalar variable name occurs anywhere in e,
// including inside opaque atoms such as array subscripts.
func (e *Expr) MentionsVar(name string) bool {
	for _, t := range e.terms {
		for _, f := range t.factors {
			if f.atom == name {
				return true
			}
			if ast, ok := e.atoms[f.atom]; ok && astMentions(ast, name) {
				return true
			}
		}
	}
	return false
}

func astMentions(ast lang.Expr, name string) bool {
	found := false
	lang.WalkExpr(ast, func(x lang.Expr) bool {
		if id, ok := x.(*lang.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// ArrayAtomNames lists, sorted, the distinct names of the arrays whose
// elements appear in e (intrinsic calls excluded).
func ArrayAtomNames(e *Expr) []string {
	seen := map[string]bool{}
	var out []string
	lang.WalkExpr(e.ToAST(), func(x lang.Expr) bool {
		if ar, ok := x.(*lang.ArrayRef); ok && !ar.Intrinsic && !seen[ar.Name] {
			seen[ar.Name] = true
			out = append(out, ar.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}

func (e *Expr) clone() *Expr {
	c := &Expr{konst: e.konst}
	if len(e.terms) > 0 {
		c.terms = make(map[string]*term, len(e.terms))
		for k, t := range e.terms {
			nt := &term{coef: t.coef, factors: append([]factor(nil), t.factors...)}
			c.terms[k] = nt
		}
	}
	if len(e.atoms) > 0 {
		c.atoms = make(map[string]lang.Expr, len(e.atoms))
		for k, v := range e.atoms {
			c.atoms[k] = v
		}
	}
	return c
}

func (e *Expr) mergeAtoms(other *Expr) {
	if len(other.atoms) == 0 {
		return
	}
	if e.atoms == nil {
		e.atoms = map[string]lang.Expr{}
	}
	for k, v := range other.atoms {
		if _, ok := e.atoms[k]; !ok {
			e.atoms[k] = v
		}
	}
}

func (e *Expr) addTerm(t *term) {
	if t.coef.isZero() {
		return
	}
	if e.terms == nil {
		e.terms = map[string]*term{}
	}
	k := t.key()
	if old, ok := e.terms[k]; ok {
		old.coef = old.coef.add(t.coef)
		if old.coef.isZero() {
			delete(e.terms, k)
		}
		return
	}
	e.terms[k] = &term{coef: t.coef, factors: append([]factor(nil), t.factors...)}
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
	r := e.clone()
	r.konst = r.konst.add(o.konst)
	for _, t := range o.terms {
		r.addTerm(t)
	}
	r.mergeAtoms(o)
	if r.hasOverflow() {
		return degrade(lang.OpAdd, "+", e, o)
	}
	return r
}

// AddConst returns e + c.
func (e *Expr) AddConst(c int64) *Expr {
	r := e.clone()
	r.konst = r.konst.add(ratInt(c))
	if r.konst.invalid() {
		return degrade(lang.OpAdd, "+", e, Const(c))
	}
	return r
}

// Neg returns -e.
func (e *Expr) Neg() *Expr { return e.MulConst(-1) }

// Sub returns e - o.
func (e *Expr) Sub(o *Expr) *Expr { return e.Add(o.Neg()) }

// MulConst returns c·e.
func (e *Expr) MulConst(c int64) *Expr { return e.mulRat(ratInt(c)) }

func (e *Expr) mulRat(c rat) *Expr {
	if c.isZero() {
		return Zero
	}
	r := e.clone()
	r.konst = r.konst.mul(c)
	for _, t := range r.terms {
		t.coef = t.coef.mul(c)
	}
	if r.hasOverflow() {
		return degrade(lang.OpMul, "*", e, constRat(c))
	}
	return r
}

func mulFactors(a, b []factor) []factor {
	out := append([]factor(nil), a...)
	for _, f := range b {
		found := false
		for i := range out {
			if out[i].atom == f.atom {
				out[i].pow += f.pow
				found = true
				break
			}
		}
		if !found {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].atom < out[j].atom })
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
	r := &Expr{konst: e.konst.mul(o.konst)}
	r.mergeAtoms(e)
	r.mergeAtoms(o)
	for _, t := range e.terms {
		if !o.konst.isZero() {
			r.addTerm(&term{coef: t.coef.mul(o.konst), factors: t.factors})
		}
		for _, u := range o.terms {
			r.addTerm(&term{coef: t.coef.mul(u.coef), factors: mulFactors(t.factors, u.factors)})
		}
	}
	if !e.konst.isZero() {
		for _, u := range o.terms {
			r.addTerm(&term{coef: e.konst.mul(u.coef), factors: u.factors})
		}
	}
	if r.hasOverflow() {
		return degrade(lang.OpMul, "*", e, o)
	}
	return r
}

// Equal reports whether e and o have identical canonical forms. Interned
// expressions compare by pointer or cached key; the general case is a
// direct structural comparison of the canonical forms, which allocates
// nothing (unlike the historical e.Sub(o).IsZero(), which cloned and
// merged term maps for every call).
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e.ckey != "" && o.ckey != "" {
		return e.ckey == o.ckey
	}
	return e.structEq(o)
}

// structEq compares canonical forms field by field. Terms are keyed by
// their factor rendering and coefficients are normalized rats, so map
// lookup plus struct equality decides identity exactly.
func (e *Expr) structEq(o *Expr) bool {
	if e.konst != o.konst || len(e.terms) != len(o.terms) {
		return false
	}
	for k, t := range e.terms {
		ot, ok := o.terms[k]
		if !ok || ot.coef != t.coef {
			return false
		}
	}
	return true
}

// DiffConst reports whether e - o is a constant, and returns it. Since
// terms never carry zero coefficients, the difference is constant exactly
// when the term maps agree, so no subtraction needs to be materialized.
func (e *Expr) DiffConst(o *Expr) (int64, bool) {
	if len(e.terms) != len(o.terms) {
		return 0, false
	}
	for k, t := range e.terms {
		ot, ok := o.terms[k]
		if !ok || ot.coef != t.coef {
			return 0, false
		}
	}
	d := e.konst.sub(o.konst)
	if !d.isInt() {
		return 0, false
	}
	return d.n, true
}

// String returns the canonical rendering of e. Identical expressions have
// identical strings, so String doubles as a canonical key. Interned
// expressions return the key cached at intern time.
func (e *Expr) String() string {
	if e.ckey != "" {
		return e.ckey
	}
	return e.render()
}

func (e *Expr) render() string {
	if len(e.terms) == 0 {
		return e.konst.String()
	}
	keys := make([]string, 0, len(e.terms))
	for k := range e.terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	first := true
	for _, k := range keys {
		t := e.terms[k]
		c := t.coef
		if first {
			if c.sign() < 0 {
				sb.WriteByte('-')
				c = c.neg()
			}
			first = false
		} else if c.sign() < 0 {
			sb.WriteString(" - ")
			c = c.neg()
		} else {
			sb.WriteString(" + ")
		}
		if c != ratInt(1) {
			fmt.Fprintf(&sb, "%s*", c)
		}
		sb.WriteString(k)
	}
	if e.konst.sign() > 0 {
		fmt.Fprintf(&sb, " + %s", e.konst)
	} else if e.konst.sign() < 0 {
		fmt.Fprintf(&sb, " - %s", e.konst.neg())
	}
	return sb.String()
}

// CoefOf returns the integer coefficient of the plain degree-1 term in the
// variable or atom named a, e.g. CoefOf("i") of 3*i + 2*i*j + 1 is 3.
// Non-integral coefficients report 0.
func (e *Expr) CoefOf(a string) int64 {
	if t, ok := e.terms[a]; ok && t.coef.isInt() {
		return t.coef.n
	}
	return 0
}

// WithoutTerm returns e with the plain degree-1 term in atom a removed.
func (e *Expr) WithoutTerm(a string) *Expr {
	r := e.clone()
	delete(r.terms, a)
	return r
}

// Affine decomposes e as coef·v + rest where rest does not contain v at all
// (not even inside opaque atoms). ok is false if v occurs non-linearly or
// inside an opaque atom.
func (e *Expr) Affine(v string) (coef int64, rest *Expr, ok bool) {
	rest = e.clone()
	acc := ratInt(0)
	for k, t := range e.terms {
		occurs := false
		for _, f := range t.factors {
			if f.atom == v {
				occurs = true
				if f.pow != 1 || len(t.factors) != 1 {
					return 0, nil, false
				}
			} else if ast, has := e.atoms[f.atom]; has && astMentions(ast, v) {
				return 0, nil, false
			}
		}
		if occurs {
			acc = acc.add(t.coef)
			delete(rest.terms, k)
		}
	}
	if !acc.isInt() {
		return 0, nil, false
	}
	return acc.n, rest, true
}

// ---------------------------------------------------------------------------
// Conversion from and to the AST

// FromAST converts an AST expression to canonical symbolic form. Non-integer
// or non-polynomial constructs (real literals, division, intrinsics, logical
// operators) become opaque atoms, so the result is always well-defined.
// Interner.FromAST is the memoized variant; both share this conversion.
func FromAST(e lang.Expr) *Expr { return fromASTIn(nil, e) }

// fromASTIn is FromAST with an optional (nil-safe) interner: every AST
// node's conversion is memoized and every result — including the
// subexpressions the recursion builds — is interned.
func fromASTIn(in *Interner, e lang.Expr) *Expr {
	if r := in.lookupNode(e); r != nil {
		return r
	}
	return in.storeNode(e, convertAST(in, e))
}

func convertAST(in *Interner, e lang.Expr) *Expr {
	switch e := e.(type) {
	case *lang.IntLit:
		return Const(e.Value)
	case *lang.Ident:
		return Var(e.Name)
	case *lang.ArrayRef:
		return atomExpr(canonRefKeyIn(in, e), canonRefASTIn(in, e))
	case *lang.Unary:
		if e.Op == lang.OpNeg {
			return fromASTIn(in, e.X).Neg()
		}
	case *lang.Binary:
		switch e.Op {
		case lang.OpAdd:
			return fromASTIn(in, e.X).Add(fromASTIn(in, e.Y))
		case lang.OpSub:
			return fromASTIn(in, e.X).Sub(fromASTIn(in, e.Y))
		case lang.OpMul:
			return fromASTIn(in, e.X).Mul(fromASTIn(in, e.Y))
		case lang.OpDiv:
			x, y := fromASTIn(in, e.X), fromASTIn(in, e.Y)
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
			x, y := fromASTIn(in, e.X), fromASTIn(in, e.Y)
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
	r := e.clone()
	r.konst = r.konst.divInt(c)
	for _, t := range r.terms {
		t.coef = t.coef.divInt(c)
	}
	return r, true
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
		// Squarefree reduction of the factor multiset.
		names := make([]string, 0, len(t.factors))
		for _, f := range t.factors {
			names = append(names, f.atom)
		}
		sort.Strings(names)
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

// canonRefKeyIn builds the canonical atom name for an array element or
// intrinsic call: the name applied to the canonical form of each argument.
func canonRefKeyIn(in *Interner, e *lang.ArrayRef) string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = fromASTIn(in, a).String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ","))
}

func canonRefASTIn(in *Interner, e *lang.ArrayRef) lang.Expr {
	c := &lang.ArrayRef{NamePos: e.NamePos, Name: e.Name, Intrinsic: e.Intrinsic}
	c.Args = make([]lang.Expr, len(e.Args))
	for i, a := range e.Args {
		c.Args[i] = fromASTIn(in, a).ToAST()
	}
	return c
}

// RefKey returns the canonical atom name an ArrayRef would get, so clients
// can look up or substitute array-element atoms.
func RefKey(e *lang.ArrayRef) string { return canonRefKeyIn(nil, e) }

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

	keys := make([]string, 0, len(e.terms))
	for k := range e.terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := e.terms[k]
		var prod lang.Expr
		for _, f := range t.factors {
			ast := e.atoms[f.atom]
			if ast == nil {
				ast = &lang.Ident{Name: f.atom}
			}
			for p := 0; p < f.pow; p++ {
				fc := lang.CloneExpr(ast)
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
				base = atomExpr(f.atom, e.atoms[f.atom])
			}
			for p := 0; p < f.pow; p++ {
				tv = tv.Mul(base)
			}
		}
		r = r.Add(tv)
	}
	return r
}

// ArrayAtoms returns, for each atom of e that is an element of the named
// array, the atom key and the canonical subscript expression (first
// dimension). Non-matching atoms are skipped.
func (e *Expr) ArrayAtoms(array string) map[string]*Expr {
	out := map[string]*Expr{}
	for _, t := range e.terms {
		for _, f := range t.factors {
			ast, ok := e.atoms[f.atom]
			if !ok {
				continue
			}
			ref, ok := ast.(*lang.ArrayRef)
			if !ok || ref.Name != array || len(ref.Args) != 1 {
				continue
			}
			out[f.atom] = FromAST(ref.Args[0])
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
			} else if ast, ok := e.atoms[f.atom]; ok && astMentions(ast, name) {
				nast := lang.MapExpr(lang.CloneExpr(ast), func(x lang.Expr) lang.Expr {
					if id, ok := x.(*lang.Ident); ok && id.Name == name {
						return lang.CloneExpr(replAST)
					}
					return x
				})
				base = FromAST(nast)
			} else {
				base = atomExpr(f.atom, e.atoms[f.atom])
			}
			for p := 0; p < f.pow; p++ {
				tv = tv.Mul(base)
			}
		}
		r = r.Add(tv)
	}
	return r
}
