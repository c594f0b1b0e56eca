package expr

import (
	"testing"

	"repro/internal/lang"
)

// symIn converts through an interner (per-node memo + canonical keys).
func symIn(t *testing.T, in *Interner, src string) *Expr {
	t.Helper()
	return in.FromAST(parseExpr(t, src))
}

// TestInternerAlgebraicIdentities re-runs the core algebraic identities on
// interned operands: interning must be observationally invisible.
func TestInternerAlgebraicIdentities(t *testing.T) {
	in := NewInterner()
	cases := []struct{ a, b string }{
		{"i + j", "j + i"},
		{"2*i + i", "3*i"},
		{"(i+1)*(i-1)", "i*i - 1"},
		{"i*(j+k)", "i*j + i*k"},
		{"(2*i + 4)/2", "i + 2"},
		{"a(i+1) - a(1+i)", "0"},
		// Rational coefficients: the triangular form i*(i-1)/2.
		{"i*(i-1)/2 + i", "i*(i+1)/2"},
		{"(i*i - i)/2", "i*(i-1)/2"},
	}
	for _, c := range cases {
		x, y := symIn(t, in, c.a), symIn(t, in, c.b)
		if !x.Equal(y) {
			t.Errorf("%q and %q not equal interned: %s vs %s", c.a, c.b, x, y)
		}
		if !x.Sub(x).IsZero() {
			t.Errorf("%q: x - x not zero", c.a)
		}
		// Add commutativity and the differential Equal check: Equal must
		// agree with the legacy Sub().IsZero() definition.
		l, r := x.Add(y), y.Add(x)
		if !l.Equal(r) {
			t.Errorf("%q + %q not commutative", c.a, c.b)
		}
		if l.Equal(r) != l.Sub(r).IsZero() {
			t.Errorf("%q: Equal disagrees with Sub().IsZero()", c.a)
		}
	}
}

// TestInternerMulDistributivity checks a*(b+c) == a*b + a*c on interned
// operands, including rational coefficients.
func TestInternerMulDistributivity(t *testing.T) {
	in := NewInterner()
	operands := []string{"i", "j + 1", "a(i)", "i*(i-1)/2", "2*i - 3*j", "n"}
	for _, sa := range operands {
		for _, sb := range operands {
			for _, sc := range operands {
				a, b, c := symIn(t, in, sa), symIn(t, in, sb), symIn(t, in, sc)
				l := a.Mul(b.Add(c))
				r := a.Mul(b).Add(a.Mul(c))
				if !l.Equal(r) {
					t.Fatalf("%s*(%s+%s): %s != %s", sa, sb, sc, l, r)
				}
			}
		}
	}
}

// TestInternerSubstAtomRoundTrip replaces an atom by a fresh variable and
// back, expecting the original canonical form.
func TestInternerSubstAtomRoundTrip(t *testing.T) {
	in := NewInterner()
	e := symIn(t, in, "2*a(i) + b(j) - 3")
	atom := "a(i)"
	repl := in.Intern(Var("zz1"))
	swapped := e.SubstAtom(atom, repl)
	if swapped.HasAtom(atom) {
		t.Fatalf("atom %q survived substitution: %s", atom, swapped)
	}
	back := swapped.SubstVar("zz1", in.Intern(FromAST(parseExpr(t, "a(i)"))))
	if !back.Equal(e) {
		t.Fatalf("round trip: got %s, want %s", back, e)
	}
}

// TestInternerSharing checks the hash-consing contract proper: the same AST
// node yields the same *Expr, and equal values share one representative.
func TestInternerSharing(t *testing.T) {
	in := NewInterner()
	node := parseExpr(t, "2*i + j")
	p1 := in.FromAST(node)
	p2 := in.FromAST(node)
	if p1 != p2 {
		t.Fatalf("same AST node interned to distinct pointers")
	}
	if st := in.Stats(); st.NodeHits == 0 {
		t.Fatalf("expected a node hit, stats %+v", st)
	}
	// A structurally equal but distinct AST maps to the same representative.
	p3 := in.FromAST(parseExpr(t, "j + 2*i"))
	if p1 != p3 {
		t.Fatalf("equal values interned to distinct representatives")
	}
	// Pointer equality is the Equal fast path.
	if !p1.Equal(p3) {
		t.Fatalf("representatives unequal")
	}
}

// TestInternerInvalidateAST drops the node memo but keeps the key table.
func TestInternerInvalidateAST(t *testing.T) {
	in := NewInterner()
	node := parseExpr(t, "i + 1")
	p1 := in.FromAST(node)
	in.InvalidateAST()
	p2 := in.FromAST(node)
	if p1 != p2 {
		t.Fatalf("canonical representative lost across InvalidateAST")
	}
	st := in.Stats()
	if st.NodeMisses < 2 {
		t.Fatalf("expected the node memo to re-fill after invalidation, stats %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("expected a key-table hit on reconversion, stats %+v", st)
	}
}

// TestNilInternerDegrades checks that a nil interner behaves exactly like
// plain conversion, so a nil *Interner is the un-interned reference.
func TestNilInternerDegrades(t *testing.T) {
	var in *Interner
	node := parseExpr(t, "2*i + j")
	p := in.FromAST(node)
	q := FromAST(node)
	if !p.Equal(q) || p.String() != q.String() {
		t.Fatalf("nil interner conversion differs: %s vs %s", p, q)
	}
	if got := in.Intern(p); got != p {
		t.Fatalf("nil Intern must return its argument")
	}
	in.InvalidateAST() // must not panic
	if st := in.Stats(); st != (InternStats{}) {
		t.Fatalf("nil interner stats nonzero: %+v", st)
	}
}

// TestCachedKeyMatchesRender checks that interned expressions render the
// same canonical string as uninterned ones, and that derived expressions
// do not inherit a stale cached key.
func TestCachedKeyMatchesRender(t *testing.T) {
	in := NewInterner()
	srcs := []string{"i", "2*i + j - 3", "a(i)*b(j)", "i*(i-1)/2", "0", "1"}
	for _, s := range srcs {
		interned := symIn(t, in, s)
		plain := FromAST(parseExpr(t, s))
		if interned.String() != plain.String() {
			t.Errorf("%q: interned key %q != plain render %q", s, interned.String(), plain.String())
		}
		// A derived value must re-render, not reuse the parent's key.
		d := interned.AddConst(7)
		if d.String() == interned.String() {
			t.Errorf("%q: derived expression inherited the cached key", s)
		}
		if !d.AddConst(-7).Equal(interned) {
			t.Errorf("%q: derived expression does not round-trip", s)
		}
	}
}

// TestRefKeyStable checks RefKey agrees with the canonical atom rendering
// used across property/deptest memo keys.
func TestRefKeyStable(t *testing.T) {
	ast := parseExpr(t, "a(2*i - i + j)").(*lang.ArrayRef)
	ast2 := parseExpr(t, "a(j + i)").(*lang.ArrayRef)
	if RefKey(ast) != RefKey(ast2) {
		t.Fatalf("RefKey not canonical: %q vs %q", RefKey(ast), RefKey(ast2))
	}
}
