package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lang"
)

// parseExpr parses a lone expression by wrapping it in a dummy assignment.
func parseExpr(t testing.TB, src string) lang.Expr {
	t.Helper()
	prog, err := lang.Parse("program t\n zz9 = " + src + "\nend\n")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog.Main.Body[0].(*lang.AssignStmt).Rhs
}

func sym(t *testing.T, src string) *Expr {
	t.Helper()
	return FromAST(parseExpr(t, src))
}

func TestCanonicalForms(t *testing.T) {
	cases := []struct {
		a, b string
	}{
		{"i + j", "j + i"},
		{"2*i + i", "3*i"},
		{"i - i", "0"},
		{"(i+1)*(i-1)", "i*i - 1"},
		{"(i+j)*2", "2*i + 2*j"},
		{"i*(j+k)", "i*j + i*k"},
		{"(2*i + 4)/2", "i + 2"},
		{"i**2", "i*i"},
		{"-(i - j)", "j - i"},
		{"a(i) + a(i)", "2*a(i)"},
		{"a(i+1) - a(1+i)", "0"},
		{"a(2*i) - a(i+i)", "0"},
	}
	for _, c := range cases {
		x, y := sym(t, c.a), sym(t, c.b)
		if !x.Equal(y) {
			t.Errorf("%q and %q not equal: %s vs %s", c.a, c.b, x, y)
		}
	}
}

func TestNotEqual(t *testing.T) {
	cases := [][2]string{
		{"i", "j"},
		{"a(i)", "a(j)"},
		{"i/2", "i"},
		{"i/2 + i/2", "i"}, // integer division is opaque
		{"a(i)*a(j)", "a(i*j)"},
	}
	for _, c := range cases {
		if sym(t, c[0]).Equal(sym(t, c[1])) {
			t.Errorf("%q and %q should differ", c[0], c[1])
		}
	}
}

func TestDiffConst(t *testing.T) {
	a := sym(t, "p + 3")
	b := sym(t, "p")
	if d, ok := a.DiffConst(b); !ok || d != 3 {
		t.Errorf("DiffConst = %d,%v", d, ok)
	}
	c := sym(t, "q")
	if _, ok := a.DiffConst(c); ok {
		t.Error("p+3 - q should not be constant")
	}
}

func TestAffine(t *testing.T) {
	e := sym(t, "3*i + 2*j + 5")
	coef, rest, ok := e.Affine("i")
	if !ok || coef != 3 {
		t.Fatalf("coef=%d ok=%v", coef, ok)
	}
	if rest.String() != "2*j + 5" {
		t.Errorf("rest = %s", rest)
	}
	// Non-linear occurrence.
	if _, _, ok := sym(t, "i*i").Affine("i"); ok {
		t.Error("i*i should not be affine in i")
	}
	// Occurrence inside an opaque atom.
	if _, _, ok := sym(t, "a(i) + 1").Affine("i"); ok {
		t.Error("a(i) should block affine decomposition in i")
	}
	// Variable absent.
	coef, _, ok = sym(t, "j + 1").Affine("i")
	if !ok || coef != 0 {
		t.Errorf("absent var: coef=%d ok=%v", coef, ok)
	}
}

func TestToASTRoundTrip(t *testing.T) {
	cases := []string{
		"3*i + 2*j + 5",
		"a(i+1) - 2*b(j)",
		"i*j*k",
		"0",
		"-4",
		"n - 1",
	}
	for _, c := range cases {
		e := sym(t, c)
		back := FromAST(e.ToAST())
		if !e.Equal(back) {
			t.Errorf("%q: round trip %s != %s", c, back, e)
		}
	}
}

func TestSubstVar(t *testing.T) {
	cases := []struct {
		e, v, repl, want string
	}{
		{"i + 1", "i", "n", "n + 1"},
		{"2*i + j", "i", "j + 1", "3*j + 2"},
		{"a(i)", "i", "i + 1", "a(i + 1)"},
		{"a(i) + i", "i", "5", "a(5) + 5"},
		{"a(j)", "i", "0", "a(j)"},
		{"i*i", "i", "2", "4"},
	}
	for _, c := range cases {
		e := sym(t, c.e)
		got := e.SubstVar(c.v, sym(t, c.repl))
		want := sym(t, c.want)
		if !got.Equal(want) {
			t.Errorf("SubstVar(%q, %s=%s) = %s, want %s", c.e, c.v, c.repl, got, want)
		}
	}
}

func TestMentionsVar(t *testing.T) {
	e := sym(t, "a(i+1) + j")
	if !e.MentionsVar("i") || !e.MentionsVar("j") || e.MentionsVar("k") {
		t.Errorf("MentionsVar wrong for %s", e)
	}
}

func TestIsVar(t *testing.T) {
	if v, ok := sym(t, "p").IsVar(); !ok || v != "p" {
		t.Errorf("IsVar(p) = %q,%v", v, ok)
	}
	for _, s := range []string{"p + 1", "2*p", "a(p)", "3"} {
		if _, ok := sym(t, s).IsVar(); ok {
			t.Errorf("IsVar(%q) should be false", s)
		}
	}
}

func TestProveGE0(t *testing.T) {
	a := Assumptions{"n": GT0, "len(i)": GE0}
	cases := []struct {
		e    string
		want bool
	}{
		{"n", true},
		{"n - 1", true},
		{"n + 5", true},
		{"n - 2", false}, // only n >= 1 known
		{"len(i)", true},
		{"len(i) - 1", false},
		{"n * len(i)", true},
		{"2*n - 2", true},
		{"-n", false},
		{"j", false},
		{"j*j", true}, // even power
		{"0", true},
		{"n + len(i) - 1", true},
	}
	for _, c := range cases {
		if got := ProveGE0(sym(t, c.e), a); got != c.want {
			t.Errorf("ProveGE0(%q) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestProveLTAndLE(t *testing.T) {
	a := Assumptions{"n": GT0}
	x, y := sym(t, "i"), sym(t, "i + n")
	if !ProveLT(x, y, a) {
		t.Error("i < i + n should be provable with n >= 1")
	}
	if !ProveLE(x, x, a) {
		t.Error("i <= i should be provable")
	}
	if ProveLT(x, x, a) {
		t.Error("i < i should not be provable")
	}
}

func TestBounds(t *testing.T) {
	env := Env{"i": NewRange(One, Var("n"))}
	a := Assumptions{}
	cases := []struct {
		e      string
		lo, hi string
		ok     bool
	}{
		{"i", "1", "n", true},
		{"2*i + 1", "3", "2*n + 1", true},
		{"-i", "-n", "-1", true},
		{"j", "j", "j", true},
		{"i + j", "j + 1", "j + n", true},
		{"a(i)", "", "", false}, // i inside opaque atom
		{"i*i", "", "", false},  // non-linear
	}
	for _, c := range cases {
		r, ok := Bounds(sym(t, c.e), env, a)
		if ok != c.ok {
			t.Errorf("Bounds(%q): ok=%v, want %v", c.e, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if !r.Lo.Equal(sym(t, c.lo)) || !r.Hi.Equal(sym(t, c.hi)) {
			t.Errorf("Bounds(%q) = %s, want [%s:%s]", c.e, r, c.lo, c.hi)
		}
	}
}

func TestBoundsTwoVars(t *testing.T) {
	env := Env{
		"i": NewRange(One, Var("n")),
		"j": NewRange(Const(2), Var("m")),
	}
	r, ok := Bounds(sym(t, "i - j"), env, nil)
	if !ok {
		t.Fatal("Bounds failed")
	}
	if !r.Lo.Equal(sym(t, "1 - m")) || !r.Hi.Equal(sym(t, "n - 2")) {
		t.Errorf("got %s", r)
	}
}

func TestDisjointRanges(t *testing.T) {
	a := Assumptions{"n": GE0}
	r1 := NewRange(One, Var("p"))
	r2 := NewRange(Var("p").AddConst(1), Var("p").Add(Var("n")))
	if !DisjointRanges(r1, r2, a) {
		t.Error("[1:p] and [p+1:p+n] should be disjoint")
	}
	if DisjointRanges(r1, r1, a) {
		t.Error("range is not disjoint from itself")
	}
}

func TestRangeContains(t *testing.T) {
	a := Assumptions{"n": GT0}
	outer := NewRange(One, Var("n"))
	inner := NewRange(One, Var("n").AddConst(-1))
	if !RangeContains(outer, inner, a) {
		t.Error("[1:n] should contain [1:n-1]")
	}
	if RangeContains(inner, outer, a) {
		t.Error("[1:n-1] should not contain [1:n]")
	}
	unbounded := Range{}
	if !RangeContains(unbounded, outer, a) {
		t.Error("unbounded range contains everything")
	}
}

// randomExpr builds a random symbolic expression over a small variable pool.
func randomExpr(r *rand.Rand, depth int) *Expr {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return Const(int64(r.Intn(21) - 10))
		default:
			return Var([]string{"i", "j", "k"}[r.Intn(3)])
		}
	}
	x, y := randomExpr(r, depth-1), randomExpr(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return x.Add(y)
	case 1:
		return x.Sub(y)
	default:
		return x.Mul(y)
	}
}

func TestQuickAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	r := rand.New(rand.NewSource(1))

	// Commutativity and associativity of Add; distribution of Mul.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomExpr(rr, 2), randomExpr(rr, 2), randomExpr(rr, 2)
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		if !a.Add(b.Add(c)).Equal(a.Add(b).Add(c)) {
			return false
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		if !a.Sub(a).IsZero() {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestQuickToASTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 3)
		return FromAST(e.ToAST()).Equal(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoefOfAndWithoutTerm(t *testing.T) {
	e := sym(t, "3*i + 2*j + 7")
	if e.CoefOf("i") != 3 || e.CoefOf("j") != 2 || e.CoefOf("k") != 0 {
		t.Errorf("CoefOf wrong: %s", e)
	}
	r := e.WithoutTerm("i")
	if !r.Equal(sym(t, "2*j + 7")) {
		t.Errorf("WithoutTerm = %s", r)
	}
}

func TestAtoms(t *testing.T) {
	e := sym(t, "a(i) + b(j)*c + 2")
	atoms := e.Atoms()
	want := []string{"a(i)", "b(j)", "c"}
	if len(atoms) != len(want) {
		t.Fatalf("atoms = %v", atoms)
	}
	for i := range want {
		if atoms[i] != want[i] {
			t.Errorf("atom %d = %q, want %q", i, atoms[i], want[i])
		}
	}
}

func TestStringCanonicalKey(t *testing.T) {
	a := sym(t, "j + i - 3")
	b := sym(t, "i + j - 3")
	if a.String() != b.String() {
		t.Errorf("canonical strings differ: %q vs %q", a, b)
	}
	if a.String() != "i + j - 3" {
		t.Errorf("unexpected rendering %q", a)
	}
}

// TestQuickBoundsSound checks, against brute-force enumeration, that the
// symbolic Bounds of a random affine expression over random variable ranges
// always contains the true extrema.
func TestQuickBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		// Random affine expression over i, j with constant coefficients.
		ci := int64(rr.Intn(9) - 4)
		cj := int64(rr.Intn(9) - 4)
		k := int64(rr.Intn(21) - 10)
		e := Var("i").MulConst(ci).Add(Var("j").MulConst(cj)).AddConst(k)

		iLo := int64(rr.Intn(10) - 5)
		iHi := iLo + int64(rr.Intn(6))
		jLo := int64(rr.Intn(10) - 5)
		jHi := jLo + int64(rr.Intn(6))
		env := Env{
			"i": ConstRange(iLo, iHi),
			"j": ConstRange(jLo, jHi),
		}
		r, ok := Bounds(e, env, nil)
		if !ok {
			return false // affine over constant ranges must always bound
		}
		lo, ok1 := r.Lo.IsConst()
		hi, ok2 := r.Hi.IsConst()
		if !ok1 || !ok2 {
			return false
		}
		for i := iLo; i <= iHi; i++ {
			for j := jLo; j <= jHi; j++ {
				v := ci*i + cj*j + k
				if v < lo || v > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickProveGE0Sound cross-checks the sign prover against enumeration:
// whenever ProveGE0 claims nonnegativity under i>=1, every concrete i >= 1
// (up to a bound) must satisfy it.
func TestQuickProveGE0Sound(t *testing.T) {
	a := Assumptions{"i": GT0}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		// Random quadratic c2*i^2 + c1*i + c0.
		c2 := int64(rr.Intn(5) - 2)
		c1 := int64(rr.Intn(9) - 4)
		c0 := int64(rr.Intn(11) - 5)
		e := Var("i").Mul(Var("i")).MulConst(c2).Add(Var("i").MulConst(c1)).AddConst(c0)
		if !ProveGE0(e, a) {
			return true // "unproven" is always sound
		}
		for i := int64(1); i <= 50; i++ {
			if c2*i*i+c1*i+c0 < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
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
