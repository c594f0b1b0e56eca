package expr

import (
	"testing"

	"repro/internal/lang"
)

func TestTriangularDivisionExact(t *testing.T) {
	// i*(i-1)/2 must stay a polynomial with rational coefficients, so
	// differences telescope.
	f := sym(t, "i * (i - 1) / 2")
	fNext := f.SubstVar("i", Var("i").AddConst(1))
	diff := fNext.Sub(f)
	if !diff.Equal(Var("i")) {
		t.Errorf("f(i+1) - f(i) = %s, want i", diff)
	}
}

func TestParityRuleVariants(t *testing.T) {
	// (i^2 + i)/2 is exact by parity.
	e := sym(t, "(i * i + i) / 2")
	if e.Atoms()[0] == "" {
	}
	doubled := e.MulConst(2)
	if !doubled.Equal(sym(t, "i * i + i")) {
		t.Errorf("2 * (i²+i)/2 = %s", doubled)
	}
	// (i*j + i*j)/2 = i*j (coefficient-wise).
	if !sym(t, "(i*j + i*j) / 2").Equal(sym(t, "i*j")) {
		t.Error("coefficient-divisible case")
	}
	// (i + 1)/2 is NOT exact: stays opaque.
	if sym(t, "(i + 1) / 2").Equal(sym(t, "i / 2").AddConst(0).Add(constRat(rat{1, 2}))) {
		t.Error("(i+1)/2 must not become rational")
	}
	if len(sym(t, "(i + 1) / 2").Atoms()) != 1 {
		t.Error("(i+1)/2 should be one opaque atom")
	}
	// (i^2 + i + 1)/2: odd constant, not exact.
	if len(sym(t, "(i*i + i + 1) / 2").Atoms()) != 1 {
		t.Error("(i²+i+1)/2 should stay opaque")
	}
	// (i^3 - i)/2: i³ ≡ i (mod 2) so i³ - i is even... i³-i = i(i-1)(i+1),
	// divisible by 2. Squarefree reduction maps i^3 -> i, so coefficients
	// cancel: exact.
	e3 := sym(t, "(i ** 3 - i) / 2")
	if len(e3.Atoms()) != 1 || e3.Atoms()[0] != "i" {
		t.Errorf("(i³-i)/2 should be rational-coefficient polynomial over i: %s", e3)
	}
}

func TestNegativeDivisorExact(t *testing.T) {
	e := sym(t, "(2 * i + 4) / (0 - 2)")
	if !e.Equal(sym(t, "0 - i - 2")) {
		t.Errorf("(2i+4)/(-2) = %s, want -i-2", e)
	}
}

func TestRationalToASTWholeExpressionDivision(t *testing.T) {
	// The AST for a rational-coefficient form must divide the whole
	// scaled expression once, preserving truncating semantics.
	f := sym(t, "i * (i - 1) / 2")
	ast := f.ToAST()
	bin, ok := ast.(*lang.Binary)
	if !ok || bin.Op != lang.OpDiv {
		t.Fatalf("expected a top-level division, got %s", lang.FormatExpr(ast))
	}
	if lit, ok := bin.Y.(*lang.IntLit); !ok || lit.Value != 2 {
		t.Errorf("divisor: %s", lang.FormatExpr(bin.Y))
	}
	// Round trip preserves equality.
	if !FromAST(ast).Equal(f) {
		t.Errorf("round trip: %s", FromAST(ast))
	}
}

func TestRationalProofs(t *testing.T) {
	f := sym(t, "i * (i - 1) / 2")
	a := Assumptions{"i": GT0}
	// What the TRFD dependence proof actually needs: differences of the
	// closed form telescope to affine expressions whose signs are
	// provable. f(i+1) - f(i) - i == 0 exactly.
	diff := f.SubstVar("i", Var("i").AddConst(1)).Sub(f).Sub(Var("i"))
	if !diff.IsZero() {
		t.Errorf("telescoping failed: %s", diff)
	}
	// f(i+1) - f(i) = i >= 1 under i >= 1: the separation proof.
	step := f.SubstVar("i", Var("i").AddConst(1)).Sub(f)
	if !ProveGT0(step, a) {
		t.Errorf("step %s should be provably >= 1 for i >= 1", step)
	}
	// Scaling clears denominators: 2*f has integer coefficients and the
	// even-power term is provably nonnegative on its own.
	if !ProveGE0(sym(t, "(2 * i * i) / 2"), nil) {
		t.Error("i^2 >= 0 must be provable")
	}
	// The conservative prover deliberately cannot factor i*(i-1); it must
	// answer "unproven", never a wrong "proven".
	if ProveGE0(sym(t, "0 - i * (i - 1) / 2"), a) {
		t.Error("-(i²-i)/2 is negative for i >= 2; proving it nonnegative would be unsound")
	}
}

func TestRationalString(t *testing.T) {
	f := sym(t, "i * (i - 1) / 2")
	s := f.String()
	if s != "-1/2*i + 1/2*i^2" {
		t.Errorf("canonical rendering: %q", s)
	}
}

func TestIsConstRejectsRational(t *testing.T) {
	half := constRat(rat{1, 2})
	if _, ok := half.IsConst(); ok {
		t.Error("1/2 must not report as an integer constant")
	}
	if half.IsZero() {
		t.Error("1/2 is not zero")
	}
}

func TestRatNormalization(t *testing.T) {
	cases := []struct {
		in   rat
		want rat
	}{
		{rat{2, 4}, rat{1, 2}},
		{rat{-2, 4}, rat{-1, 2}},
		{rat{2, -4}, rat{-1, 2}},
		{rat{0, 5}, rat{0, 1}},
		{rat{6, 3}, rat{2, 1}},
	}
	for _, c := range cases {
		if got := c.in.norm(); got != c.want {
			t.Errorf("norm(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := ratInt(3).add(rat{1, 2}); got != (rat{7, 2}) {
		t.Errorf("3 + 1/2 = %v", got)
	}
	if got := (rat{2, 3}).mul(rat{3, 4}); got != (rat{1, 2}) {
		t.Errorf("2/3 * 3/4 = %v", got)
	}
}

func TestSubstAtom(t *testing.T) {
	e := sym(t, "pptr(i + 1) + 3")
	key := "pptr(i + 1)"
	repl := sym(t, "pptr(i) + iblen(i)")
	got := e.SubstAtom(key, repl)
	want := sym(t, "pptr(i) + iblen(i) + 3")
	if !got.Equal(want) {
		t.Errorf("SubstAtom = %s, want %s", got, want)
	}
	// Absent atom: unchanged.
	if e.SubstAtom("nosuch(1)", repl) != e {
		t.Error("absent atom should return the receiver")
	}
}

func TestArrayAtoms(t *testing.T) {
	e := sym(t, "pptr(i + 1) + iblen(i) * 2 + j + pptr(i) * j + pptr(i)")
	got := e.ArrayAtoms("pptr")
	// Canonical term order, each atom once: the term j*pptr(i) sorts
	// before pptr(i + 1), and the term pptr(i) repeats an atom.
	want := []ArrayAtom{{"pptr(i)", sym(t, "i")}, {"pptr(i + 1)", sym(t, "i + 1")}}
	if len(got) != len(want) {
		t.Fatalf("pptr atoms: %v", got)
	}
	for k, w := range want {
		if got[k].Key != w.Key || !got[k].Sub.Equal(w.Sub) {
			t.Errorf("atom %d = %s with subscript %v, want %s with %v", k, got[k].Key, got[k].Sub, w.Key, w.Sub)
		}
	}
	if len(e.ArrayAtoms("iblen")) != 1 {
		t.Error("iblen atom missing")
	}
	if len(e.ArrayAtoms("zzz")) != 0 {
		t.Error("phantom atoms")
	}
}
