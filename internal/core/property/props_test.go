package property

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

func TestModulusBounds(t *testing.T) {
	// iblen(i) = 2 + mod(i, 4) inside do i = 1, n must derive bounds
	// [2:5] even though mod() is opaque to the linear algebra.
	src := `
program p
  param nmax = 100
  integer n, i, v
  integer iblen(nmax)
  do i = 1, n
    iblen(i) = 2 + mod(i, 4)
  end do
  do i = 1, n
    v = iblen(i)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	prop := NewBounds("iblen")
	if !w.an.Verify(prop, use, sec1("iblen", expr.One, expr.Var("n"))) {
		t.Fatal("mod-defined bounds should verify")
	}
	if c, ok := prop.Lo.IsConst(); !ok || c != 2 {
		t.Errorf("Lo = %v", prop.Lo)
	}
	if c, ok := prop.Hi.IsConst(); !ok || c != 5 {
		t.Errorf("Hi = %v", prop.Hi)
	}
}

func TestModulusBoundsRejectsNegativeArg(t *testing.T) {
	// mod of a possibly-negative argument has a negative range in
	// Fortran/Go semantics; the bounds must not claim [0, c-1].
	src := `
program p
  param nmax = 100
  integer n, i, k, v
  integer a(nmax)
  do i = 1, n
    a(i) = mod(k - 50, 4)
  end do
  v = a(1)
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	prop := NewBounds("a")
	if w.an.Verify(prop, use, sec1("a", expr.One, expr.Var("n"))) {
		if prop.Lo != nil {
			if c, ok := prop.Lo.IsConst(); ok && c >= 0 {
				t.Errorf("unsound nonnegative lower bound %v for mod of unknown-sign argument", prop.Lo)
			}
		}
	}
}

func TestMonotonicRejectsPlainFill(t *testing.T) {
	// A fill with data-dependent values is not provably monotonic.
	src := `
program p
  param nmax = 100
  integer n, i, v
  integer a(nmax), b(nmax)
  do i = 1, n
    a(i) = b(i)
  end do
  v = a(1)
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	if w.an.Verify(NewMonotonic("a"), use, sec1("a", expr.One, expr.Var("n"))) {
		t.Error("data-dependent fill must not verify monotonic")
	}
}

func TestRelationalNotDischargedByParts(t *testing.T) {
	// Two separate gathers each injective do NOT make the union
	// injective: a query spanning both sections must fail.
	src := `
program p
  param nmax = 100
  integer n, q, q2, i, v
  real x(nmax)
  integer ind(nmax)
  q = 0
  do i = 1, n
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
  q2 = q
  do i = 1, n
    if (x(i) < 0.0) then
      q2 = q2 + 1
      ind(q2) = i
    end if
  end do
  v = ind(1)
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	// The whole section [1:q2] spans both gathers; even though each part
	// is injective, the union may repeat values.
	if w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q2"))) {
		t.Error("union of two injective sections must not be claimed injective")
	}
}

func TestPropertyStringForms(t *testing.T) {
	b := NewBounds("a")
	if b.String() == "" || b.TargetArray() != "a" {
		t.Error("bounds string/target")
	}
	i := NewInjective("a")
	if !i.Relational() {
		t.Error("injective must be relational")
	}
	m := NewMonotonic("a")
	if !m.Relational() {
		t.Error("monotonic must be relational")
	}
	cfv := NewClosedFormValue("a")
	if cfv.Relational() {
		t.Error("CFV is element-wise")
	}
	cfd := NewClosedFormDistance("a")
	if cfd.Relational() {
		t.Error("CFD is element-wise (over pairs)")
	}
	if cfd.DistAt(expr.Const(3)) != nil {
		t.Error("DistAt before derivation must be nil")
	}
	if cfv.ValueAt(expr.Const(3)) != nil {
		t.Error("ValueAt before derivation must be nil")
	}
}

func TestVerifyAtUnknownStatement(t *testing.T) {
	w := build(t, gatherSrc)
	ghost := &lang.AssignStmt{Lhs: &lang.Ident{Name: "x"}, Rhs: &lang.IntLit{Value: 1}}
	if ghost.ID() != 0 || w.an.Verify(NewBounds("ind"), ghost, sec1("ind", expr.One, expr.Var("q"))) {
		t.Error("verification at a statement outside the program must fail")
	}
	// The use site of a second check of the same source carries the
	// number of a site where the query holds, and is still not in w's
	// program.
	use := w.assignTo("gather", "jj")
	twin := build(t, gatherSrc).assignTo("gather", "jj")
	if !w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q"))) || twin.ID() != use.ID() {
		t.Fatal("the query does not hold at the program's own site")
	}
	if _, ok := w.an.VerifyCached(func() Property { return NewInjective("ind") }, twin, sec1("ind", expr.One, expr.Var("q"))); ok {
		t.Error("verification at a statement of another program must fail")
	}
}

func TestWhileLoopConservative(t *testing.T) {
	// An index array written inside a WHILE loop cannot be MUST-generated
	// by the generic machinery (unknown trip count).
	src := `
program p
  param nmax = 100
  integer n, i, w, v
  integer ind(nmax)
  w = n
  i = 0
  do while (w >= 1)
    i = i + 1
    ind(i) = i
    w = w - 1
  end do
  v = ind(1)
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	if w.an.Verify(NewBounds("ind"), use, sec1("ind", expr.One, expr.Var("i"))) {
		t.Error("while-loop definition must stay unproven in the generic path")
	}
}

func TestSectionSetHelpers(t *testing.T) {
	// setVars must see variables in both bounds.
	s := section.NewSet(section.New("x", expr.Var("a"), expr.Var("b").AddConst(2)))
	vars := setVars(s)
	has := map[string]bool{}
	for _, v := range vars {
		has[v] = true
	}
	if !has["a"] || !has["b"] {
		t.Errorf("setVars: %v", vars)
	}
	e := expr.FromAST(parseExprP(t, "y(i) + z"))
	if got := exprArrays(e); len(got) != 1 || got[0] != "y" {
		t.Errorf("exprArrays: %v", got)
	}
	vs := exprVars(e)
	hasV := map[string]bool{}
	for _, v := range vs {
		hasV[v] = true
	}
	if !hasV["i"] || !hasV["z"] {
		t.Errorf("exprVars: %v", vs)
	}
}

func parseExprP(t *testing.T, src string) lang.Expr {
	t.Helper()
	prog, err := lang.Parse("program t\n zz9 = " + src + "\nend\n")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog.Main.Body[0].(*lang.AssignStmt).Rhs
}

func TestAffineFillInjectiveAndMonotonic(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i, v
  integer a(nmax), d(nmax)
  do i = 1, n
    a(i) = 3 * i + 7
  end do
  do i = 1, n
    d(i) = 5 - i
  end do
  v = a(1) + d(1)
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	if !w.an.Verify(NewInjective("a"), use, sec1("a", expr.One, expr.Var("n"))) {
		t.Error("a(i)=3i+7 is injective")
	}
	mono := NewMonotonic("a")
	if !w.an.Verify(mono, use, sec1("a", expr.One, expr.Var("n"))) {
		t.Error("a(i)=3i+7 is strictly increasing")
	}
	if !mono.Strict {
		t.Error("coefficient 3 is strict")
	}
	// d(i) = 5 - i: injective (coef -1) but NOT non-decreasing.
	if !w.an.Verify(NewInjective("d"), use, sec1("d", expr.One, expr.Var("n"))) {
		t.Error("d(i)=5-i is injective")
	}
	if w.an.Verify(NewMonotonic("d"), use, sec1("d", expr.One, expr.Var("n"))) {
		t.Error("d(i)=5-i is decreasing; non-decreasing must fail")
	}
}

func TestAffineFillConstantNotInjective(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i, v
  integer a(nmax)
  do i = 1, n
    a(i) = 7
  end do
  v = a(1)
end
`
	w := build(t, src)
	use := w.assignTo("p", "v")
	if w.an.Verify(NewInjective("a"), use, sec1("a", expr.One, expr.Var("n"))) {
		t.Error("constant fill is not injective")
	}
	// But it IS (trivially) non-decreasing.
	if !w.an.Verify(NewMonotonic("a"), use, sec1("a", expr.One, expr.Var("n"))) {
		t.Error("constant fill is non-decreasing")
	}
}
