package property

import (
	"context"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
	"repro/internal/sem"
)

// world compiles a program and builds the analysis.
type world struct {
	t    *testing.T
	info *sem.Info
	an   *Analysis
}

func build(t *testing.T, src string) *world {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	fc := dataflow.NewContext(info)
	hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
	return &world{t: t, info: info, an: New(fc, hp)}
}

// stmtWhere finds the first statement in the unit for which pred is true.
func (w *world) stmtWhere(unit string, pred func(lang.Stmt) bool) lang.Stmt {
	w.t.Helper()
	u := w.info.Program.Unit(unit)
	if u == nil {
		w.t.Fatalf("no unit %q", unit)
	}
	var found lang.Stmt
	lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
		if found == nil && pred(s) {
			found = s
		}
		return found == nil
	})
	if found == nil {
		w.t.Fatalf("statement not found in %q", unit)
	}
	return found
}

// assignTo finds the first assignment whose LHS writes the given variable
// or array name.
func (w *world) assignTo(unit, name string) lang.Stmt {
	return w.stmtWhere(unit, func(s lang.Stmt) bool {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			return false
		}
		switch l := as.Lhs.(type) {
		case *lang.Ident:
			return l.Name == name
		case *lang.ArrayRef:
			return l.Name == name
		}
		return false
	})
}

func sec1(arr string, lo, hi *expr.Expr) *section.Section { return section.New(arr, lo, hi) }

// gatherSrc is the Fig. 14 example: indices of positive elements of x()
// are gathered into ind(); afterwards ind[1:q] is injective with values in
// [1:p].
const gatherSrc = `
program gather
  param nmax = 100
  integer n, k, p, q, i, j, jj
  real x(nmax), y(nmax)
  real z(nmax, nmax)
  integer ind(nmax)
  do k = 1, n
    q = 0
    do i = 1, p
      if (x(i) > 0.0) then
        q = q + 1
        ind(q) = i
      end if
    end do
    do j = 1, q
      jj = ind(j)
      z(k, jj) = x(jj) * y(jj)
    end do
  end do
end
`

func TestGatherInjective(t *testing.T) {
	w := build(t, gatherSrc)
	// Query at the use site: jj = ind(j), section ind[1:q].
	use := w.assignTo("gather", "jj")
	prop := NewInjective("ind")
	sec := sec1("ind", expr.One, expr.Var("q"))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("ind[1:q] should be injective after the gathering loop")
	}
	if w.an.Stats.GatherHits == 0 {
		t.Error("expected the gathering-loop recogniser to fire")
	}
}

func TestGatherBounds(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	prop := NewBounds("ind")
	sec := sec1("ind", expr.One, expr.Var("q"))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("bounds of ind[1:q] should be derivable")
	}
	if prop.Lo == nil || !prop.Lo.Equal(expr.One) {
		t.Errorf("Lo = %v, want 1", prop.Lo)
	}
	if prop.Hi == nil || !prop.Hi.Equal(expr.Var("p")) {
		t.Errorf("Hi = %v, want p", prop.Hi)
	}
}

func TestGatherMonotonic(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	prop := NewMonotonic("ind")
	sec := sec1("ind", expr.One, expr.Var("q"))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("ind[1:q] should be monotonic")
	}
	if !prop.Strict {
		t.Error("gathered indices are strictly increasing")
	}
}

func TestGatherKilledByInterveningWrite(t *testing.T) {
	src := `
program gatherkill
  param nmax = 100
  integer n, p, q, i, j, jj
  real x(nmax)
  integer ind(nmax)
  q = 0
  do i = 1, p
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
  ind(1) = 7
  do j = 1, q
    jj = ind(j)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("gatherkill", "jj")
	if w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Error("the write ind(1)=7 must kill injectivity")
	}
}

func TestGatherKilledByCounterModification(t *testing.T) {
	src := `
program ctrmod
  param nmax = 100
  integer n, p, q, i, j, jj
  real x(nmax)
  integer ind(nmax)
  q = 0
  do i = 1, p
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
  q = q + 1
  do j = 1, q
    jj = ind(j)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("ctrmod", "jj")
	if w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Error("modifying the counter between definition and use must kill the query")
	}
}

func TestGatherRequiresLoopIndexRHS(t *testing.T) {
	src := `
program notgather
  param nmax = 100
  integer n, p, q, i, j, jj
  real x(nmax)
  integer ind(nmax)
  q = 0
  do i = 1, p
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i + 1
    end if
  end do
  do j = 1, q
    jj = ind(j)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("notgather", "jj")
	if w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Error("rhs != loop index: not an index-gathering loop (condition 4)")
	}
}

// ccsSrc is Fig. 3 of the paper: offset() has closed-form distance
// length().
const ccsSrc = `
program ccs
  param nmax = 100
  integer n, i, j
  integer offset(nmax), length(nmax)
  real data(nmax)
  offset(1) = 1
  do i = 1, n
    offset(i + 1) = offset(i) + length(i)
  end do
  do i = 1, n
    do j = 1, length(i)
      data(offset(i) + j - 1) = 0.0
    end do
  end do
end
`

func TestClosedFormDistance(t *testing.T) {
	w := build(t, ccsSrc)
	// Use site: the data() assignment inside the traversal loop.
	use := w.assignTo("ccs", "data")
	prop := NewClosedFormDistance("offset")
	// Pairs [1:n]: offset(k+1) - offset(k) for k in [1:n].
	sec := sec1("offset", expr.One, expr.Var("n"))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("offset should have closed-form distance length()")
	}
	// Dist(k) must be length(k).
	want := expr.FromAST(&lang.ArrayRef{Name: "length", Args: []lang.Expr{&lang.Ident{Name: Formal}}})
	if prop.Dist == nil || !prop.Dist.Equal(want) {
		t.Errorf("Dist = %v, want length(%s)", prop.Dist, Formal)
	}
}

func TestClosedFormDistanceKilledByWrite(t *testing.T) {
	src := `
program ccsbad
  param nmax = 100
  integer n, i
  integer offset(nmax), length(nmax)
  real data(nmax)
  offset(1) = 1
  do i = 1, n
    offset(i + 1) = offset(i) + length(i)
  end do
  offset(3) = 99
  do i = 1, n
    data(offset(i)) = 0.0
  end do
end
`
	w := build(t, src)
	use := w.assignTo("ccsbad", "data")
	prop := NewClosedFormDistance("offset")
	if w.an.Verify(prop, use, sec1("offset", expr.One, expr.Var("n"))) {
		t.Error("offset(3)=99 must kill the distance property of pairs 2 and 3")
	}
}

func TestClosedFormDistanceKilledByDistArrayWrite(t *testing.T) {
	src := `
program distkill
  param nmax = 100
  integer n, i
  integer offset(nmax), length(nmax)
  real data(nmax)
  offset(1) = 1
  do i = 1, n
    offset(i + 1) = offset(i) + length(i)
  end do
  length(1) = 0
  do i = 1, n
    data(offset(i)) = 0.0
  end do
end
`
	w := build(t, src)
	use := w.assignTo("distkill", "data")
	prop := NewClosedFormDistance("offset")
	if w.an.Verify(prop, use, sec1("offset", expr.One, expr.Var("n"))) {
		t.Error("writing length() between definition and use must kill the derived distance")
	}
}

func TestClosedFormDistanceAccumulatorPattern(t *testing.T) {
	// §3.2.8 pattern (a): x(i) = t; t = t + y(i).
	src := `
program accum
  param nmax = 100
  integer n, i, t
  integer x(nmax), y(nmax)
  real data(nmax)
  t = 1
  do i = 1, n
    x(i) = t
    t = t + y(i)
  end do
  do i = 1, n
    data(x(i)) = 0.0
  end do
end
`
	w := build(t, src)
	use := w.assignTo("accum", "data")
	prop := NewClosedFormDistance("x")
	// Pairs [1:n-1].
	sec := sec1("x", expr.One, expr.Var("n").AddConst(-1))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("accumulator pattern should derive a closed-form distance")
	}
	want := expr.FromAST(&lang.ArrayRef{Name: "y", Args: []lang.Expr{&lang.Ident{Name: Formal}}})
	if prop.Dist == nil || !prop.Dist.Equal(want) {
		t.Errorf("Dist = %v, want y(%s)", prop.Dist, Formal)
	}
}

func TestClosedFormValueDerive(t *testing.T) {
	// TRFD-style triangular offsets: ia(i) = i*(i-1)/2.
	src := `
program trfdlike
  param nmax = 100
  integer n, i, v
  integer ia(nmax)
  do i = 1, n
    ia(i) = i * (i - 1) / 2
  end do
  do i = 1, n
    v = ia(i)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("trfdlike", "v")
	prop := NewClosedFormValue("ia")
	sec := sec1("ia", expr.One, expr.Var("n"))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("ia should have a derivable closed-form value")
	}
	if prop.Value == nil {
		t.Fatal("no value derived")
	}
	// Value at k=4 must be 4*3/2 = 6.
	at4 := prop.ValueAt(expr.Const(4))
	if c, ok := at4.IsConst(); !ok || c != 6 {
		t.Errorf("Value(4) = %v, want 6", at4)
	}
}

func TestClosedFormValueVerifyExpected(t *testing.T) {
	// Fig. 8: property given, two assignment sites, one matches one not.
	src := `
program fig8
  param nmax = 100
  integer n, i, v
  integer a(nmax)
  do i = 1, n
    a(i) = i * (i - 1) / 2
  end do
  a(n) = n * (n - 1) / 2
  do i = 1, n
    v = a(i)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("fig8", "v")
	prop := NewClosedFormValue("a")
	if !w.an.Verify(prop, use, sec1("a", expr.One, expr.Var("n"))) {
		t.Fatal("matching redundant assignment must not kill the property")
	}

	// Now a mismatching late assignment.
	src2 := `
program fig8b
  param nmax = 100
  integer n, i, v
  integer a(nmax)
  do i = 1, n
    a(i) = i * (i - 1) / 2
  end do
  a(1) = 5
  do i = 1, n
    v = a(i)
  end do
end
`
	w2 := build(t, src2)
	use2 := w2.assignTo("fig8b", "v")
	prop2 := NewClosedFormValue("a")
	if w2.an.Verify(prop2, use2, sec1("a", expr.One, expr.Var("n"))) {
		t.Error("a(1)=5 must kill the closed form for the queried section")
	}
}

func TestInterproceduralDefUse(t *testing.T) {
	// The index array is defined in one subroutine and used in another —
	// the paper's motivation for interprocedural analysis (§3).
	src := `
program interp
  param nmax = 100
  integer n, p, q, i, j, jj
  real x(nmax)
  integer ind(nmax)
  call define
  call use
end
subroutine define
  integer i
  q = 0
  do i = 1, p
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
end
subroutine use
  integer j
  do j = 1, q
    jj = ind(j)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("use", "jj")
	prop := NewBounds("ind")
	if !w.an.Verify(prop, use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Fatal("interprocedural gather definition should verify (call descent + query splitting)")
	}
	if prop.Hi == nil || !prop.Hi.Equal(expr.Var("p")) {
		t.Errorf("Hi = %v, want p", prop.Hi)
	}
}

func TestInterproceduralKill(t *testing.T) {
	src := `
program interpk
  param nmax = 100
  integer n, p, q, i, j, jj
  real x(nmax)
  integer ind(nmax)
  call define
  call spoil
  call use
end
subroutine define
  integer i
  q = 0
  do i = 1, p
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
end
subroutine spoil
  ind(1) = 0
end
subroutine use
  integer j
  do j = 1, q
    jj = ind(j)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("use", "jj")
	if w.an.Verify(NewBounds("ind"), use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Error("the spoiling call between define and use must kill the query")
	}
}

func TestUseInsideEnclosingLoop(t *testing.T) {
	// Case 2 of Fig. 7/10: the use is inside do k, the definition too;
	// the query must survive the loop-header propagation of do j and be
	// satisfied within the same iteration of do k.
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "z")
	prop := NewBounds("ind")
	// Query about a single element: ind(j).
	sec := section.Elem("ind", expr.Var("j"))
	if !w.an.Verify(prop, use, sec) {
		t.Fatal("single-element query inside the use loop should verify")
	}
}

func TestQuerySectionVariableKilledInLoop(t *testing.T) {
	// The section bound q is itself recomputed in every iteration of the
	// enclosing loop BEFORE the definition; from inside the use loop the
	// query must still verify (same-iteration definition).
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	if !w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Fatal("per-iteration gather then use should verify")
	}
}

func TestConditionalDefinitionFails(t *testing.T) {
	// The gathering loop runs only conditionally: the definition does
	// not dominate the use, so the query must fail.
	src := `
program conddef
  param nmax = 100
  integer n, p, q, i, j, jj, flag
  real x(nmax)
  integer ind(nmax)
  q = 0
  if (flag > 0) then
    do i = 1, p
      if (x(i) > 0.0) then
        q = q + 1
        ind(q) = i
      end if
    end do
  end if
  do j = 1, q
    jj = ind(j)
  end do
end
`
	w := build(t, src)
	use := w.assignTo("conddef", "jj")
	if w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q"))) {
		t.Error("conditional definition must not verify")
	}
}

func TestStatsAccounting(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	w.an.Verify(NewInjective("ind"), use, sec1("ind", expr.One, expr.Var("q")))
	if w.an.Stats.Queries != 1 {
		t.Errorf("queries = %d", w.an.Stats.Queries)
	}
	if w.an.Stats.NodesVisited == 0 {
		t.Error("no nodes visited?")
	}
}
