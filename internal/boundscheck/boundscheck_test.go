package boundscheck

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

func build(t *testing.T, src string, withProp bool) (*sem.Info, *Analyzer) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	var prop *property.Analysis
	if withProp {
		hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
		prop = property.New(dataflow.NewContext(info), hp)
	}
	return info, New(info, prop)
}

func TestAffineProven(t *testing.T) {
	src := `
program p
  param n = 50
  real a(n), b(n)
  integer i
  do i = 1, n
    a(i) = b(n + 1 - i)
  end do
  a(25) = 1.0
end
`
	_, an := build(t, src, false)
	res := an.Analyze()
	if res.Total != 3 {
		t.Fatalf("total = %d, want 3", res.Total)
	}
	if res.Proven != 3 {
		t.Errorf("proven = %d/%d, want all\n%s", res.Proven, res.Total, res.Summary())
	}
}

func TestOverflowNotProven(t *testing.T) {
	src := `
program p
  param n = 50
  real a(n)
  integer i
  do i = 1, n
    a(i + 1) = 0.0
  end do
end
`
	_, an := build(t, src, false)
	res := an.Analyze()
	if res.Proven != 0 {
		t.Errorf("a(i+1) can reach n+1; proven = %d", res.Proven)
	}
}

func TestUnknownScalarNotProven(t *testing.T) {
	src := `
program p
  param n = 50
  real a(n)
  integer k
  a(k) = 0.0
end
`
	_, an := build(t, src, false)
	res := an.Analyze()
	if res.Proven != 0 {
		t.Errorf("unbounded scalar subscript proven? %d", res.Proven)
	}
}

func TestIndirectProvenWithProperty(t *testing.T) {
	src := `
program p
  param n = 64
  integer ind(n)
  real x(n), y(n)
  integer i, j, q
  q = 0
  do i = 1, n
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
  do j = 1, q
    y(ind(j)) = x(ind(j))
  end do
end
`
	_, with := build(t, src, true)
	resWith := with.Analyze()
	_, without := build(t, src, false)
	resWithout := without.Analyze()
	if resWith.Proven <= resWithout.Proven {
		t.Errorf("property analysis should prove more: %d vs %d",
			resWith.Proven, resWithout.Proven)
	}
	// The indirect accesses y(ind(j)), x(ind(j)) must be among the newly
	// proven ones.
	if resWith.PerArray["y"] == 0 {
		t.Errorf("y(ind(j)) not proven: %s", resWith.Summary())
	}
}

func TestNegativeLowerBound(t *testing.T) {
	src := `
program p
  real a(0:9)
  integer i
  do i = 0, 9
    a(i) = 1.0
  end do
  do i = 1, 10
    a(i - 1) = 2.0
  end do
end
`
	_, an := build(t, src, false)
	res := an.Analyze()
	if res.Proven != res.Total {
		t.Errorf("custom lower bounds: proven %d/%d", res.Proven, res.Total)
	}
}

func TestEliminationSpeedsUpExecution(t *testing.T) {
	src := `
program p
  param n = 200
  real a(n), b(n)
  integer i, r
  do r = 1, 20
    do i = 1, n
      a(i) = b(i) * 0.5 + 1.0
    end do
  end do
end
`
	info, an := build(t, src, false)
	res := an.Analyze()
	if res.Proven == 0 {
		t.Fatal("nothing proven")
	}

	run := func(safe map[*lang.ArrayRef]bool) uint64 {
		in := interp.New(info, interp.Options{
			Machine:  machine.New(machine.Origin2000, 1),
			SafeRefs: safe,
		})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.Machine().Time()
	}
	checked := run(nil)
	unchecked := run(res.Safe)
	if unchecked >= checked {
		t.Errorf("elimination should reduce simulated time: %d vs %d", unchecked, checked)
	}
}

func TestWhileModifiedSubscriptNotProven(t *testing.T) {
	src := `
program p
  param n = 50
  real a(n)
  integer w
  w = n
  do while (w >= 1)
    a(w) = 1.0
    w = w - 1
  end do
end
`
	_, an := build(t, src, false)
	res := an.Analyze()
	// w is only known to start at n; inside the while it has no derived
	// range, so the access must stay checked.
	if res.Proven != 0 {
		t.Errorf("while-modified subscript proven? %d", res.Proven)
	}
}

// TestLocalShadowsGlobalParam checks that a unit's PARAM table holds the
// constants visible in that unit: a local scalar named like a global
// PARAM hides it, so a loop bounded by the local proves nothing, while
// the main program still substitutes the constant.
func TestLocalShadowsGlobalParam(t *testing.T) {
	src := `
program p
  param n = 50
  real a(n)
  integer i
  do i = 1, n
    a(i) = 0.0
  end do
  call s
end
subroutine s
  integer n, j
  n = 60
  do j = 1, n
    a(j) = 1.0
  end do
end
`
	info, an := build(t, src, false)
	res := an.Analyze()
	if res.Total != 2 || res.Proven != 1 {
		t.Fatalf("proven = %d/%d, want 1/2\n%s", res.Proven, res.Total, res.Summary())
	}
	var mainRef *lang.ArrayRef
	lang.WalkStmts(info.Program.Main.Body, func(s lang.Stmt) bool {
		if as, ok := s.(*lang.AssignStmt); ok {
			mainRef = as.Lhs.(*lang.ArrayRef)
		}
		return true
	})
	if !res.Safe[mainRef] {
		t.Error("main's a(i) under do i = 1, n is not proven: n was not substituted")
	}
}

func TestIndirectHullKeepsEveryAtom(t *testing.T) {
	// a(p(i) + p(j) + p(k)) subscripts p over [1:n], [1:m] and [1:n], and
	// no order between n and m is provable, so the index-array hull has
	// no upper bound. A hull that skips the unordered pair and keeps the
	// next atom's bound queries bounds(p) over [1:n] alone, where p is 1,
	// and proves the reference in a(3:100). But p(j) is 0 for j > 5, so
	// the subscript reaches 2. The atoms' order must not decide the
	// proof, so the analysis runs many times; the run must fault.
	src := `
program hull
  integer n, m, i, j, k
  integer p(40), q(2)
  real a(3:100)
  q(1) = 5
  q(2) = 30
  n = q(1)
  m = q(2)
  do i = 1, n
    p(i) = 1
  end do
  do i = 1, n
    do j = 1, m
      do k = 1, n
        a(p(i) + p(j) + p(k)) = 1.0
      end do
    end do
  end do
end
`
	for run := 0; run < 32; run++ {
		info, an := build(t, src, true)
		res := an.Analyze()
		for ref := range res.Safe {
			if ref.Name == "a" {
				t.Fatalf("run %d: a(%s) proven in bounds, but its subscript reaches 2", run, lang.FormatExpr(ref.Args[0]))
			}
		}
		in := interp.New(info, interp.Options{
			Machine:  machine.New(machine.Origin2000, 1),
			SafeRefs: res.Safe,
		})
		var re *interp.RuntimeError
		if err := in.Run(); !errors.As(err, &re) || !strings.Contains(re.Msg, "out of bounds") {
			t.Fatalf("run %d: got %v, want the out-of-bounds runtime error", run, err)
		}
	}
}

func TestIndirectBoundsFollowCoefficientSign(t *testing.T) {
	// a(p(i + 1) - p(i)) with bounds(p) = [1:10] lies in [-9:9]. Putting
	// p's lower bound into both atoms of the low end and its upper bound
	// into both of the high end bounds it to the point [0:0] and proves
	// the reference in a(0:0). But p(i + 1) - p(i) is 1.
	src := `
program sign
  integer i
  integer p(10)
  real a(0:0)
  do i = 1, 10
    p(i) = i
  end do
  do i = 1, 9
    a(p(i + 1) - p(i)) = 1.0
  end do
end
`
	info, an := build(t, src, true)
	res := an.Analyze()
	for ref := range res.Safe {
		if ref.Name == "a" {
			t.Fatalf("a(%s) proven in bounds, but its subscript is 1", lang.FormatExpr(ref.Args[0]))
		}
	}
	in := interp.New(info, interp.Options{
		Machine:  machine.New(machine.Origin2000, 1),
		SafeRefs: res.Safe,
	})
	var re *interp.RuntimeError
	if err := in.Run(); !errors.As(err, &re) || !strings.Contains(re.Msg, "out of bounds") {
		t.Fatalf("got %v, want the out-of-bounds runtime error", err)
	}
}

func TestIndirectBoundsStaleSectionBound(t *testing.T) {
	// p(1:cnt(1)) = 3 is filled while cnt(1) is 5; then cnt(1) = 20, and
	// the loop reads p(6:20), which are 0. A query's section bounds depend
	// on every scalar and every array they read, so the query for
	// bounds(p) over [1:cnt(1)] dies at the write of cnt(1), and the check
	// on x(p(i)) stays.
	src := `program t
  integer p(20), cnt(1), i
  real x(20)
  cnt(1) = 5
  do i = 1, cnt(1)
    p(i) = 3
  end do
  cnt(1) = 20
  do i = 1, cnt(1)
    x(p(i)) = real(i)
  end do
  print "x", x(3)
end
`
	info, an := build(t, src, true)
	res := an.Analyze()
	for ref := range res.Safe {
		if ref.Name == "x" && len(ref.Args) == 1 && lang.FormatExpr(ref.Args[0]) == "p(i)" {
			t.Fatal("x(p(i)) proven in bounds, but p(6:20) are 0")
		}
	}
	in := interp.New(info, interp.Options{
		Machine:  machine.New(machine.Origin2000, 1),
		SafeRefs: res.Safe,
	})
	const want = `10:5: runtime error: subscript 1 of "x" out of bounds: 0 not in [1:20]`
	if err := in.Run(); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}
