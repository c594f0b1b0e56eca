package deptest

import (
	"context"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/sem"
)

type world struct {
	t    *testing.T
	info *sem.Info
	an   *Analyzer
}

func build(t *testing.T, src string, withProp bool) *world {
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
	var prop *property.Analysis
	if withProp {
		hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
		prop = property.New(fc, hp)
	}
	return &world{t: t, info: info, an: New(fc, prop)}
}

// loopN returns the n-th top-level DO loop of the main unit.
func (w *world) loopN(n int) *lang.DoStmt {
	w.t.Helper()
	count := 0
	var found *lang.DoStmt
	lang.WalkStmts(w.info.Program.Main.Body, func(s lang.Stmt) bool {
		if found != nil {
			return false
		}
		if d, ok := s.(*lang.DoStmt); ok {
			if count == n {
				found = d
				return false
			}
			count++
		}
		return true
	})
	if found == nil {
		w.t.Fatalf("loop %d not found", n)
	}
	return found
}

func (w *world) analyze(loop *lang.DoStmt) map[string]*Verdict {
	return w.an.AnalyzeLoop(w.info.Program.Main, loop)
}

func TestAffineIndependent(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real a(nmax)
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
end
`
	w := build(t, src, false)
	vs := w.analyze(w.loopN(0))
	v := vs["a"]
	if v == nil || !v.Independent {
		t.Fatalf("a(i) self-update should be independent: %+v", v)
	}
}

func TestAffineDependent(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real a(nmax)
  do i = 1, n
    a(i) = a(i - 1) + 1.0
  end do
end
`
	w := build(t, src, false)
	v := w.analyze(w.loopN(0))["a"]
	if v == nil || v.Independent {
		t.Fatalf("recurrence must be dependent: %+v", v)
	}
}

func TestGCDTest(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real a(nmax)
  do i = 1, n
    a(2 * i) = a(2 * i - 1) + 1.0
  end do
end
`
	w := build(t, src, false)
	v := w.analyze(w.loopN(0))["a"]
	if v == nil || !v.Independent {
		t.Fatalf("even/odd split should be independent: %+v", v)
	}
	if v.Test != TestAffine {
		t.Errorf("test = %q, want affine (GCD)", v.Test)
	}
}

func TestStridedWindows(t *testing.T) {
	// a(3*i) write vs a(3*i+1) read: windows [3i, 3i+1] separated.
	src := `
program p
  param nmax = 300
  integer n, i
  real a(nmax)
  do i = 1, n
    a(3 * i) = a(3 * i + 1)
  end do
end
`
	w := build(t, src, false)
	v := w.analyze(w.loopN(0))["a"]
	if v == nil || !v.Independent {
		t.Fatalf("strided disjoint accesses should be independent: %+v", v)
	}
}

func TestMultiDimOuterIndex(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i, j
  real z(nmax, nmax)
  do i = 1, n
    do j = 1, n
      z(i, j) = z(i, j) * 2.0
    end do
  end do
end
`
	w := build(t, src, false)
	v := w.analyze(w.loopN(0))["z"]
	if v == nil || !v.Independent {
		t.Fatalf("row-distinct accesses should be independent: %+v", v)
	}
}

func TestInnerLoopWindow(t *testing.T) {
	// Blocked access: a(n*i + j), j in [1:n]: windows [n*i+1, n*i+n]
	// cannot be proven separated without knowing n's sign... with the
	// assumption n >= 1 (loop executes), windows separate.
	src := `
program p
  param nmax = 10000
  integer n, i, j
  real a(nmax)
  do i = 1, n
    do j = 1, n
      a(n * i + j) = 1.0
    end do
  end do
end
`
	w := build(t, src, false)
	loop := w.loopN(0)
	v := w.analyze(loop)["a"]
	if v == nil || v.Independent {
		t.Fatalf("without sign knowledge of n this must stay dependent: %+v", v)
	}
	// Granted n >= 1, the windows [n*i+1 : n*i+n] of different iterations
	// are separated.
	sub := expr.Var("n").Mul(expr.Var("i")).Add(expr.Var("j"))
	env := expr.Env{"j": expr.NewRange(expr.One, expr.Var("n"))}
	if !w.an.windowsSeparated(sub, sub, "i", env, env, expr.Assumptions{"n": expr.GT0}) {
		t.Fatal("with n >= 1 the blocks are disjoint")
	}
}

// dyfesmSrc reproduces the Fig. 13 loop from DYFESM's SOLXDD: the
// offset–length test must disprove the dependence on x for the outer loop.
const dyfesmSrc = `
program dyfesm
  param nmax = 100
  param smax = 10000
  integer n, i, j, k
  integer pptr(nmax), iblen(nmax)
  real x(smax)
  integer t
  do i = 1, n
    iblen(i) = i
  end do
  pptr(1) = 1
  do i = 1, n
    pptr(i + 1) = pptr(i) + iblen(i)
  end do
  do i = 1, n
    do j = 2, iblen(i)
      do k = 1, j - 1
        x(pptr(i) + k - 1) = 0.0
      end do
    end do
    do j = 1, iblen(i) - 1
      do k = 1, j
        t = t + int(x(iblen(i) + pptr(i) + k - j - 1))
      end do
    end do
  end do
end
`

func TestOffsetLengthDYFESM(t *testing.T) {
	w := build(t, dyfesmSrc, true)
	loop := w.loopN(2) // the compute loop
	v := w.analyze(loop)["x"]
	if v == nil {
		t.Fatal("no verdict for x")
	}
	if !v.Independent {
		t.Fatalf("offset-length test should disprove the dependence: %+v", v)
	}
	if v.Test != TestOffsetLength {
		t.Errorf("test = %q, want offset-length", v.Test)
	}
	found := false
	for _, p := range v.Properties {
		if p == "closed-form-distance(pptr) = iblen(#k)" {
			found = true
		}
	}
	if !found {
		t.Errorf("properties: %v", v.Properties)
	}
}

func TestOffsetLengthFailsWithoutProp(t *testing.T) {
	w := build(t, dyfesmSrc, false)
	loop := w.loopN(2)
	v := w.analyze(loop)["x"]
	if v == nil || v.Independent {
		t.Fatalf("without property analysis the loop must stay dependent: %+v", v)
	}
}

func TestOffsetLengthKilledDistance(t *testing.T) {
	// pptr is overwritten between definition and use.
	src := `
program dyfesmk
  param nmax = 100
  param smax = 10000
  integer n, i, j
  integer pptr(nmax), iblen(nmax)
  real x(smax)
  pptr(1) = 1
  do i = 1, n
    pptr(i + 1) = pptr(i) + iblen(i)
  end do
  pptr(2) = 1
  do i = 1, n
    do j = 1, iblen(i)
      x(pptr(i) + j - 1) = 0.0
    end do
  end do
end
`
	w := build(t, src, true)
	loop := w.loopN(1)
	v := w.analyze(loop)["x"]
	if v == nil || v.Independent {
		t.Fatalf("clobbered offset array must stay dependent: %+v", v)
	}
}

func TestInjectiveTest(t *testing.T) {
	src := `
program inj
  param nmax = 100
  integer n, p, q, i, j
  real x(nmax), y(nmax)
  integer ind(nmax)
  q = 0
  do i = 1, p
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
  do j = 1, q
    y(ind(j)) = y(ind(j)) + 1.0
  end do
end
`
	w := build(t, src, true)
	loop := w.loopN(1)
	v := w.analyze(loop)["y"]
	if v == nil || !v.Independent {
		t.Fatalf("injective subscripts should be independent: %+v", v)
	}
	if v.Test != TestInjective {
		t.Errorf("test = %q, want injective", v.Test)
	}
}

func TestInjectiveFailsWithoutGather(t *testing.T) {
	src := `
program noinj
  param nmax = 100
  integer n, q, j
  real y(nmax)
  integer ind(nmax)
  do j = 1, q
    y(ind(j)) = y(ind(j)) + 1.0
  end do
end
`
	w := build(t, src, true)
	v := w.analyze(w.loopN(0))["y"]
	if v == nil || v.Independent {
		t.Fatalf("unproven index array must stay dependent: %+v", v)
	}
}

func TestCFVTest(t *testing.T) {
	// TRFD-like: ia(i) = i*(i-1)/2 is strictly increasing with gaps >=
	// the inner extent, so x(ia(i)+j) windows are disjoint.
	src := `
program trfd
  param nmax = 50
  param smax = 10000
  integer n, i, j
  integer ia(nmax)
  real x(smax)
  do i = 1, n
    ia(i) = i * (i - 1) / 2
  end do
  do i = 1, n
    do j = 1, i
      x(ia(i) + j) = 1.0
    end do
  end do
end
`
	w := build(t, src, true)
	loop := w.loopN(1)
	v := w.analyze(loop)["x"]
	if v == nil || !v.Independent {
		t.Fatalf("closed-form value substitution should disprove the dependence: %+v", v)
	}
	if v.Test != TestCFV {
		t.Errorf("test = %q, want closed-form", v.Test)
	}
}

func TestCallMakesUnanalyzable(t *testing.T) {
	src := `
program withcall
  param nmax = 100
  integer n, i
  real a(nmax)
  do i = 1, n
    a(i) = 0.0
    call touch
  end do
end
subroutine touch
  a(1) = 1.0
end
`
	w := build(t, src, false)
	v := w.analyze(w.loopN(0))["a"]
	if v == nil || v.Independent {
		t.Fatalf("array modified by a callee must stay dependent: %+v", v)
	}
}

func TestReadOnlyArrayOmitted(t *testing.T) {
	src := `
program ro
  param nmax = 100
  integer n, i
  real a(nmax), b(nmax)
  do i = 1, n
    a(i) = b(i)
  end do
end
`
	w := build(t, src, false)
	vs := w.analyze(w.loopN(0))
	if _, present := vs["b"]; present {
		t.Error("read-only arrays need no verdict")
	}
	if v := vs["a"]; v == nil || !v.Independent {
		t.Errorf("a: %+v", v)
	}
}
