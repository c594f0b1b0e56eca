package privatize

import (
	"context"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/property"
	"repro/internal/dataflow"
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

// outerLoop returns the first top-level DO loop of main.
func (w *world) outerLoop() *lang.DoStmt {
	w.t.Helper()
	for _, s := range w.info.Program.Main.Body {
		if d, ok := s.(*lang.DoStmt); ok {
			return d
		}
	}
	w.t.Fatal("no top-level loop")
	return nil
}

// analyze decides every array written in the outer loop.
func (w *world) analyze() map[string]*Result {
	u, loop := w.info.Program.Main, w.outerLoop()
	return w.an.AnalyzeLoop(u, loop, w.an.Facts.StmtsMod(loop.Body).SortedArrays())
}

func TestAffinePrivatizable(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, m, i, j
  real tmp(nmax), a(nmax, nmax), s
  do i = 1, n
    do j = 1, m
      tmp(j) = a(i, j) * 2.0
    end do
    do j = 1, m
      s = s + tmp(j)
    end do
  end do
end
`
	w := build(t, src, false)
	r := w.analyze()["tmp"]
	if r == nil || !r.Private {
		t.Fatalf("tmp should be privatizable: %+v", r)
	}
	if r.Reason != ReasonAffine {
		t.Errorf("reason = %s, want affine", r.Reason)
	}
	if r.LiveOut {
		t.Error("tmp is not read after the loop")
	}
}

func TestUpwardExposedRead(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, m, i, j
  real tmp(nmax), s
  do i = 1, n
    do j = 1, m
      s = s + tmp(j)
    end do
    do j = 1, m
      tmp(j) = s
    end do
  end do
end
`
	w := build(t, src, false)
	r := w.analyze()["tmp"]
	if r == nil || r.Private {
		t.Fatalf("read-before-write must not privatize: %+v", r)
	}
}

func TestPartialWriteExposed(t *testing.T) {
	// Writes [1:m], reads [1:m+1]: the last element is exposed.
	src := `
program p
  param nmax = 100
  integer n, m, i, j
  real tmp(nmax), s
  do i = 1, n
    do j = 1, m
      tmp(j) = s
    end do
    do j = 1, m + 1
      s = s + tmp(j)
    end do
  end do
end
`
	w := build(t, src, false)
	r := w.analyze()["tmp"]
	if r == nil || r.Private {
		t.Fatalf("partially covered reads must not privatize: %+v", r)
	}
}

// figure1a: x() is written consecutively in the while loop and read in the
// following do j loop; the CW analysis makes x privatizable for do k.
const figure1a = `
program fig1a
  param nmax = 100
  integer n, k, i, j, p
  integer link(nmax, nmax)
  integer cond(nmax, nmax)
  real x(nmax), y(nmax), z(nmax, nmax)
  do k = 1, n
    p = 0
    i = link(1, k)
    do while (i != 0)
      p = p + 1
      x(p) = y(i)
      i = link(i, k)
      if (cond(k, i) != 0) then
        if (p >= 1) then
          x(p) = y(i)
        end if
      end if
    end do
    do j = 1, p
      z(k, j) = x(j)
    end do
  end do
end
`

func TestFigure1aCWPrivatization(t *testing.T) {
	w := build(t, figure1a, true)
	r := w.analyze()["x"]
	if r == nil || !r.Private {
		t.Fatalf("x should be privatizable via CW: %+v", r)
	}
	if r.Reason != ReasonCW {
		t.Errorf("reason = %s, want consecutively-written", r.Reason)
	}
	// z is written at z(k, j) with k the loop variable: distinct rows per
	// iteration — z is not privatizable (and needs none); it must simply
	// not be "private".
	if rz := w.analyze()["z"]; rz != nil && rz.Private {
		t.Errorf("z should not be private: %+v", rz)
	}
}

func TestFigure1aWithoutCWEntryValue(t *testing.T) {
	// Same loop but p is not reset inside the iteration: the write
	// section is unknown and the do j read is exposed.
	src := `
program fig1x
  param nmax = 100
  integer n, k, i, j, p
  integer link(nmax, nmax)
  real x(nmax), y(nmax), z(nmax, nmax)
  p = 0
  do k = 1, n
    i = link(1, k)
    do while (i != 0)
      p = p + 1
      x(p) = y(i)
      i = link(i, k)
    end do
    do j = 1, p
      z(k, j) = x(j)
    end do
  end do
end
`
	w := build(t, src, true)
	r := w.analyze()["x"]
	if r == nil || r.Private {
		t.Fatalf("without a per-iteration reset the section is unknown: %+v", r)
	}
}

// stackSrc: t() used as a stack in the body of do i (Figure 1(b) shape).
const stackSrc = `
program stacky
  param nmax = 100
  integer n, m, i, j, p
  real t(nmax), a(nmax), b(nmax)
  do i = 1, n
    p = 0
    do j = 1, m
      if (a(j) > 0.0) then
        p = p + 1
        t(p) = a(j)
      else
        if (p >= 1) then
          b(j) = t(p)
          p = p - 1
        end if
      end if
    end do
  end do
end
`

func TestStackPrivatization(t *testing.T) {
	w := build(t, stackSrc, true)
	r := w.analyze()["t"]
	if r == nil || !r.Private {
		t.Fatalf("array stack should be privatizable: %+v", r)
	}
	if r.Reason != ReasonStack {
		t.Errorf("reason = %s, want stack", r.Reason)
	}
}

// gatherSrc is Fig. 14: x privatization needs the bounds of ind.
const gatherSrc = `
program gather
  param nmax = 100
  integer n, k, p, q, i, j, jj
  real x(nmax), y(nmax)
  real z(nmax, nmax)
  integer ind(nmax)
  do k = 1, n
    do i = 1, p
      x(i) = y(i) + real(k)
    end do
    q = 0
    do i = 1, p
      if (y(i) > 0.0) then
        q = q + 1
        ind(q) = i
      end if
    end do
    do j = 1, q
      jj = ind(j)
      z(k, ind(j)) = x(ind(j)) * y(ind(j))
    end do
  end do
end
`

func TestIndirectReadPrivatization(t *testing.T) {
	w := build(t, gatherSrc, true)
	r := w.analyze()["x"]
	if r == nil || !r.Private {
		t.Fatalf("x should be privatizable via indirect bounds: %+v", r)
	}
	if r.Reason != ReasonIndirect {
		t.Errorf("reason = %s, want indirect-bounds", r.Reason)
	}
	if len(r.Properties) == 0 {
		t.Error("expected a bounds property in the evidence")
	}
	// ind itself is written consecutively: also privatizable.
	ri := w.analyze()["ind"]
	if ri == nil || !ri.Private || ri.Reason != ReasonCW {
		t.Errorf("ind should be CW-private: %+v", ri)
	}
}

func TestIndirectReadFailsWithoutProp(t *testing.T) {
	w := build(t, gatherSrc, false)
	r := w.analyze()["x"]
	if r == nil || r.Private {
		t.Fatalf("without property analysis x must not be privatizable: %+v", r)
	}
}

func TestCallBlocksPrivatization(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real tmp(nmax)
  do i = 1, n
    tmp(1) = 0.0
    call helper
  end do
end
subroutine helper
  tmp(2) = 1.0
end
`
	w := build(t, src, false)
	r := w.analyze()["tmp"]
	if r == nil || r.Private {
		t.Fatalf("callee writes must block privatization: %+v", r)
	}
}

// TestLiveOutDetection checks LiveOut for a privatizable tmp read after
// the loop, read only in an ELSEIF condition after it, or not read
// outside the loop body at all.
func TestLiveOutDetection(t *testing.T) {
	for after, want := range map[string]bool{
		"  s = tmp(1)\n": true,
		"  if (s > 1.0) then\n    s = 0.0\n  else if (tmp(1) > 0.0) then\n    s = 1.0\n  end if\n": true,
		"  s = 1.0\n": false,
	} {
		src := `
program p
  param nmax = 100
  integer n, m, i, j
  real tmp(nmax), s
  do i = 1, n
    do j = 1, m
      tmp(j) = real(i)
    end do
  end do
` + after + "end\n"
		w := build(t, src, false)
		r := w.analyze()["tmp"]
		if r == nil || !r.Private {
			t.Fatalf("tmp should be privatizable: %+v", r)
		}
		if r.LiveOut != want {
			t.Errorf("after the loop:\n%sLiveOut = %v, want %v", after, r.LiveOut, want)
		}
	}
}

func TestConditionalWriteNotCovering(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, m, i, j
  real tmp(nmax), a(nmax), s
  do i = 1, n
    do j = 1, m
      if (a(j) > 0.0) then
        tmp(j) = a(j)
      end if
    end do
    do j = 1, m
      s = s + tmp(j)
    end do
  end do
end
`
	w := build(t, src, false)
	r := w.analyze()["tmp"]
	if r == nil || r.Private {
		t.Fatalf("conditional writes must not cover the reads: %+v", r)
	}
}

func TestBothBranchesCover(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, m, i, j
  real tmp(nmax), a(nmax), s
  do i = 1, n
    do j = 1, m
      if (a(j) > 0.0) then
        tmp(j) = a(j)
      else
        tmp(j) = 0.0
      end if
    end do
    do j = 1, m
      s = s + tmp(j)
    end do
  end do
end
`
	w := build(t, src, false)
	r := w.analyze()["tmp"]
	if r == nil || !r.Private {
		t.Fatalf("writes on all branches must cover: %+v", r)
	}
}

func TestCalleeReadOfUnresolvedArray(t *testing.T) {
	// An array reference built by hand after the check has slot 0 until
	// Info.CheckStmt checks its statement: no variable, so no symbol to
	// ask whether it is global.
	src := `
program p
  param nmax = 100
  integer n, i
  real tmp(nmax), s
  do i = 1, n
    tmp(i) = 1.0
    call q
  end do
end
subroutine q
  s = s + tmp(1)
end
`
	w := build(t, src, false)
	lang.WalkStmts(w.info.Program.Unit("q").Body, func(st lang.Stmt) bool {
		lang.StmtExprs(st, func(e lang.Expr) {
			lang.WalkExpr(e, func(x lang.Expr) bool {
				if r, ok := x.(*lang.ArrayRef); ok {
					r.Slot = 0
				}
				return true
			})
		})
		return true
	})
	if r := w.analyze()["tmp"]; r == nil {
		t.Fatal("tmp is written in the loop and gets a result")
	}
}
