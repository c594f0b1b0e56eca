package singleindex

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// harness compiles a source and returns the analysis context for the
// requested loop. which selects the n-th natural loop in node-ID order.
type harness struct {
	fc   *dataflow.Context
	g    *cfg.Graph
	loop *cfg.Loop
}

func newHarness(t *testing.T, src string, which int) *harness {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	g := cfg.Build(prog.Main)
	loops := g.NaturalLoops()
	if which >= len(loops) {
		t.Fatalf("loop %d not found (%d loops)", which, len(loops))
	}
	return &harness{fc: dataflow.NewContext(info), g: g, loop: loops[which]}
}

func (h *harness) find() []*Access {
	return Find(h.fc, h.g, h.loop)
}

func (h *harness) access(t *testing.T, array string) *Access {
	t.Helper()
	for _, a := range h.find() {
		if a.Array == array {
			return a
		}
	}
	t.Fatalf("array %q not single-indexed in loop; found %v", array, h.find())
	return nil
}

// figure1a is the motivating example of the paper: x() is single-indexed by
// p inside the while loop and consecutively written.
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

func TestFigure1aConsecutivelyWritten(t *testing.T) {
	// Loop 1 in node-ID order is the while loop (0 is do k).
	h := newHarness(t, figure1a, 1)
	if _, ok := h.loop.Stmt.(*lang.WhileStmt); !ok {
		t.Fatalf("expected the while loop, got %v", h.loop.Stmt)
	}
	acc := h.access(t, "x")
	if acc.Index != "p" {
		t.Fatalf("index = %q, want p", acc.Index)
	}
	if got := acc.ClassifyEvolution(); got != EvolMonotonicInc {
		t.Fatalf("evolution = %v", got)
	}
	cw := CheckConsecutivelyWritten(acc)
	if cw == nil {
		t.Fatal("x should be consecutively written in the while loop")
	}
	if !cw.Increasing {
		t.Error("should be increasing order")
	}
	if !cw.ReadsCovered {
		t.Error("x is never read in the while loop, so reads are trivially covered")
	}
}

func TestCWFailsWithConditionalWrite(t *testing.T) {
	// The write is conditional: a path from one p=p+1 to the next without
	// writing x exists, so x has holes.
	src := `
program holes
  integer n, i, p
  real x(100), y(100)
  p = 0
  do i = 1, n
    p = p + 1
    if (y(i) > 0.0) then
      x(p) = y(i)
    end if
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	if cw := CheckConsecutivelyWritten(acc); cw != nil {
		t.Error("conditional write must not be consecutively written")
	}
}

func TestCWFailsWhenIndexJumps(t *testing.T) {
	src := `
program jumps
  integer n, i, p
  real x(100), y(100)
  p = 0
  do i = 1, n
    p = p + 2
    x(p) = y(i)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	if acc.ClassifyEvolution() != EvolUnknown {
		t.Errorf("p = p + 2 should be an unknown evolution, got %v", acc.ClassifyEvolution())
	}
	if cw := CheckConsecutivelyWritten(acc); cw != nil {
		t.Error("stride-2 index must not be consecutively written")
	}
}

func TestCWDecreasing(t *testing.T) {
	src := `
program dec
  integer n, i, p
  real x(100), y(100)
  p = n + 1
  do i = 1, n
    p = p - 1
    x(p) = y(i)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	cw := CheckConsecutivelyWritten(acc)
	if cw == nil {
		t.Fatal("decreasing fill should be consecutively written")
	}
	if cw.Increasing {
		t.Error("order should be decreasing")
	}
}

func TestCWFailsOnTailHole(t *testing.T) {
	// The loop can exit right after the increment, before the write:
	// the final element may be missing, so the strict test fails.
	src := `
program tail
  integer n, i, p
  real x(100), y(100)
  p = 0
  do i = 1, n
    p = p + 1
    if (i == n) goto 10
    x(p) = y(i)
10  continue
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	if cw := CheckConsecutivelyWritten(acc); cw != nil {
		t.Error("path increment→exit without write must fail the strict test")
	}
}

func TestCWReadsCoveredDetection(t *testing.T) {
	// x(p) is read after being written in the same iteration: covered.
	src := `
program rw
  integer n, i, p
  real x(100), y(100), s
  p = 0
  do i = 1, n
    p = p + 1
    x(p) = y(i)
    s = s + x(p)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	cw := CheckConsecutivelyWritten(acc)
	if cw == nil {
		t.Fatal("should be consecutively written")
	}
	if !cw.ReadsCovered {
		t.Error("read after write of the same element should be covered")
	}
}

func TestCWReadNotCovered(t *testing.T) {
	// x(p) is read before the write: upward exposed.
	src := `
program rbw
  integer n, i, p
  real x(100), y(100), s
  p = 0
  do i = 1, n
    p = p + 1
    s = s + x(p)
    x(p) = y(i)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	cw := CheckConsecutivelyWritten(acc)
	if cw == nil {
		t.Fatal("the write pattern itself is consecutive")
	}
	if cw.ReadsCovered {
		t.Error("read before write must not be covered")
	}
}

// stackSrc is an array-stack in the style of Figure 1(b): t() is used as a
// stack inside the body of the do i loop, reset at the top of each
// iteration.
const stackSrc = `
program stacky
  integer n, m, i, j, p
  real t(100), a(100), b(100)
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

func TestStackAccess(t *testing.T) {
	h := newHarness(t, stackSrc, 0) // outer do i loop
	if ds, ok := h.loop.Stmt.(*lang.DoStmt); !ok || ds.Var.Name != "i" {
		t.Fatalf("expected do i loop, got %v", h.loop.Stmt)
	}
	acc := h.access(t, "t")
	if got := acc.ClassifyEvolution(); got != EvolNonMonotonic {
		t.Fatalf("evolution = %v, want non-monotonic", got)
	}
	st := CheckStack(acc)
	if st == nil {
		t.Fatal("t should be recognised as an array stack")
	}
	if lit, ok := st.Bottom.(*lang.IntLit); !ok || lit.Value != 0 {
		t.Errorf("bottom = %v, want 0", st.Bottom)
	}
	if !st.ResetFirst {
		t.Error("p is reset at the top of each iteration")
	}
}

func TestStackRejectsWriteAfterPop(t *testing.T) {
	// Writing the top right after a pop violates Table 1 (row for pop:
	// a write fails the search).
	src := `
program bad
  integer n, i, p
  real t(100), a(100)
  do i = 1, n
    p = 0
    p = p + 1
    t(p) = a(i)
    p = p - 1
    t(p) = a(i)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "t")
	if st := CheckStack(acc); st != nil {
		t.Error("write directly after pop must fail")
	}
}

func TestStackRejectsDoublePop(t *testing.T) {
	src := `
program bad2
  integer n, i, p
  real t(100), a(100), s
  do i = 1, n
    p = 0
    p = p + 1
    t(p) = a(i)
    s = s + t(p)
    p = p - 1
    p = p - 1
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "t")
	if st := CheckStack(acc); st != nil {
		t.Error("two pops without an intervening push/read must fail")
	}
}

func TestStackRejectsTwoBottoms(t *testing.T) {
	src := `
program bad3
  integer n, i, p
  real t(100), a(100)
  do i = 1, n
    if (a(i) > 0.0) then
      p = 0
    else
      p = 1
    end if
    p = p + 1
    t(p) = a(i)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "t")
	if st := CheckStack(acc); st != nil {
		t.Error("two different bottom values must fail")
	}
}

func TestStackResetNotFirst(t *testing.T) {
	// The reset exists but a push can occur before it on some path.
	src := `
program bad4
  integer n, i, p
  real t(100), a(100)
  do i = 1, n
    if (a(i) > 0.0) then
      p = p + 1
      t(p) = a(i)
    end if
    p = 0
    p = p + 1
    t(p) = a(i)
  end do
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "t")
	st := CheckStack(acc)
	if st == nil {
		t.Fatal("the Table 1 order itself holds here")
	}
	if st.ResetFirst {
		t.Error("reset does not dominate the stack operations")
	}
}

func TestFindRejectsMixedSubscripts(t *testing.T) {
	src := `
program mixed
  integer n, i, p
  real x(100)
  p = 0
  do i = 1, n
    p = p + 1
    x(p) = x(i)
  end do
end
`
	h := newHarness(t, src, 0)
	for _, a := range h.find() {
		if a.Array == "x" {
			t.Error("x is subscripted by both p and i; not single-indexed")
		}
	}
}

func TestFindRejectsExprSubscript(t *testing.T) {
	src := `
program exprsub
  integer n, i, p
  real x(100), y(100)
  p = 0
  do i = 1, n
    p = p + 1
    x(p + 1) = y(i)
  end do
end
`
	h := newHarness(t, src, 0)
	for _, a := range h.find() {
		if a.Array == "x" {
			t.Error("x(p+1) is not a single-indexed access")
		}
	}
}

func TestIndexModifiedByCallDisqualifies(t *testing.T) {
	src := `
program withcall
  integer n, i, p
  real x(100), y(100)
  p = 0
  do i = 1, n
    p = p + 1
    x(p) = y(i)
    call bump
  end do
end
subroutine bump
  p = p + 3
end
`
	h := newHarness(t, src, 0)
	acc := h.access(t, "x")
	if acc.ClassifyEvolution() != EvolUnknown {
		t.Errorf("call modifying p should make evolution unknown, got %v", acc.ClassifyEvolution())
	}
	if cw := CheckConsecutivelyWritten(acc); cw != nil {
		t.Error("CW must fail when a call modifies the index")
	}
}

func TestGotoFormedLoopCW(t *testing.T) {
	// A goto-formed loop (like P3M's PP/goto10) with a consecutively
	// written gather array.
	src := `
program gotoloop
  integer n, i, p
  real x(100), y(100)
  p = 0
  i = 0
10 continue
  i = i + 1
  p = p + 1
  x(p) = y(i)
  if (i < n) goto 10
end
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog.Main)
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("want 1 goto loop, got %d", len(loops))
	}
	accs := Find(dataflow.NewContext(info), g, loops[0])
	var xAcc *Access
	for _, a := range accs {
		if a.Array == "x" {
			xAcc = a
		}
	}
	if xAcc == nil {
		t.Fatal("x not found as single-indexed in the goto loop")
	}
	if cw := CheckConsecutivelyWritten(xAcc); cw == nil {
		t.Error("x should be consecutively written in the goto loop")
	}
}

// --- Table 1 row-by-row coverage --------------------------------------------

// table1Program wraps a loop body using t()/p so each ordering violation
// can be probed in isolation.
func table1Check(t *testing.T, body string) *StackResult {
	t.Helper()
	src := `
program t1
  param m = 50
  integer n, i, p
  real t(m), a(m), b(m), s
  do i = 1, n
    p = 0
` + body + `
  end do
end
`
	h := newHarness(t, src, 0)
	for _, a := range h.find() {
		if a.Array == "t" {
			return CheckStack(a)
		}
	}
	t.Fatal("t not single-indexed")
	return nil
}

func TestTable1RowPushRequiresWrite(t *testing.T) {
	// push → push without writing the top: row 1 failure.
	if st := table1Check(t, `
    p = p + 1
    p = p + 1
    t(p) = a(i)
`); st != nil {
		t.Error("push-push without write must fail")
	}
	// push → write: row 1 bound.
	if st := table1Check(t, `
    p = p + 1
    t(p) = a(i)
`); st == nil {
		t.Error("push-write must pass")
	}
}

func TestTable1RowReadRequiresPop(t *testing.T) {
	// read → read without popping: row 4 failure.
	if st := table1Check(t, `
    p = p + 1
    t(p) = a(i)
    s = s + t(p)
    s = s + t(p)
    p = p - 1
`); st != nil {
		t.Error("double read of the top must fail")
	}
	// read → pop: row 4 bound.
	if st := table1Check(t, `
    p = p + 1
    t(p) = a(i)
    s = s + t(p)
    p = p - 1
`); st == nil {
		t.Error("read-pop must pass")
	}
}

func TestTable1RowPopThenReset(t *testing.T) {
	// pop → reset is allowed (row 2 bound includes the reset).
	if st := table1Check(t, `
    p = p + 1
    t(p) = a(i)
    s = s + t(p)
    p = p - 1
    p = 0
    p = p + 1
    t(p) = a(i)
`); st == nil {
		t.Error("pop followed by reset must pass")
	}
}

func TestTable1RowWriteThenRead(t *testing.T) {
	// write → read (then pop) is the canonical produce/consume: allowed.
	if st := table1Check(t, `
    p = p + 1
    t(p) = a(i)
    b(i) = t(p)
    p = p - 1
`); st == nil {
		t.Error("write-read-pop must pass")
	}
	// write → write of the top: row 3 failure.
	if st := table1Check(t, `
    p = p + 1
    t(p) = a(i)
    t(p) = a(i) + 1.0
`); st != nil {
		t.Error("double write of the top must fail")
	}
}
