package passes

import (
	"strings"
	"testing"

	"repro/internal/deptest"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

func interchangeWorld(t *testing.T, src string) *deptest.Analyzer {
	t.Helper()
	_, fc := compile(t, src)
	return deptest.New(fc, nil)
}

func TestInterchangeColumnSweep(t *testing.T) {
	// m(i, j) with j outer: the contiguous first subscript varies in the
	// OUTER loop — interchange makes it the inner one.
	src := `
program p
  param n = 24
  real m(n, n)
  integer i, j
  do j = 1, n
    do i = 1, n
      m(i, j) = real(i + j)
    end do
  end do
end
`
	// Pre-swap so the bad order is present: write the nest with j outer
	// indexing the SECOND dim... the source above already has j outer and
	// m(i, j): first subscript i is the INNER var — already stride-1, no
	// interchange expected.
	dep := interchangeWorld(t, src)
	if n := InterchangeLoops(dep); n != 0 {
		t.Fatalf("already-optimal nest interchanged %d times", n)
	}

	// Now the transposed access: i outer, m(i, j) — first subscript uses
	// the outer var: interchange expected.
	src2 := `
program p
  param n = 24
  real m(n, n)
  integer i, j
  do i = 1, n
    do j = 1, n
      m(i, j) = real(i + j)
    end do
  end do
end
`
	dep2 := interchangeWorld(t, src2)
	prog2 := dep2.Facts.Info.Program
	if n := InterchangeLoops(dep2); n != 1 {
		t.Fatalf("expected 1 interchange, got %d\n%s", n, lang.Format(prog2))
	}
	text := lang.Format(prog2)
	// After the swap, j is the outer loop.
	jPos := strings.Index(text, "do j")
	iPos := strings.Index(text, "do i")
	if jPos < 0 || iPos < 0 || jPos > iPos {
		t.Errorf("loops not swapped:\n%s", text)
	}
}

func TestInterchangeIllegalRecurrence(t *testing.T) {
	// m(i, j) = m(i, j-1): dependence carried by j; interchange must not
	// happen even though profitability suggests it.
	src := `
program p
  param n = 24
  real m(n, n)
  integer i, j
  do i = 1, n
    do j = 2, n
      m(i, j) = m(i, j - 1) + 1.0
    end do
  end do
end
`
	dep := interchangeWorld(t, src)
	if n := InterchangeLoops(dep); n != 0 {
		t.Fatalf("illegal interchange performed %d times", n)
	}
}

func TestInterchangeSkipsImperfectNest(t *testing.T) {
	src := `
program p
  param n = 24
  real m(n, n), v(n)
  integer i, j
  do i = 1, n
    v(i) = 0.0
    do j = 1, n
      m(i, j) = real(i + j)
    end do
  end do
end
`
	dep := interchangeWorld(t, src)
	if n := InterchangeLoops(dep); n != 0 {
		t.Fatalf("imperfect nest interchanged %d times", n)
	}
}

func TestInterchangeTriangularSkipped(t *testing.T) {
	// Bounds depending on the outer variable: not rectangular.
	src := `
program p
  param n = 24
  real m(n, n)
  integer i, j
  do i = 1, n
    do j = 1, i
      m(i, j) = 1.0
    end do
  end do
end
`
	dep := interchangeWorld(t, src)
	if n := InterchangeLoops(dep); n != 0 {
		t.Fatalf("triangular nest interchanged %d times", n)
	}
}

func TestInterchangeImprovesLocalityModel(t *testing.T) {
	src := `
program p
  param n = 48
  real m(n, n)
  integer i, j
  do i = 1, n
    do j = 1, n
      m(i, j) = real(i) * 0.5 + real(j)
    end do
  end do
end
`
	run := func(info *sem.Info) uint64 {
		in := interp.New(info, interp.Options{
			Machine:       machine.New(machine.Origin2000, 1),
			LocalityModel: true,
		})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.Machine().Time()
	}

	infoBefore := interchangeWorld(t, src).Facts.Info
	before := run(infoBefore)

	depAfter := interchangeWorld(t, src)
	infoAfter := depAfter.Facts.Info
	if n := InterchangeLoops(depAfter); n != 1 {
		t.Fatalf("interchange count %d", n)
	}
	// Semantic check: still valid and produces the same array.
	if _, err := sem.Check(infoAfter.Program); err != nil {
		t.Fatalf("interchange broke the program: %v", err)
	}
	after := run(infoAfter)
	if after >= before {
		t.Errorf("interchange should reduce simulated time under the locality model: %d vs %d", after, before)
	}

	// And the array contents must be identical.
	inB := interp.New(infoBefore, interp.Options{})
	inB.Run()
	inA := interp.New(infoAfter, interp.Options{})
	inA.Run()
	mb, _ := inB.GlobalArrayReal("m")
	ma, _ := inA.GlobalArrayReal("m")
	for k := range mb {
		if mb[k] != ma[k] {
			t.Fatalf("element %d differs after interchange", k)
		}
	}
}
