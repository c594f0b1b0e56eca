package interp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/passes"
	"repro/internal/sem"
)

func TestGotoOutOfLoop(t *testing.T) {
	src := `
program p
  integer i, s
  s = 0
  do i = 1, 100
    s = s + 1
    if (i == 5) goto 20
  end do
20 continue
  s = s * 10
end
`
	in := runSrc(t, src, Options{}, nil)
	if s, _ := in.GlobalInt("s"); s != 50 {
		t.Errorf("s = %d, want 50", s)
	}
}

func TestGotoBackwardNested(t *testing.T) {
	src := `
program p
  integer i, rounds, s
  rounds = 0
  s = 0
10 continue
  rounds = rounds + 1
  do i = 1, 3
    s = s + i
  end do
  if (rounds < 4) goto 10
end
`
	in := runSrc(t, src, Options{}, nil)
	if s, _ := in.GlobalInt("s"); s != 24 {
		t.Errorf("s = %d, want 24 (4 rounds of 6)", s)
	}
}

func TestTwoDimensionalArrays(t *testing.T) {
	src := `
program p
  param n = 4
  real m(n, n)
  integer i, j
  real trace
  do i = 1, n
    do j = 1, n
      m(i, j) = real(i * 10 + j)
    end do
  end do
  trace = 0.0
  do i = 1, n
    trace = trace + m(i, i)
  end do
end
`
	in := runSrc(t, src, Options{}, nil)
	if tr, _ := in.GlobalReal("trace"); tr != 11+22+33+44 {
		t.Errorf("trace = %g", tr)
	}
}

func TestCustomLowerBoundArrays(t *testing.T) {
	src := `
program p
  real a(0:4), b(-2:2)
  integer i
  real s
  do i = 0, 4
    a(i) = real(i)
  end do
  do i = -2, 2
    b(i) = real(i * i)
  end do
  s = a(0) + a(4) + b(-2) + b(2) + b(0)
end
`
	in := runSrc(t, src, Options{}, nil)
	if s, _ := in.GlobalReal("s"); s != 0+4+4+4+0 {
		t.Errorf("s = %g, want 12", s)
	}
}

func TestReturnFromSubroutine(t *testing.T) {
	src := `
program p
  integer g
  g = 0
  call work
  g = g + 100
end
subroutine work
  g = 1
  return
  g = 99
end
`
	in := runSrc(t, src, Options{}, nil)
	if g, _ := in.GlobalInt("g"); g != 101 {
		t.Errorf("g = %d, want 101", g)
	}
}

func TestStopHaltsProgram(t *testing.T) {
	src := `
program p
  integer g
  g = 1
  stop
  g = 2
end
`
	in := runSrc(t, src, Options{}, nil)
	if g, _ := in.GlobalInt("g"); g != 1 {
		t.Errorf("g = %d, want 1", g)
	}
}

func TestLocalsResetPerCall(t *testing.T) {
	src := `
program p
  integer g
  call bump
  call bump
end
subroutine bump
  integer local
  local = local + 1
  g = g + local
end
`
	in := runSrc(t, src, Options{}, nil)
	// local starts at 0 on each call: g = 1 + 1.
	if g, _ := in.GlobalInt("g"); g != 2 {
		t.Errorf("g = %d, want 2 (locals must not persist)", g)
	}
}

func TestIntegerTruncationOnAssign(t *testing.T) {
	src := `
program p
  integer i
  real x
  x = 7.0
  i = x / 2.0
end
`
	in := runSrc(t, src, Options{}, nil)
	if i, _ := in.GlobalInt("i"); i != 3 {
		t.Errorf("i = %d, want 3 (Fortran truncation)", i)
	}
}

func TestDivisionByZeroCaught(t *testing.T) {
	src := `
program p
  integer a, b
  b = 0
  a = 1 / b
end
`
	prog, _ := lang.Parse(src)
	info, _ := sem.Check(prog)
	in := New(info, Options{})
	if err := in.Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division error, got %v", err)
	}
}

func TestWhileConditionShortCircuit(t *testing.T) {
	// "p >= 1 and a(p) > 0" must not index a(0) when p == 0.
	src := `
program p
  param n = 5
  real a(n)
  integer q, hits
  q = 3
  hits = 0
  a(1) = 1.0
  a(2) = 1.0
  a(3) = 1.0
  do while (q >= 1 and a(q) > 0.0)
    hits = hits + 1
    q = q - 1
  end do
end
`
	in := runSrc(t, src, Options{}, nil)
	if h, _ := in.GlobalInt("hits"); h != 3 {
		t.Errorf("hits = %d, want 3", h)
	}
}

func TestLiveOutPrivateCopyOut(t *testing.T) {
	// A privatized array read after the parallel loop must hold the last
	// iteration's values (sequential semantics).
	src := `
program p
  param n = 10
  param m = 8
  real tmp(m), out(n, m)
  real last
  integer i, j
  do i = 1, n
    do j = 1, m
      tmp(j) = real(i * 100 + j)
    end do
    do j = 1, m
      out(i, j) = tmp(j)
    end do
  end do
  last = tmp(3)
end
`
	prog, _ := lang.Parse(src)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	fc := dataflow.NewContext(info)
	passes.RecognizeReductions(fc)
	parallel.New(fc, parallel.Full, nil).Run()
	// The loop is NOT expected to parallelize automatically (tmp is
	// live-out), so force it with copy-out semantics to test the
	// executor's copy-out path.
	var loop *lang.DoStmt
	for _, s := range prog.Main.Body {
		if d, ok := s.(*lang.DoStmt); ok {
			loop = d
			break
		}
	}
	loop.Parallel = true
	loop.Private = []string{"tmp", "j"}

	in := New(info, Options{Machine: machine.New(machine.Origin2000, 4), Poison: true})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	last, _ := in.GlobalReal("last")
	if last != 1003 {
		t.Errorf("last = %g, want 1003 (copy-out of final iteration)", last)
	}
	if math.IsNaN(last) {
		t.Error("copy-out returned poison")
	}
}

func TestLogicalValues(t *testing.T) {
	src := `
program p
  logical flag, other
  integer n
  flag = true
  other = not flag
  if (flag and not other) then
    n = 1
  else
    n = 2
  end if
  if (flag == other) then
    n = n + 10
  end if
  if (flag != other) then
    n = n + 100
  end if
end
`
	in := runSrc(t, src, Options{}, nil)
	if n, _ := in.GlobalInt("n"); n != 101 {
		t.Errorf("n = %d, want 101", n)
	}
}

func TestIntrinsicSemantics(t *testing.T) {
	src := `
program p
  integer a, b, c
  real x, y
  a = mod(17, 5)
  b = min(3, 1, 2)
  c = max(3, 1, 2) + abs(0 - 4)
  x = abs(0.0 - 2.5) + mod(7.5, 2.0)
  y = log(exp(1.0)) + sin(0.0) + cos(0.0)
end
`
	in := runSrc(t, src, Options{}, nil)
	if a, _ := in.GlobalInt("a"); a != 2 {
		t.Errorf("mod(17,5) = %d", a)
	}
	if b, _ := in.GlobalInt("b"); b != 1 {
		t.Errorf("min = %d", b)
	}
	if c, _ := in.GlobalInt("c"); c != 7 {
		t.Errorf("max+abs = %d", c)
	}
	if x, _ := in.GlobalReal("x"); math.Abs(x-4.0) > 1e-12 {
		t.Errorf("x = %g", x)
	}
	if y, _ := in.GlobalReal("y"); math.Abs(y-2.0) > 1e-12 {
		t.Errorf("y = %g", y)
	}
}
