package interp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/passes"
	"repro/internal/sem"
)

// runSrc executes a program and returns the interpreter for inspection.
func runSrc(t *testing.T, src string, opts Options, setup func(*Interp)) *Interp {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	in := New(info, opts)
	if setup != nil {
		setup(in)
	}
	if err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in
}

func TestArithmeticAndControl(t *testing.T) {
	src := `
program p
  integer i, s, f
  real x
  s = 0
  do i = 1, 10
    s = s + i
  end do
  f = 1
  i = 1
  do while (i <= 5)
    f = f * i
    i = i + 1
  end do
  x = sqrt(16.0) + 2.0 ** 3
  if (s == 55 and f == 120) then
    s = s * 2
  else
    s = -1
  end if
end
`
	in := runSrc(t, src, Options{}, nil)
	if s, _ := in.GlobalInt("s"); s != 110 {
		t.Errorf("s = %d, want 110", s)
	}
	if f, _ := in.GlobalInt("f"); f != 120 {
		t.Errorf("f = %d, want 120", f)
	}
	if x, _ := in.GlobalReal("x"); x != 12 {
		t.Errorf("x = %g, want 12", x)
	}
}

func TestArraysAndSubroutines(t *testing.T) {
	src := `
program p
  param nmax = 10
  integer i, n
  real a(nmax), total
  n = 5
  call fill
  total = 0.0
  do i = 1, n
    total = total + a(i)
  end do
end
subroutine fill
  integer i
  do i = 1, n
    a(i) = real(i) * 2.0
  end do
end
`
	in := runSrc(t, src, Options{}, nil)
	if tot, _ := in.GlobalReal("total"); tot != 30 {
		t.Errorf("total = %g, want 30", tot)
	}
}

func TestGotoLoop(t *testing.T) {
	src := `
program p
  integer i, s
  i = 0
  s = 0
10 continue
  i = i + 1
  s = s + i
  if (i < 4) goto 10
end
`
	in := runSrc(t, src, Options{}, nil)
	if s, _ := in.GlobalInt("s"); s != 10 {
		t.Errorf("s = %d, want 10", s)
	}
}

func TestBoundsCheck(t *testing.T) {
	src := `
program p
  real a(5)
  integer i
  i = 9
  a(i) = 1.0
end
`
	prog, _ := lang.Parse(src)
	info, _ := sem.Check(prog)
	in := New(info, Options{})
	err := in.Run()
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("expected bounds error, got %v", err)
	}
}

func TestPrintOutput(t *testing.T) {
	src := `
program p
  integer i
  i = 42
  print "i is", i
end
`
	var buf bytes.Buffer
	runSrc(t, src, Options{Out: &buf}, nil)
	if got := buf.String(); got != "i is 42\n" {
		t.Errorf("output = %q", got)
	}
}

func TestDoStepAndFinalValue(t *testing.T) {
	src := `
program p
  integer i, s
  s = 0
  do i = 10, 1, -2
    s = s + i
  end do
end
`
	in := runSrc(t, src, Options{}, nil)
	if s, _ := in.GlobalInt("s"); s != 30 {
		t.Errorf("s = %d, want 30 (10+8+6+4+2)", s)
	}
	if i, _ := in.GlobalInt("i"); i != 0 {
		t.Errorf("final i = %d, want 0", i)
	}
}

func TestInputInjection(t *testing.T) {
	src := `
program p
  param nmax = 4
  integer n, i
  real a(nmax), s
  s = 0.0
  do i = 1, n
    s = s + a(i)
  end do
end
`
	in := runSrc(t, src, Options{}, func(in *Interp) {
		in.SetInt("n", 3)
		in.SetArrayReal("a", []float64{1, 2, 3, 99})
	})
	if s, _ := in.GlobalReal("s"); s != 6 {
		t.Errorf("s = %g, want 6", s)
	}
}

// --- parallel execution ------------------------------------------------------

// parSrc is a parallelizable kernel with a reduction and a private temp.
const parSrc = `
program p
  param nmax = 64
  integer n, i
  real a(nmax), b(nmax), tmp, s
  n = 64
  do i = 1, n
    b(i) = real(i)
  end do
  s = 0.0
  do i = 1, n
    tmp = b(i) * 2.0
    a(i) = tmp + 1.0
    s = s + tmp
  end do
end
`

// prepParallel parses, runs the pass pipeline pieces needed, parallelizes,
// and returns info.
func prepParallel(t *testing.T, src string, mode parallel.Mode) *sem.Info {
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
	passes.RecognizeReductions(fc)
	parallel.New(fc, mode, nil).Run()
	return info
}

func TestParallelMatchesSerial(t *testing.T) {
	info := prepParallel(t, parSrc, parallel.Full)

	ser := New(info, Options{Machine: machine.New(machine.Origin2000, 1)})
	if err := ser.Run(); err != nil {
		t.Fatal(err)
	}
	aSer, _ := ser.GlobalArrayReal("a")
	sSer, _ := ser.GlobalReal("s")

	for _, sched := range []Schedule{Forward, Reverse} {
		par := New(info, Options{
			Machine:  machine.New(machine.Origin2000, 8),
			Schedule: sched,
			Poison:   true,
		})
		if err := par.Run(); err != nil {
			t.Fatalf("parallel run (sched %d): %v", sched, err)
		}
		aPar, _ := par.GlobalArrayReal("a")
		sPar, _ := par.GlobalReal("s")
		for i := range aSer {
			if aSer[i] != aPar[i] {
				t.Fatalf("sched %d: a(%d) = %g, want %g", sched, i+1, aPar[i], aSer[i])
			}
		}
		if math.Abs(sPar-sSer) > 1e-9 {
			t.Errorf("sched %d: s = %g, want %g", sched, sPar, sSer)
		}
		if par.Machine().ParallelRegions() == 0 {
			t.Error("no parallel region executed")
		}
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	info := prepParallel(t, parSrc, parallel.Full)
	ser := New(info, Options{Machine: machine.New(machine.Origin2000, 1)})
	ser.Run()
	par := New(info, Options{Machine: machine.New(machine.Origin2000, 8)})
	par.Run()
	// The kernel is tiny so overhead may dominate; just check that the
	// parallel region's accounting happened and the cost model is sane.
	if par.Machine().Time() == 0 || ser.Machine().Time() == 0 {
		t.Fatal("no time accounted")
	}
}

func TestPoisonDetectsBadPrivatization(t *testing.T) {
	// Manually (and wrongly) privatize an array whose values flow across
	// iterations; the poisoned private copy must surface as NaN.
	src := `
program p
  param nmax = 16
  integer n, i
  real a(nmax), s
  n = 16
  a(1) = 1.0
  s = 0.0
  do i = 2, n
    a(i) = a(i - 1) + 1.0
    s = s + a(i)
  end do
end
`
	prog, _ := lang.Parse(src)
	info, _ := sem.Check(prog)
	passes.RecognizeReductions(dataflow.NewContext(info))
	// Force-break it: mark the loop parallel with a privatized.
	var loop *lang.DoStmt
	lang.WalkStmts(prog.Main.Body, func(s lang.Stmt) bool {
		if d, ok := s.(*lang.DoStmt); ok {
			loop = d
		}
		return true
	})
	loop.Parallel = true
	loop.Private = []string{"a"}

	in := New(info, Options{Machine: machine.New(machine.Origin2000, 4), Poison: true})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	s, _ := in.GlobalReal("s")
	if !math.IsNaN(s) {
		t.Errorf("wrong privatization must poison the result, got s = %g", s)
	}
}

func TestReductionKinds(t *testing.T) {
	src := `
program p
  param nmax = 32
  integer n, i
  real a(nmax), s, lo, hi
  n = 32
  do i = 1, n
    a(i) = real(mod(i * 7, 13))
  end do
  s = 0.0
  lo = 1.0e30
  hi = -1.0e30
  do i = 1, n
    s = s + a(i)
    lo = min(lo, a(i))
    hi = max(hi, a(i))
  end do
end
`
	info := prepParallel(t, src, parallel.Full)
	ser := New(info, Options{Machine: machine.New(machine.Origin2000, 1)})
	ser.Run()
	par := New(info, Options{Machine: machine.New(machine.Origin2000, 4), Poison: true})
	par.Run()
	for _, name := range []string{"s", "lo", "hi"} {
		vs, _ := ser.GlobalReal(name)
		vp, _ := par.GlobalReal(name)
		if math.Abs(vs-vp) > 1e-9 {
			t.Errorf("%s: serial %g, parallel %g", name, vs, vp)
		}
	}
}

func TestParallelRandomized(t *testing.T) {
	// Random inputs: parallel result must match serial on every run.
	src := `
program p
  param nmax = 128
  integer n, i
  real a(nmax), b(nmax), s
  s = 0.0
  do i = 1, n
    a(i) = b(i) * b(i) + 1.0
    s = s + a(i)
  end do
end
`
	info := prepParallel(t, src, parallel.Full)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := int64(r.Intn(128) + 1)
		b := make([]float64, 128)
		for i := range b {
			b[i] = r.Float64() * 10
		}
		run := func(p int) (float64, []float64) {
			in := New(info, Options{Machine: machine.New(machine.Origin2000, p), Poison: true})
			in.SetInt("n", n)
			in.SetArrayReal("b", b)
			if err := in.Run(); err != nil {
				t.Fatal(err)
			}
			s, _ := in.GlobalReal("s")
			a, _ := in.GlobalArrayReal("a")
			return s, a
		}
		sSer, aSer := run(1)
		sPar, aPar := run(7)
		if math.Abs(sSer-sPar) > 1e-6*math.Abs(sSer) {
			t.Errorf("trial %d: s serial %g vs parallel %g", trial, sSer, sPar)
		}
		for i := range aSer {
			if aSer[i] != aPar[i] {
				t.Fatalf("trial %d: a(%d) differs", trial, i+1)
			}
		}
	}
}

func TestStepLimit(t *testing.T) {
	src := `
program p
  integer i
  i = 0
  do while (true)
    i = i + 1
  end do
end
`
	prog, _ := lang.Parse(src)
	info, _ := sem.Check(prog)
	in := New(info, Options{MaxSteps: 10000})
	err := in.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("expected step limit error, got %v", err)
	}
}
