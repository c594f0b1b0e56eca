package interp

import (
	"errors"
	"testing"

	"repro/internal/comperr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// forceParallel marks the first top-level DO loop parallel with the given
// privates (bypassing the analyses, to exercise the executor directly).
func forceParallel(t *testing.T, src string, private []string) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog.Main.Body {
		if d, ok := s.(*lang.DoStmt); ok {
			d.Parallel = true
			d.Private = private
			break
		}
	}
	return info
}

func TestParallelZeroTripLoop(t *testing.T) {
	src := `
program p
  param nmax = 8
  real a(nmax)
  integer i, n
  n = 0
  do i = 1, n
    a(i) = 1.0
  end do
  n = 7
end
`
	info := forceParallel(t, src, nil)
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 4)})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// The loop variable must hold the first out-of-range value.
	if i, _ := in.GlobalInt("i"); i != 1 {
		t.Errorf("i = %d, want 1", i)
	}
	if in.Machine().ParallelRegions() != 0 {
		t.Error("zero-trip loop must not open a region")
	}
}

func TestParallelMoreProcsThanIterations(t *testing.T) {
	src := `
program p
  param nmax = 3
  real a(nmax)
  integer i
  do i = 1, 3
    a(i) = real(i) * 2.0
  end do
end
`
	info := forceParallel(t, src, nil)
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 16), Poison: true})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	a, _ := in.GlobalArrayReal("a")
	for k, want := range []float64{2, 4, 6} {
		if a[k] != want {
			t.Errorf("a(%d) = %g, want %g", k+1, a[k], want)
		}
	}
}

func TestParallelNegativeStep(t *testing.T) {
	src := `
program p
  param nmax = 10
  real a(nmax)
  integer i
  do i = 10, 1, -1
    a(i) = real(i)
  end do
end
`
	info := forceParallel(t, src, nil)
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 4)})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	a, _ := in.GlobalArrayReal("a")
	for k := range a {
		if a[k] != float64(k+1) {
			t.Fatalf("a(%d) = %g", k+1, a[k])
		}
	}
	if i, _ := in.GlobalInt("i"); i != 0 {
		t.Errorf("final i = %d, want 0", i)
	}
}

func TestParallelLoopVarPrivatePerChunk(t *testing.T) {
	// The loop variable itself must be chunk-private: with shared i the
	// chunks would trample each other.
	src := `
program p
  param nmax = 64
  real a(nmax)
  integer i
  do i = 1, nmax
    a(i) = real(i)
  end do
end
`
	info := forceParallel(t, src, nil)
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 8), Schedule: Reverse})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	a, _ := in.GlobalArrayReal("a")
	for k := range a {
		if a[k] != float64(k+1) {
			t.Fatalf("a(%d) = %g (loop variable shared across chunks?)", k+1, a[k])
		}
	}
}

// TestParallelHugeTripCount runs a DO of more than MaxInt64 iterations,
// parallel with s private at P=8 and serially at P=1: each must end in the
// step limit, not a crash.
func TestParallelHugeTripCount(t *testing.T) {
	src := `
program p
  integer i, s
  do i = -5000000000000000000, 5000000000000000000
    s = i
  end do
end
`
	info := forceParallel(t, src, []string{"s"})
	for _, procs := range []int{8, 1} {
		in := New(info, Options{Machine: machine.New(machine.Origin2000, procs), MaxSteps: 10_000})
		if err := in.Run(); !errors.Is(err, comperr.ErrResourceLimit) {
			t.Errorf("P=%d: Run = %v, want a resource-limit error", procs, err)
		}
	}
}

func TestControlLeavingParallelBodyFails(t *testing.T) {
	src := `
program p
  param nmax = 8
  real a(nmax)
  integer i
  do i = 1, nmax
    a(i) = 1.0
    if (i == 3) goto 99
  end do
99 continue
end
`
	info := forceParallel(t, src, nil)
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 4)})
	err := in.Run()
	if err == nil {
		t.Fatal("a goto leaving a parallel body must be a runtime error (the parallelizer never emits this)")
	}
}

func TestNestedParallelRunsSerially(t *testing.T) {
	src := `
program p
  param nmax = 8
  real m(nmax, nmax)
  integer i, j
  do i = 1, nmax
    do j = 1, nmax
      m(i, j) = real(i * 10 + j)
    end do
  end do
end
`
	prog, _ := lang.Parse(src)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Main.Body[0].(*lang.DoStmt)
	inner := outer.Body[0].(*lang.DoStmt)
	outer.Parallel = true
	inner.Parallel = true // nested region must degrade to serial
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 4)})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Machine().ParallelRegions() != 1 {
		t.Errorf("regions = %d, want 1 (no nested regions)", in.Machine().ParallelRegions())
	}
	m, _ := in.GlobalArrayReal("m")
	if m[0] != 11 {
		t.Errorf("m(1,1) = %g", m[0])
	}
}
