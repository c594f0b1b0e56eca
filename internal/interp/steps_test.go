package interp

import (
	"errors"
	"testing"

	"repro/internal/comperr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// stepsSerialSrc runs a serial DO with IF/ELSEIF arms, a WHILE, CALLs,
// integer division and exponentiation, and intrinsics.
const stepsSerialSrc = `
program p
  param n = 20
  integer i, k, q, s, w
  real x, a(n)
  s = 0
  do i = 1, n
    k = mod(i, 3)
    if (k == 0) then
      s = s + i / 2
    else if (k == 1) then
      s = s - min(i, 5)
    else
      a(i) = sqrt(real(i)) + abs(0.0 - 1.5)
    end if
  end do
  w = 0
  do while (w < 7 and s > -100)
    w = w + 2 ** 2 / 3
    call bump
  end do
end
subroutine bump
  integer t
  t = max(s, 1) + t
  q = q + t / 7
  x = x + 0.5 * real(t)
end
`

// stepsParallelSrc has a second DO that the test forces parallel with
// private scalars, a private array and a sum reduction. Under the locality
// model, the accesses of tmp around that loop hit only if the shared
// array's last index survives the region, and the first one inside a chunk
// misses only if a fresh private copy starts unseen.
const stepsParallelSrc = `
program p
  param n = 37
  param m = 4
  integer i, j, t
  real a(n), b(n), tmp(m), s, u
  do i = 1, n
    b(i) = real(i)
  end do
  tmp(1) = 1.0
  s = 0.0
  do i = 1, n
    t = i * 2
    u = b(i) + 1.0
    do j = 1, m
      tmp(j) = u * real(j) + real(t)
    end do
    a(i) = tmp(1) + tmp(m)
    s = s + a(i)
  end do
  u = tmp(2)
end
`

// TestStepCountsPinned pins, per program, the least MaxSteps at which Run
// succeeds and the cycles it charges. The golden sees only cycles: merging
// two charges of one construct keeps the cycles but moves the step at
// which the limit and the context poll fire.
func TestStepCountsPinned(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		parallel  bool
		locality  bool
		steps     uint64
		cycles    uint64
		procs     int
		wantRegns int
	}{
		{name: "serial", src: stepsSerialSrc, steps: 681, cycles: 1478, procs: 1},
		{name: "parallel", src: stepsParallelSrc, parallel: true, steps: 2565, cycles: 6156, procs: 4, wantRegns: 1},
		{name: "parallel-locality", src: stepsParallelSrc, parallel: true, locality: true, steps: 2565, cycles: 6246, procs: 4, wantRegns: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := stepsProgram(t, c.src, c.parallel)
			run := func(max uint64) (*Interp, error) {
				in := New(info, Options{
					Machine:       machine.New(machine.Origin2000, c.procs),
					MaxSteps:      max,
					LocalityModel: c.locality,
				})
				return in, in.Run()
			}
			lo, hi := uint64(1), uint64(1)<<32
			for lo < hi {
				mid := lo + (hi-lo)/2
				if _, err := run(mid); err == nil {
					hi = mid
				} else if !errors.Is(err, comperr.ErrResourceLimit) {
					t.Fatalf("MaxSteps %d: %v", mid, err)
				} else {
					lo = mid + 1
				}
			}
			in, err := run(lo)
			if err != nil {
				t.Fatal(err)
			}
			if lo != c.steps || in.Machine().Time() != c.cycles {
				t.Errorf("least MaxSteps %d, cycles %d; want %d, %d", lo, in.Machine().Time(), c.steps, c.cycles)
			}
			if got := in.Machine().ParallelRegions(); got != c.wantRegns {
				t.Errorf("parallel regions %d, want %d", got, c.wantRegns)
			}
		})
	}
}

// stepsProgram checks src and, when parallel is set, forces its last
// top-level DO parallel with t, u, j and tmp private and s a sum reduction.
func stepsProgram(t *testing.T, src string, parallel bool) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		var loop *lang.DoStmt
		for _, s := range prog.Main.Body {
			if d, ok := s.(*lang.DoStmt); ok {
				loop = d
			}
		}
		loop.Parallel = true
		loop.Private = []string{"t", "u", "j", "tmp"}
		loop.Reductions = []lang.Reduction{{Var: "s", Op: lang.OpAdd}}
	}
	return info
}
