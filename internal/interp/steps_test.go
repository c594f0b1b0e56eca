package interp

import (
	"bytes"
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

// stepsRulesSrc exercises every rule of the cost model: AND and OR with
// the right operand run and skipped, integer, real and mixed arithmetic,
// logical == and !=, every intrinsic on integer and real arguments, 2-D and
// 3-D reads and stores, a DO with a step, WHILE, GOTO, CALL, an IF with
// ELSEIF arms and PRINT of expressions, also inside the DO that the test
// forces parallel with t, u, j and tmp private and s a sum reduction.
const stepsRulesSrc = `
program p
  param n = 8
  param m = 3
  integer i, j, k, q, t, w, iv(n), c(2, 3), d(2, 2, 2)
  real s, u, x, y, a(n), b(2, 3), e(2, 2, 2), tmp(m)
  logical f, g, h(n)
  f = true
  q = 0
  x = 2.5
  w = 0
  do i = 1, n
    iv(i) = i * 3 - 7
    a(i) = real(i) / 3.0 + 0.25 * i
    h(i) = mod(i, 3) == 0 or i > 6
  end do
  do j = 1, 3
    do k = 1, 2
      c(k, j) = k * 10 + j
      b(k, j) = (k - j) * 1.5
      d(k, 1 + mod(j, 2), 2) = -c(k, j) / 3
      e(k, 2, 1 + mod(j - 1, 2)) = b(k, j) ** 2.0 + x ** k - 2 ** x
    end do
  end do
  do while (w < 7 and not (q > 5))
    w = w + 2 ** 3 / 3
    q = q + 1
    call bump
  end do
10 continue
  q = q + 1
  if (q < 7) goto 10
  y = 0.0
  do i = n, 1, -3
    w = w + iv(i) - i
  end do
  do i = 1, n
    if (iv(i) < 0 and mod(i, 2) == 0) then
      y = y + abs(iv(i)) + abs(a(i) - 2.0)
    else if (h(i) or a(i) > 2.0) then
      y = y - min(i, 4, iv(i)) * max(a(i), 1.0, 0.5 * i) + min(i, 2.5)
    else if (f == h(i)) then
      y = y + sqrt(a(i)) + sin(x) + cos(real(i)) + exp(i / 4) - log(a(i)) + sqrt(i)
    else
      y = y + mod(a(i), 0.75) + mod(i, 3) + mod(7.0, i) + int(a(i)) + int(i) + real(iv(i)) + real(y)
    end if
  end do
  print "a", x * 2, q / 2 + 1, y, f and g, g or h(3), f != g, -x, int(y) ** 2
  s = 0.0
  do i = 1, n
    t = iv(i) * 2 + c(1, 1 + mod(i, 3))
    u = a(i) + t - 2 * a(i) * 1.5
    do j = 1, m
      tmp(j) = u / j + d(1 + mod(i, 2), 1 + mod(j, 2), 2) + e(2, 1, 1)
    end do
    if (t > 0 or tmp(1) < 0.0) then
      a(i) = tmp(1) + tmp(m)
    else
      a(i) = tmp(2)
    end if
    h(i) = g == (u >= 0.0) and i <= 6
    print i, t < 12 and h(i), a(i)
    s = s + a(i)
  end do
  print s, a(1), h(2), w
end
subroutine bump
  integer r
  r = max(w, 1) + 2 ** q
  x = x + 0.5 * real(r) / 4
  g = r >= 8 or x < 0.0
end
`

// stepsRulesOut is what stepsRulesSrc prints, serially and with its last
// DO parallel on 4 processors alike.
const stepsRulesOut = `a 17.5 4 -58.083333333333336 true true false -8.75 3364
1 true -10.222222222222221
2 true 3.555555555555555
3 false 1.3333333333333335
4 false 15.11111111111111
5 false 16.88888888888889
6 false 26.666666666666664
7 false 28.44444444444445
8 false 42.22222222222222
124 -10.222222222222221 true 17
`

// TestStepCountsPinned pins, per program, the least MaxSteps at which Run
// succeeds, the cycles it charges and what it prints. The golden sees only
// cycles: merging two charges of one construct keeps the cycles but moves
// the step at which the limit and the context poll fire. The rules program
// runs at P=1 and P=4, each with the locality model on and off, with every
// array reference in SafeRefs or none, and with Out nil or set: PRINT
// arguments are evaluated, and charged, only when there is an output.
func TestStepCountsPinned(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		parallel  bool
		locality  bool
		safe      bool // every array reference in SafeRefs
		print     bool // Out set
		steps     uint64
		cycles    uint64
		procs     int
		wantRegns int
		out       string
	}{
		{name: "serial", src: stepsSerialSrc, steps: 681, cycles: 1478, procs: 1},
		{name: "parallel", src: stepsParallelSrc, parallel: true, steps: 2565, cycles: 6156, procs: 4, wantRegns: 1},
		{name: "parallel-locality", src: stepsParallelSrc, parallel: true, locality: true, steps: 2565, cycles: 6246, procs: 4, wantRegns: 1},
		{name: "rules/p1", src: stepsRulesSrc, steps: 2198, cycles: 4593, procs: 1},
		{name: "rules/p1-out", src: stepsRulesSrc, print: true, steps: 2289, cycles: 4728, procs: 1, out: stepsRulesOut},
		{name: "rules/p1-safe", src: stepsRulesSrc, safe: true, steps: 2198, cycles: 4350, procs: 1},
		{name: "rules/p1-safe-out", src: stepsRulesSrc, safe: true, print: true, steps: 2289, cycles: 4473, procs: 1, out: stepsRulesOut},
		{name: "rules/p1-locality", src: stepsRulesSrc, locality: true, steps: 2198, cycles: 4782, procs: 1},
		{name: "rules/p1-locality-out", src: stepsRulesSrc, locality: true, print: true, steps: 2289, cycles: 4917, procs: 1, out: stepsRulesOut},
		{name: "rules/p1-locality-safe", src: stepsRulesSrc, locality: true, safe: true, steps: 2198, cycles: 4539, procs: 1},
		{name: "rules/p1-locality-safe-out", src: stepsRulesSrc, locality: true, safe: true, print: true, steps: 2289, cycles: 4662, procs: 1, out: stepsRulesOut},
		{name: "rules/p4", src: stepsRulesSrc, parallel: true, steps: 2198, cycles: 6745, procs: 4, wantRegns: 1},
		{name: "rules/p4-out", src: stepsRulesSrc, parallel: true, print: true, steps: 2289, cycles: 6830, procs: 4, wantRegns: 1, out: stepsRulesOut},
		{name: "rules/p4-safe", src: stepsRulesSrc, parallel: true, safe: true, steps: 2198, cycles: 6605, procs: 4, wantRegns: 1},
		{name: "rules/p4-safe-out", src: stepsRulesSrc, parallel: true, safe: true, print: true, steps: 2289, cycles: 6683, procs: 4, wantRegns: 1, out: stepsRulesOut},
		{name: "rules/p4-locality", src: stepsRulesSrc, parallel: true, locality: true, steps: 2198, cycles: 6818, procs: 4, wantRegns: 1},
		{name: "rules/p4-locality-out", src: stepsRulesSrc, parallel: true, locality: true, print: true, steps: 2289, cycles: 6908, procs: 4, wantRegns: 1, out: stepsRulesOut},
		{name: "rules/p4-locality-safe", src: stepsRulesSrc, parallel: true, locality: true, safe: true, steps: 2198, cycles: 6678, procs: 4, wantRegns: 1},
		{name: "rules/p4-locality-safe-out", src: stepsRulesSrc, parallel: true, locality: true, safe: true, print: true, steps: 2289, cycles: 6761, procs: 4, wantRegns: 1, out: stepsRulesOut},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := stepsProgram(t, c.src, c.parallel)
			var safe map[*lang.ArrayRef]bool
			if c.safe {
				safe = arrayRefs(info.Program)
			}
			var out bytes.Buffer
			run := func(max uint64) (*Interp, error) {
				opts := Options{
					Machine:       machine.New(machine.Origin2000, c.procs),
					MaxSteps:      max,
					LocalityModel: c.locality,
					SafeRefs:      safe,
				}
				out.Reset()
				if c.print {
					opts.Out = &out
				}
				in := New(info, opts)
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
			if got := out.String(); got != c.out {
				t.Errorf("output:\n%s\nwant:\n%s", got, c.out)
			}
		})
	}
}

// arrayRefs returns every array element reference of prog.
func arrayRefs(prog *lang.Program) map[*lang.ArrayRef]bool {
	refs := map[*lang.ArrayRef]bool{}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			lang.StmtExprs(s, func(x lang.Expr) {
				lang.WalkExpr(x, func(x lang.Expr) bool {
					if r, ok := x.(*lang.ArrayRef); ok && !r.Intrinsic {
						refs[r] = true
					}
					return true
				})
			})
			return true
		})
	}
	return refs
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
