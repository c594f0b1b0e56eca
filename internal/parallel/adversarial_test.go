package parallel

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
)

// runChecksum executes a compiled program, its parallel chunks in the
// given order, and returns a named global (or an execution error).
func runChecksum(pz *Parallelizer, procs int, sched interp.Schedule, name string) (float64, error) {
	in := interp.New(pz.facts.Info, interp.Options{
		Machine:  machine.New(machine.Origin2000, procs),
		Poison:   true,
		Schedule: sched,
	})
	if err := in.Run(); err != nil {
		return 0, err
	}
	if v, err := in.GlobalReal(name); err == nil {
		return v, nil
	}
	iv, err := in.GlobalInt(name)
	return float64(iv), err
}

// assertSerialAndWrongIfForced verifies, in each of the given modes (Full
// when none is given), that (a) the analysis keeps the loop serial, and
// (b) the serial decision was semantically necessary: if the loop is
// force-parallelized with the tempting privatization, the result actually
// changes. This guards against the analyses being merely conservative by
// accident.
func assertSerialAndWrongIfForced(t *testing.T, src, loopVar string, private []string, checksum string, modes ...Mode) {
	t.Helper()
	assertSerialAndWrongIfForcedAs(t, src, loopVar, forcing{private: private}, checksum, modes...)
}

// forcing is the tempting parallelization an adversarial test forces on a
// loop the analysis kept serial, and the chunk order of the forced run.
type forcing struct {
	private    []string
	reductions []lang.Reduction
	schedule   interp.Schedule
}

// assertSerialAndWrongIfForcedAs is assertSerialAndWrongIfForced with the
// forced parallelization spelled out.
func assertSerialAndWrongIfForcedAs(t *testing.T, src, loopVar string, force forcing, checksum string, modes ...Mode) {
	t.Helper()
	if len(modes) == 0 {
		modes = []Mode{Full}
	}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			assertSerialAndWrongIfForcedIn(t, mode, src, loopVar, force, checksum)
		})
	}
}

func assertSerialAndWrongIfForcedIn(t *testing.T, mode Mode, src, loopVar string, force forcing, checksum string) {
	t.Helper()
	pz, info := build(t, src, mode)
	rs := pz.Run()
	var report *LoopReport
	for _, r := range rs {
		if r.Loop.Var.Name == loopVar {
			report = r
			break
		}
	}
	if report == nil {
		t.Fatal("loop not found")
	}
	if report.Parallel {
		t.Fatalf("UNSOUND: loop do %s was parallelized: %+v", loopVar, report)
	}

	want, err := runChecksum(pz, 1, interp.Forward, checksum)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	// Force the tempting (wrong) parallelization and watch it break: the
	// result must differ, poison, or trap.
	report.Loop.Parallel = true
	report.Loop.Private = force.private
	report.Loop.Reductions = force.reductions
	got, err := runChecksum(pz, 4, force.schedule, checksum)
	if err != nil {
		return // trapped: the rejection was clearly necessary
	}
	if !math.IsNaN(got) && math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("forcing the rejected parallelization did not change the result (%v); the rejection may be vacuous", got)
	}
	_ = info
}

func TestAdversarialConditionalReset(t *testing.T) {
	// The "stack" pointer reset is conditional: values genuinely flow
	// across iterations of do k through t().
	src := `
program condreset
  param n = 16
  param m = 24
  real t(m), a(m), out(n, m)
  integer k, j, p
  real checksum
  do j = 1, m
    a(j) = real(mod(j * 7, 9)) - 3.0
  end do
  p = 0
  do k = 1, n
    if (mod(k, 5) == 0) then
      p = 0
    end if
    do j = 1, m
      if (a(j) > 0.0) then
        p = p + 1
        t(p) = a(j) + real(k)
      else
        if (p >= 1) then
          out(k, j) = t(p)
          p = p - 1
        end if
      end if
    end do
  end do
  checksum = 0.0
  do k = 1, n
    do j = 1, m
      checksum = checksum + out(k, j)
    end do
  end do
  print "cs", checksum
end
`
	assertSerialAndWrongIfForced(t, src, "k", []string{"t", "p", "j"}, "checksum")
}

func TestAdversarialCWWithHole(t *testing.T) {
	// x() looks consecutively written, but one path skips the write: the
	// do j read then sees a stale element from the previous iteration.
	src := `
program cwhole
  param n = 12
  param m = 20
  real x(m), y(m), z(n, m)
  integer k, i, j, p
  real checksum
  do i = 1, m
    y(i) = real(mod(i * 5, 7)) - 2.0
  end do
  do k = 1, n
    p = 0
    do i = 1, m
      p = p + 1
      if (y(i) > 0.0) then
        x(p) = y(i) * real(k)
      end if
    end do
    do j = 1, p
      z(k, j) = x(j)
    end do
  end do
  checksum = 0.0
  do k = 1, n
    do j = 1, m
      checksum = checksum + z(k, j)
    end do
  end do
  print "cs", checksum
end
`
	assertSerialAndWrongIfForced(t, src, "k", []string{"x", "p", "i", "j"}, "checksum")
}

// staleFactsTail sums z so the forced runs can be compared.
const staleFactsTail = `
  checksum = 0.0
  do k = 1, n
    do j = 1, m
      checksum = checksum + z(k, j)
    end do
  end do
  print "cs", checksum
end
`

func TestAdversarialCWEntryAssignedInIfArm(t *testing.T) {
	// The CW index's entry value is 0 or 4 depending on an IF arm, so the
	// fill writes x(1:8) or x(5:12): on odd k the copy loop reads x(1:4)
	// from an earlier iteration.
	src := `
program cwifarm
  param n = 16
  param m = 12
  integer c(n)
  real x(m), z(n, m)
  integer k, i, j, p
  real checksum
  do i = 1, n
    c(i) = mod(i, 2)
  end do
  do k = 1, n
    p = 0
    if (c(k) != 0) then
      p = 4
    end if
    do j = 1, 8
      p = p + 1
      x(p) = real(100 * k + j)
    end do
    do j = 1, p
      z(k, j) = x(j)
    end do
  end do
` + staleFactsTail
	assertSerialAndWrongIfForced(t, src, "k", []string{"x", "p", "j"}, "checksum")
}

func TestAdversarialCWEntryElementOverwritten(t *testing.T) {
	// The CW index starts at c(k), which is then zeroed: the fill writes
	// x(c(k)+1 : p) for the old c(k), the copy reads x(1 : p).
	src := `
program cwstale
  param n = 16
  param m = 12
  integer c(n)
  real x(m), z(n, m)
  integer k, i, j, p
  real checksum
  do i = 1, n
    c(i) = mod(i, 3)
  end do
  do k = 1, n
    p = c(k)
    c(k) = 0
    do j = 1, 8
      p = p + 1
      x(p) = real(100 * k + j)
    end do
    do j = c(k) + 1, p
      z(k, j) = x(j)
    end do
  end do
` + staleFactsTail
	assertSerialAndWrongIfForced(t, src, "k", []string{"x", "p", "j"}, "checksum")
}

func TestAdversarialSectionBoundElementOverwritten(t *testing.T) {
	// x(1 : c(k)) is written, then c(k) grows by 5 and x(1 : c(k)) is
	// read: the last five elements come from earlier iterations.
	src := `
program secstale
  param n = 16
  param m = 12
  integer c(n)
  real x(m), z(n, m)
  integer k, i, j
  real checksum
  do i = 1, n
    c(i) = mod(i, 3) + 1
  end do
  do k = 1, n
    do j = 1, c(k)
      x(j) = real(100 * k + j)
    end do
    c(k) = c(k) + 5
    do j = 1, c(k)
      z(k, j) = x(j)
    end do
  end do
` + staleFactsTail
	assertSerialAndWrongIfForced(t, src, "k", []string{"x", "j"}, "checksum")
}

func TestAdversarialGatherCounterStride(t *testing.T) {
	// The gather counter advances by 2: ind has holes, so privatizing the
	// consumer's source array via "bounds" would read stale gaps.
	src := `
program stride2
  param n = 16
  param m = 24
  real x(m), z(n, m)
  integer ind(2 * m)
  integer k, i, j, q
  real checksum
  do k = 1, n
    do i = 1, m
      x(i) = real(mod(k + i, 5)) - 1.0
    end do
    q = 0
    do i = 1, m
      if (x(i) > 0.0) then
        q = q + 2
        ind(q) = i
      end if
    end do
    do j = 2, q
      z(k, ind(j)) = x(ind(j))
    end do
  end do
  checksum = 0.0
  do i = 1, n
    do j = 1, m
      checksum = checksum + z(i, j)
    end do
  end do
  print "cs", checksum
end
`
	pz, _ := build(t, src, Full)
	rs := pz.Run()
	for _, r := range rs {
		if r.Loop.Var.Name == "k" && r.Parallel {
			t.Fatalf("UNSOUND: stride-2 gather consumer parallelized: %+v", r)
		}
	}
}

func TestAdversarialDistancePatchedAfterUseLoopStarts(t *testing.T) {
	// pptr is consistent when defined, but iblen is enlarged afterwards:
	// the offset-length premise dist = iblen no longer matches pptr's
	// actual gaps, and blocks overlap.
	src := `
program patched
  param nblk = 10
  param smax = 200
  integer pptr(nblk + 1), iblen(nblk)
  real x(smax), b(smax)
  integer i, j
  real checksum
  do i = 1, nblk
    iblen(i) = 3
  end do
  pptr(1) = 1
  do i = 1, nblk
    pptr(i + 1) = pptr(i) + iblen(i)
  end do
  do i = 1, nblk
    iblen(i) = 5
  end do
  do i = 1, smax
    b(i) = real(mod(i, 4))
  end do
  do i = 1, nblk
    do j = 1, iblen(i)
      x(pptr(i) + j - 1) = x(pptr(i) + j - 1) + b(pptr(i) + j - 1) + real(i)
    end do
  end do
  checksum = 0.0
  do i = 1, smax
    checksum = checksum + x(i)
  end do
  print "cs", checksum
end
`
	pz, _ := build(t, src, Full)
	rs := pz.Run()
	for _, r := range rs {
		if r.Loop.Var.Name == "i" && r.Parallel {
			for arr, test := range r.Tests {
				if arr == "x" && test == "offset-length" {
					t.Fatalf("UNSOUND: offset-length fired after iblen was patched: %+v", r)
				}
			}
		}
	}
}

func TestAdversarialReductionVarAlsoAssigned(t *testing.T) {
	// s is summed AND plainly assigned in the same loop: not a reduction;
	// the loop must stay serial (final value depends on the last
	// assignment ordering).
	src := `
program sneaky
  param n = 32
  real a(n), s
  integer i
  do i = 1, n
    a(i) = real(i)
  end do
  s = 0.0
  do i = 1, n
    s = s + a(i)
    if (a(i) > 30.0) then
      s = 0.0
    end if
  end do
  print "s", s
end
`
	pz, _ := build(t, src, Full)
	rs := pz.Run()
	for _, r := range rs {
		if !r.Parallel {
			continue
		}
		for _, red := range r.Reductions {
			if red.Var == "s" {
				t.Fatalf("UNSOUND: s recognised as a reduction despite the reset: %+v", r)
			}
		}
		for _, p := range r.Private {
			if p == "s" {
				t.Fatalf("UNSOUND: s privatized despite carrying a value: %+v", r)
			}
		}
	}
}

func TestAdversarialStackReadBelowBottom(t *testing.T) {
	// The pop is unguarded: p can sink below the bottom and t(p) indexes
	// stale data (or traps). The Table 1 discipline itself passes, but
	// execution bounds-checks catch p = 0; the loop must still be treated
	// correctly: privatization may mark t, but a correct program never
	// pops an empty stack — here it does, so the runtime check fires.
	src := `
program underflow
  param n = 4
  param m = 6
  real t(m), a(m), out(n, m)
  integer k, j, p
  do j = 1, m
    a(j) = 0.0 - 1.0
  end do
  do k = 1, n
    p = 0
    do j = 1, m
      if (a(j) > 0.0) then
        p = p + 1
        t(p) = a(j)
      else
        out(k, j) = t(p)
        p = p - 1
      end if
    end do
  end do
end
`
	pz, _ := build(t, src, Full)
	pz.Run()
	in := interp.New(pz.facts.Info, interp.Options{Machine: machine.New(machine.Origin2000, 1)})
	err := in.Run()
	if err == nil {
		t.Fatal("reading below the stack bottom must trap at run time")
	}
	if re, ok := err.(*interp.RuntimeError); !ok || re == nil {
		t.Fatalf("unexpected error type: %v", err)
	}
	_ = lang.FormatStmt
}

func TestAdversarialIndirectHullDropsAtom(t *testing.T) {
	// x(p(j) + p(k) + p(l)) reads x at three elements of p, subscripted
	// over [1:q(1)], [1:q(2)] and [1:q(1)]. No order between q(1) and
	// q(2) is provable, so the index-array hull has no upper bound, and
	// the read of x cannot be bounded. A hull that skips the unordered
	// pair and keeps the next atom's bound queries bounds(p) over
	// [1:q(1)] alone, where p is 1, and privatizes x as if it read only
	// x(3). But p(k) is 0 for k > 5, so an iteration also reads x(2),
	// which only the code before the loop writes. The atoms' order must
	// not decide the verdict, so the analysis runs many times.
	src := `
program hull
  integer i, j, k, l, m
  integer p(40), q(2)
  real x(100), y(100)
  real s
  q(1) = 5
  q(2) = 30
  x(2) = 7.0
  do m = 1, q(1)
    p(m) = 1
  end do
  do i = 1, 10
    do j = 3, 20
      x(j) = i
    end do
    do j = 1, q(1)
      do k = 1, q(2)
        do l = 1, q(1)
          y(i) = y(i) + x(p(j) + p(k) + p(l))
        end do
      end do
    end do
  end do
  s = y(1) + y(10)
end
`
	for run := 0; run < 32; run++ {
		assertSerialAndWrongIfForced(t, src, "i", []string{"j", "k", "l", "x"}, "s")
	}
}

func TestAdversarialIndirectNegativeCoefficient(t *testing.T) {
	// t(p(i + 1) - p(i)) reads t at p's difference. bounds(p) is [1:10],
	// so the subscript lies in [1 - 10 : 10 - 1]; putting p's lower bound
	// into both atoms of the low end and its upper bound into both of the
	// high end bounds it to the point [0:0], which the write t(0) covers.
	// But p decreases, so every iteration reads t(-1), which only the code
	// before the loop writes.
	src := `
program privsign
  integer i, j
  integer p(10)
  real t(-9:9), y(10), s
  do j = 1, 10
    p(j) = 11 - j
  end do
  t(-1) = 5.0
  do i = 1, 9
    t(0) = i
    y(i) = t(p(i + 1) - p(i))
  end do
  s = y(1) + y(9)
  print "s", s
end
`
	assertSerialAndWrongIfForced(t, src, "i", []string{"t"}, "s")
}

// allModes lists the three configurations for the shapes every one of
// them got wrong.
var allModes = []Mode{Full, NoIAA, Baseline}

// shape reads one program of testdata; the assignment oracle in
// internal/dataflow reads them too.
func shape(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestAdversarialGotoSkipsScalarStore(t *testing.T) {
	assertSerialAndWrongIfForced(t, shape(t, "goto_skips_scalar_store.fl"), "i", []string{"x"}, "s", allModes...)
}

func TestAdversarialGotoSkipsArrayStores(t *testing.T) {
	// Baseline privatizes no array, so it keeps the loop serial anyway.
	assertSerialAndWrongIfForced(t, shape(t, "goto_skips_array_stores.fl"), "i", []string{"t"}, "s", Full, NoIAA)
}

func TestAdversarialGotoLeavesBody(t *testing.T) {
	assertSerialAndWrongIfForced(t, shape(t, "goto_leaves_body.fl"), "i", nil, "s", allModes...)
}

func TestAdversarialGotoRestartsLoop(t *testing.T) {
	assertSerialAndWrongIfForced(t, shape(t, "goto_restarts_loop.fl"), "i", nil, "s", allModes...)
}

func TestAdversarialLiveOutReadInEnclosingLoop(t *testing.T) {
	assertSerialAndWrongIfForced(t, shape(t, "liveout_read_in_enclosing_loop.fl"), "i", []string{"x"}, "s", allModes...)
}

func TestAdversarialLiveOutReadInGotoLoop(t *testing.T) {
	assertSerialAndWrongIfForced(t, shape(t, "liveout_read_in_goto_loop.fl"), "i", []string{"x"}, "s", allModes...)
}

// The three loops below read a scalar or an array element only in an
// ELSEIF condition. Each was marked PARALLEL while an IF's statement facts
// held its main condition alone.

func TestAdversarialReductionReadInElseIf(t *testing.T) {
	// s is summed, and an ELSEIF condition reads the running sum mid-loop:
	// not a reduction. Reduced at P=4, b(4:9) read 0 0 0 0 0 1 against
	// 0 0 1 1 1 1 serially.
	force := forcing{reductions: []lang.Reduction{{Var: "s", Op: lang.OpAdd}}}
	assertSerialAndWrongIfForcedAs(t, shape(t, "elseif_reads_reduction.fl"), "i", force, "cs", allModes...)
}

func TestAdversarialElseIfReadCarriesDependence(t *testing.T) {
	// Iteration i reads x(i + 1) in an ELSEIF condition before iteration
	// i + 1 writes it. Forward chunks run in the serial order at each chunk
	// boundary, so only the reverse order shows the dependence.
	force := forcing{schedule: interp.Reverse}
	assertSerialAndWrongIfForcedAs(t, shape(t, "elseif_reads_next_element.fl"), "i", force, "cs", allModes...)
}

// The two loops below read an index array whose property a callee breaks
// by writing a global that the caller's local of the same name shadows.
// A query's sections cross units without renaming, so the property
// analysis tests each name against every symbol of that name.

func TestAdversarialShadowedIndexWrittenInGotoCallee(t *testing.T) {
	// c declares a local ind that shadows the global one, and loops by a
	// backward GOTO, so its section is cyclic. d, which c calls, writes the
	// global ind: after do k, ind(1) = ind(5) = 1, and do j writes y(1) twice.
	src := `
program shadowkill
  param n = 8
  integer ind(n)
  real y(n), s
  integer i, j, k
  do i = 1, n
    ind(i) = i
  end do
  do k = 1, 2
    call c
  end do
  do j = 1, n
    y(ind(j)) = real(j)
  end do
  s = 0.0
  do i = 1, n
    s = s + y(i) * real(i)
  end do
  print "s", s
end
subroutine c
  integer ind(2)
  integer t
  t = 0
10 t = t + 1
  call d
  if (t < 2) goto 10
  print "t", t
end
subroutine d
  ind(5) = 1
end
`
	force := forcing{schedule: interp.Reverse}
	assertSerialAndWrongIfForcedAs(t, src, "j", force, "s", Full)
}

func TestAdversarialShadowedBoundWrittenAtCallSite(t *testing.T) {
	// a declares a local m that shadows the global one. A query for a
	// property of ind(1:m) at do j climbs from b to its call site in a,
	// where d writes the global m: ind(1:4) = 1..4 was generated for
	// m = 4, but do j runs to m = 8, over ind(5:8) = 1, and writes y(1)
	// five times.
	src := `
program shadowsplit
  param nmax = 16
  integer m, i
  integer ind(nmax)
  real y(nmax), s
  m = 4
  do i = 1, nmax
    ind(i) = 1
  end do
  do i = 1, m
    ind(i) = i
  end do
  call a
  s = 0.0
  do i = 1, nmax
    s = s + y(i) * real(i)
  end do
  print "s", s
end
subroutine a
  integer m, k
  do k = 1, 1
    call d
  end do
  call b
end
subroutine d
  m = 8
end
subroutine b
  integer j
  do j = 1, m
    y(ind(j)) = real(j)
  end do
end
`
	force := forcing{schedule: interp.Reverse}
	assertSerialAndWrongIfForcedAs(t, src, "j", force, "s", Full)
}
