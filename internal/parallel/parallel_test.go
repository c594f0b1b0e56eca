package parallel

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/deptest"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/passes"
	"repro/internal/progen"
	"repro/internal/sem"
)

// pipelineLite runs the minimal pass sequence the parallelizer expects
// (reduction recognition) and builds a parallelizer.
func build(t *testing.T, src string, mode Mode) (*Parallelizer, *sem.Info) {
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
	return New(fc, mode, nil), info
}

func reportByName(rs []*LoopReport, frag string) *LoopReport {
	for _, r := range rs {
		if strings.Contains(r.Name, frag) {
			return r
		}
	}
	return nil
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		name string
		want Mode
		ok   bool
	}{
		{"", Full, true},
		{"full", Full, true},
		{"noiaa", NoIAA, true},
		{"NoIAA", NoIAA, true},
		{"baseline", Baseline, true},
		{"BASELINE", Baseline, true},
		{"turbo", Full, false},
		{"polaris", Full, false},
		{" full", Full, false},
	}
	for _, tc := range cases {
		got, err := ParseMode(tc.name)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), `unknown mode "`+tc.name+`"`) {
			t.Errorf("ParseMode(%q) error = %v, want unknown mode", tc.name, err)
		}
	}
}

func TestSimpleParallelLoop(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real a(nmax), b(nmax)
  do i = 1, n
    a(i) = b(i) * 2.0
  end do
end
`
	pz, _ := build(t, src, Full)
	rs := pz.Run()
	r := reportByName(rs, "do_i")
	if r == nil || !r.Parallel {
		t.Fatalf("simple loop should be parallel: %+v", r)
	}
	if !r.Loop.Parallel {
		t.Error("AST not annotated")
	}
}

func TestRecurrenceStaysSerial(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real a(nmax)
  do i = 2, n
    a(i) = a(i - 1) + 1.0
  end do
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || r.Parallel {
		t.Fatalf("recurrence must stay serial: %+v", r)
	}
	if len(r.Blockers) == 0 {
		t.Error("expected a blocker explanation")
	}
}

func TestReductionLoopParallel(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real s, a(nmax)
  do i = 1, n
    s = s + a(i)
  end do
  a(1) = s
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || !r.Parallel {
		t.Fatalf("sum reduction should parallelize: %+v", r)
	}
	if len(r.Reductions) != 1 || r.Reductions[0].Var != "s" {
		t.Errorf("reductions: %+v", r.Reductions)
	}
}

func TestScalarCarriedStaysSerial(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real s, a(nmax)
  do i = 1, n
    a(i) = s
    s = a(i) * 2.0
  end do
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || r.Parallel {
		t.Fatalf("value-carrying scalar must stay serial: %+v", r)
	}
}

func TestPrivateScalarTemp(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real tmp, a(nmax), b(nmax)
  do i = 1, n
    tmp = a(i) * 2.0
    b(i) = tmp + 1.0
  end do
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || !r.Parallel {
		t.Fatalf("temp scalar should privatize: %+v", r)
	}
	found := false
	for _, v := range r.Private {
		if v == "tmp" {
			found = true
		}
	}
	if !found {
		t.Errorf("tmp not in private list: %v", r.Private)
	}
}

// figure1a end to end: do k parallelizes only with the irregular analyses.
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

func TestFigure1aFullVsNoIAA(t *testing.T) {
	pzFull, _ := build(t, figure1a, Full)
	rFull := reportByName(pzFull.Run(), "do_k")
	if rFull == nil || !rFull.Parallel {
		t.Fatalf("with IAA, do k should parallelize: %+v", rFull)
	}
	hasX := false
	for _, v := range rFull.Private {
		if v == "x" {
			hasX = true
		}
	}
	if !hasX {
		t.Errorf("x should be privatized: %v", rFull.Private)
	}

	pzNo, _ := build(t, figure1a, NoIAA)
	rNo := reportByName(pzNo.Run(), "do_k")
	if rNo == nil || rNo.Parallel {
		t.Fatalf("without IAA, do k must stay serial: %+v", rNo)
	}
}

// dyfesmLike exercises the offset–length dependence path end to end.
const dyfesmLike = `
program dyf
  param nmax = 50
  param smax = 3000
  integer n, i, j
  integer pptr(nmax), iblen(nmax)
  real x(smax)
  do i = 1, n
    iblen(i) = i
  end do
  pptr(1) = 1
  do i = 1, n
    pptr(i + 1) = pptr(i) + iblen(i)
  end do
  do i = 1, n
    do j = 1, iblen(i)
      x(pptr(i) + j - 1) = real(i) + real(j)
    end do
  end do
end
`

func TestDyfesmOffsetLength(t *testing.T) {
	pz, _ := build(t, dyfesmLike, Full)
	rs := pz.Run()
	var compute *LoopReport
	for _, r := range rs {
		if r.Parallel && r.Tests["x"] == deptest.TestOffsetLength {
			compute = r
		}
	}
	if compute == nil {
		t.Fatalf("offset-length loop not parallelized; reports: %+v", dump(rs))
	}

	pzNo, _ := build(t, dyfesmLike, NoIAA)
	for _, r := range pzNo.Run() {
		if r.Tests["x"] == deptest.TestOffsetLength {
			t.Error("NoIAA must not use the offset-length test")
		}
	}
}

func dump(rs []*LoopReport) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Name+": "+strings.Join(r.Blockers, "; "))
	}
	return out
}

func TestBaselineOnlyAffine(t *testing.T) {
	pz, _ := build(t, dyfesmLike, Baseline)
	for _, r := range pz.Run() {
		if r.Parallel && strings.Contains(r.Name, "do_i@") {
			// The iblen/pptr fill loops are affine and may parallelize;
			// the compute loop must not.
			if r.Tests["x"] != "" && r.Tests["x"] != deptest.TestAffine {
				t.Errorf("baseline used %s", r.Tests["x"])
			}
		}
	}
}

func TestCallBlocksLoop(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i
  real a(nmax)
  do i = 1, n
    a(i) = 0.0
    call side
  end do
end
subroutine side
  a(1) = 1.0
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || r.Parallel {
		t.Fatalf("calls must block: %+v", r)
	}
}

func TestPrintBlocksLoop(t *testing.T) {
	src := `
program p
  integer n, i
  do i = 1, n
    print i
  end do
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || r.Parallel {
		t.Fatalf("I/O must block: %+v", r)
	}
}

func TestOutermostWins(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i, j
  real z(nmax, nmax)
  do i = 1, n
    do j = 1, n
      z(i, j) = 1.0
    end do
  end do
end
`
	pz, _ := build(t, src, Full)
	rs := pz.Run()
	if len(rs) != 1 {
		t.Fatalf("inner loop of a parallel loop should not be analyzed: %v", dump(rs))
	}
	if !rs[0].Parallel {
		t.Errorf("outer loop should parallelize: %+v", rs[0])
	}
}

func TestLiveOutScalarConditional(t *testing.T) {
	src := `
program p
  param nmax = 100
  integer n, i, last
  real a(nmax)
  do i = 1, n
    if (a(i) > 0.0) then
      last = i
    end if
  end do
  n = last
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_i")
	if r == nil || r.Parallel {
		t.Fatalf("conditionally-assigned live-out scalar must block: %+v", r)
	}
}

func TestGatherUseLoopParallel(t *testing.T) {
	// The use loop in Fig. 14 parallelizes via the injective test.
	src := `
program gather
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
    y(ind(j)) = x(ind(j)) * 2.0
  end do
end
`
	pz, _ := build(t, src, Full)
	r := reportByName(pz.Run(), "do_j")
	if r == nil || !r.Parallel {
		t.Fatalf("use loop should parallelize via injectivity: %+v", r)
	}
	if r.Tests["y"] != deptest.TestInjective {
		t.Errorf("test = %s, want injective", r.Tests["y"])
	}
}

// TestDependentMatchesBlockers checks LoopReport.Dependent against the
// blocker text it stands for: the arrays of the "carried dependence on
// array" blockers, in order, over the small kernels and 40 generated
// programs in every mode.
func TestDependentMatchesBlockers(t *testing.T) {
	var srcs []string
	for _, k := range kernels.All(kernels.Small) {
		srcs = append(srcs, k.Source)
	}
	for seed := int64(0); seed < 40; seed++ {
		srcs = append(srcs, progen.Generate(rand.New(rand.NewSource(seed)), progen.Config{N: 24, MaxBlocks: 8}))
	}
	dependent := 0
	for _, src := range srcs {
		for _, mode := range []Mode{Full, NoIAA, Baseline} {
			p, _ := build(t, src, mode)
			for _, r := range p.Run() {
				var want []string
				for _, b := range r.Blockers {
					if arr, ok := strings.CutPrefix(b, "carried dependence on array "); ok {
						want = append(want, arr)
					}
				}
				if !slices.Equal(r.Dependent, want) {
					t.Errorf("%s (%v): Dependent = %v, blockers name %v", r.Name, mode, r.Dependent, want)
				}
				dependent += len(want)
			}
		}
	}
	if dependent == 0 {
		t.Fatal("no loop was kept serial by an array dependence: the check is vacuous")
	}
	t.Logf("%d dependent arrays checked", dependent)
}

// TestGotoBodiesStayParallel pins two loops whose GOTOs stay inside the
// body and whose scalar is assigned before every read: a forward GOTO that
// skips a store, and a GOTO-formed countdown.
func TestGotoBodiesStayParallel(t *testing.T) {
	for file, private := range map[string]string{
		"goto_skips_one_store.fl": "x",
		"goto_countdown.fl":       "w",
	} {
		for _, mode := range allModes {
			pz, _ := build(t, shape(t, file), mode)
			r := reportByName(pz.Run(), "do_i")
			if r == nil || !r.Parallel || !slices.Equal(r.Private, []string{private}) {
				t.Errorf("%s (%v): want PARALLEL private(%s), got %+v", file, mode, private, r)
			}
		}
	}
}
