package lint

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/passes"
	"repro/internal/sem"
)

// buildAudit runs the minimal front half of the pipeline (parse, check,
// reduction recognition, full parallelization) so the auditor sees the
// same reports the real pipeline hands it.
func buildAudit(t *testing.T, src string) (*sem.Info, *parallel.Parallelizer, []*parallel.LoopReport) {
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
	pz := parallel.New(fc, parallel.Full, nil)
	return info, pz, pz.Run()
}

func reportByName(t *testing.T, rs []*parallel.LoopReport, frag string) *parallel.LoopReport {
	t.Helper()
	for _, r := range rs {
		if strings.Contains(r.Name, frag) {
			return r
		}
	}
	t.Fatalf("no report matching %q in %d reports", frag, len(rs))
	return nil
}

func TestAuditConfirmsCleanVerdicts(t *testing.T) {
	// An injective gather: both the fill and the use loop parallelize, and
	// the auditor must agree (replay path for the gather — its subscripts
	// go through an index array, so the static path is ineligible).
	info, pz, reports := buildAudit(t, `program p
  param n = 8
  integer i, idx(n)
  real a(n), b(n)
  do i = 1, n
    idx(i) = i
  end do
  do i = 1, n
    a(idx(i)) = b(idx(i)) + 1.0
  end do
end
`)
	for _, r := range reports {
		if !r.Parallel {
			t.Fatalf("loop %s unexpectedly serial (%v): auditor has nothing to confirm", r.Name, r.Blockers)
		}
	}
	rec := obs.New()
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{Rec: rec})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("clean program audited dirty: %v", diags)
	}
	if got := rec.Counter("lint.audit.confirmed"); got != 2 {
		t.Errorf("confirmed = %d, want 2", got)
	}
	if got := rec.Counter("lint.audit.mismatch"); got != 0 {
		t.Errorf("mismatch = %d, want 0", got)
	}
}

func TestAuditStaticPathCatchesFlippedVerdict(t *testing.T) {
	// a(i+1) = a(i) carries a dependence; forcing the verdict to parallel
	// must be refuted by the small-bounds instantiation alone (affine
	// subscripts, constant bounds).
	info, pz, reports := buildAudit(t, `program p
  param n = 8
  integer i
  real a(n)
  a(1) = 1.0
  do i = 1, n - 1
    a(i + 1) = a(i) * 0.5
  end do
end
`)
	r := reportByName(t, reports, "do_i")
	if r.Parallel {
		t.Fatal("loop should be serial before the flip")
	}
	r.Parallel = true
	r.Blockers = nil
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	got := byCode(diags, CodeAuditParallel)
	if len(got) != 1 {
		t.Fatalf("want 1 IRR9001, got %v", diags)
	}
	d := got[0]
	if d.Severity != Error {
		t.Errorf("severity = %v", d.Severity)
	}
	if d.Span.Start.Line != r.Loop.Pos().Line {
		t.Errorf("diag at %v, loop at %v", d.Span.Start, r.Loop.Pos())
	}
	if !strings.Contains(d.Message, "conflict on a(") {
		t.Errorf("message should name the colliding element: %s", d.Message)
	}
	joined := Render([]Diag{d})
	if !strings.Contains(joined, "exhaustive small-bounds instantiation") {
		t.Errorf("static evidence missing:\n%s", joined)
	}
}

func TestAuditReplayCatchesFlippedVerdict(t *testing.T) {
	// The colliding subscript goes through an index array, so the static
	// path cannot evaluate it; the interpreter replay must catch it.
	info, pz, reports := buildAudit(t, `program p
  param n = 8
  integer i, idx(n)
  real a(n)
  do i = 1, n
    idx(i) = mod(i, 4) + 1
  end do
  do i = 1, n
    a(idx(i)) = a(idx(i)) + 1.0
  end do
end
`)
	var gather *parallel.LoopReport
	for _, r := range reports {
		if !r.Parallel {
			gather = r
		}
	}
	if gather == nil {
		t.Fatal("non-injective gather should be serial before the flip")
	}
	gather.Parallel = true
	gather.Blockers = nil
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	got := byCode(diags, CodeAuditParallel)
	if len(got) != 1 {
		t.Fatalf("want 1 IRR9001, got %v", diags)
	}
	joined := Render(got)
	if !strings.Contains(joined, "interpreter footprint replay") {
		t.Errorf("replay evidence missing:\n%s", joined)
	}
	if !strings.Contains(got[0].Message, "conflict on a(2)") {
		t.Errorf("want the concrete element a(2): %s", got[0].Message)
	}
}

func TestAuditPrivatizationViolation(t *testing.T) {
	// t is read at the top of every iteration and written at the bottom:
	// claiming it private must be refuted (the first iteration reads a
	// value the loop never wrote).
	info, pz, reports := buildAudit(t, `program p
  param n = 8
  integer i
  real a(n), t
  t = 0.5
  do i = 1, n
    a(i) = t
    t = real(i)
  end do
end
`)
	r := reportByName(t, reports, "do_i")
	if r.Parallel {
		t.Fatal("loop should be serial before the flip")
	}
	r.Parallel = true
	r.Blockers = nil
	r.Private = []string{"t"}
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	got := byCode(diags, CodeAuditPrivate)
	if len(got) != 1 {
		t.Fatalf("want 1 IRR9002, got %v", diags)
	}
	if !strings.Contains(got[0].Message, `reads t before any write`) {
		t.Errorf("message: %s", got[0].Message)
	}
}

func TestAuditZeroTripLoopSkipped(t *testing.T) {
	// A loop the replay never iterates yields no evidence: telemetry says
	// skipped, and no diagnostic is emitted.
	info, pz, reports := buildAudit(t, `program p
  integer i
  real a(4)
  do i = 1, 0
    a(i) = 1.0
  end do
end
`)
	r := reportByName(t, reports, "do_i")
	if !r.Parallel {
		t.Fatalf("trivial loop should be parallel: %v", r.Blockers)
	}
	rec := obs.New()
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{Rec: rec})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("zero-trip loop reported: %v", diags)
	}
	if got := rec.Counter("lint.audit.skipped"); got != 1 {
		t.Errorf("skipped = %d, want 1", got)
	}
	if got := rec.Counter("lint.audit.confirmed"); got != 0 {
		t.Errorf("confirmed = %d, want 0", got)
	}
}

// TestAuditWrapAroundSubscript covers a subscript that wraps at 64 bits.
// The dependence tests reason over mathematical integers, where iterations
// 4 and 8 of this loop write the distinct elements 2^64+1 and 2^65+1; the
// interpreter's integer * and + wrap, so both write x(1), and P=8 in
// reverse chunk order leaves 4 where a serial run leaves 8. The loop must
// either stay serial or carry IRR9001 from the small-bounds instantiation,
// whose evaluator wraps like the interpreter. The test holds for the
// dependence tests as they are and after a fix that makes them
// overflow-aware.
func TestAuditWrapAroundSubscript(t *testing.T) {
	info, pz, reports := buildAudit(t, `program p
  integer x(8), i
  do i = 4, 8, 4
    x(i * 4611686018427387904 + 1) = i
  end do
end
`)
	r := reportByName(t, reports, "do_i")
	if !r.Parallel {
		t.Logf("loop %s is serial: %v", r.Name, r.Blockers)
		return
	}
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	for _, d := range byCode(diags, CodeAuditParallel) {
		if d.Span.Start.Line == r.Loop.Pos().Line && strings.Contains(d.Message, "conflict on x(1)") {
			return
		}
	}
	t.Fatalf("loop %s is parallel though iterations 4 and 8 both write x(1) once the subscript wraps, and the audit has no IRR9001 for it: %v", r.Name, diags)
}

func TestAuditNonInjectiveWitness(t *testing.T) {
	// A genuinely serial non-injective gather: the auditor must surface
	// IRR2003 with the failing query's propagation trace and the concrete
	// conflict the replay observed.
	info, pz, reports := buildAudit(t, `program p
  param n = 8
  integer i, idx(n)
  real a(n)
  do i = 1, n
    idx(i) = mod(i, 4) + 1
  end do
  do i = 1, n
    a(idx(i)) = a(idx(i)) + 1.0
  end do
end
`)
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	got := byCode(diags, CodeNonInjective)
	if len(got) != 1 {
		t.Fatalf("want 1 IRR2003, got %v", diags)
	}
	d := got[0]
	if d.Severity != Warning {
		t.Errorf("severity = %v", d.Severity)
	}
	if !strings.Contains(d.Message, `index array "idx"`) {
		t.Errorf("message should name idx: %s", d.Message)
	}
	rendered := Render([]Diag{d})
	if !strings.Contains(rendered, "concrete witness from replay") {
		t.Errorf("replay witness missing:\n%s", rendered)
	}
	if !strings.Contains(rendered, "query trace:") {
		t.Errorf("propagation trace missing:\n%s", rendered)
	}
	// No IRR9001: the verdict (serial) and the oracle agree.
	if bad := byCode(diags, CodeAuditParallel); len(bad) != 0 {
		t.Errorf("serial verdict wrongly refuted: %v", bad)
	}
}

// TestAuditFootprintCap pins what maxFootprint counts: distinct locations
// one dynamic execution of a loop touches, reads and writes apiece. In the
// first program the second loop writes 524,000 elements of c and reads as
// many of b, which is 1,048,000 locations, just under the 2^20 cap; the
// third loop touches 1.2M and is the only one the audit gives up on.
func TestAuditFootprintCap(t *testing.T) {
	info, pz, reports := buildAudit(t, `program cap
  real a(600000), b(600000), c(600000)
  integer i
  do i = 1, 600000
    b(i) = real(i)
  end do
  do i = 1, 524000
    c(i) = b(i) + 2.0
  end do
  do i = 1, 600000
    a(i) = b(i) + 1.0
  end do
end
`)
	for _, r := range reports {
		if !r.Parallel {
			t.Fatalf("loop %s is serial: %v", r.Name, r.Blockers)
		}
	}
	rec := obs.New()
	diags, err := Audit(info, pz.Property(), reports, AuditOptions{Rec: rec})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(diags) != 1 || diags[0].Code != CodeAuditIncomplete || diags[0].Span.Start.Line != 10 ||
		!strings.Contains(diags[0].Message, "cap/do_i@10 gave up: footprint exceeded 1048576 entries") {
		t.Fatalf("want exactly one IRR9003 on cap/do_i@10, got:\n%s", Render(diags))
	}
	if got := rec.Counter("lint.audit.confirmed"); got != 2 {
		t.Errorf("confirmed = %d, want 2", got)
	}
	if got := rec.Counter("lint.audit.skipped"); got != 1 {
		t.Errorf("skipped = %d, want 1", got)
	}

	// Each execution of the inner loop reads and writes 300,000 elements
	// of a and reads as many of b, 900,000 locations, under the cap; the
	// three executions together touch 2.7M.
	info, pz, reports = buildAudit(t, `program rep
  real a(300000), b(300000)
  integer i, k
  do k = 1, 3
    do i = 1, 300000
      a(i) = a(i) + b(i)
    end do
  end do
end
`)
	if r := reportByName(t, reports, "do_i"); !r.Parallel {
		t.Fatalf("loop %s is serial: %v", r.Name, r.Blockers)
	}
	rec = obs.New()
	diags, err = Audit(info, pz.Property(), reports, AuditOptions{Rec: rec})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("the cap counts one execution of a loop, not all of them:\n%s", Render(diags))
	}
	if got := rec.Counter("lint.audit.confirmed"); got != 1 {
		t.Errorf("confirmed = %d, want 1", got)
	}
}
