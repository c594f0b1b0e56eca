package property

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// doOver finds the first DO loop in the unit whose body (transitively)
// writes the given array.
func (w *world) doOver(unit, array string) *lang.DoStmt {
	w.t.Helper()
	s := w.stmtWhere(unit, func(s lang.Stmt) bool {
		d, ok := s.(*lang.DoStmt)
		if !ok {
			return false
		}
		writes := false
		lang.WalkStmts(d.Body, func(b lang.Stmt) bool {
			if as, ok := b.(*lang.AssignStmt); ok {
				if ar, ok := as.Lhs.(*lang.ArrayRef); ok && ar.Name == array {
					writes = true
				}
			}
			return !writes
		})
		return writes
	})
	return s.(*lang.DoStmt)
}

// fillProgram wraps a fill-loop body into a compilable program. header is
// the DO header ("do i = 1, n" unless overridden).
func fillProgram(header, body string) string {
	return fmt.Sprintf(`
program fill
  param n = 10
  integer i, c, t
  integer x(n + 1), d(n), y(n), q(n + 1)
  real z(n)
  %s
%s
  end do
end
`, header, body)
}

// TestMatchRecurrenceIdioms drives the syntactic matcher through the
// definition idioms of §3.2.8 — (b1) x(i)=x(i-1)+d, (b2) x(i+1)=x(i)+d,
// (a) the accumulator form — and the shapes it must reject.
func TestMatchRecurrenceIdioms(t *testing.T) {
	cases := []struct {
		name   string
		header string // DO header; "" means "do i = 1, n"
		body   string
		match  bool
		// wantDist is the constant distance (checked only when constDist).
		constDist bool
		wantDist  int64
		// pair offsets relative to the loop bounds.
		wantPairLo, wantPairHi int64
	}{
		{
			name: "b1-direct", body: "    x(i) = x(i - 1) + 2",
			match: true, constDist: true, wantDist: 2, wantPairLo: -1, wantPairHi: -1,
		},
		{
			name: "b2-shifted", body: "    x(i + 1) = x(i) + 3",
			match: true, constDist: true, wantDist: 3, wantPairLo: 0, wantPairHi: 0,
		},
		{
			name: "b2-array-dist", body: "    x(i + 1) = x(i) + d(i)",
			match: true, wantPairLo: 0, wantPairHi: 0,
		},
		{
			name: "a-accumulator", body: "    x(i) = t\n    t = t + 4",
			match: true, constDist: true, wantDist: 4, wantPairLo: 0, wantPairHi: -1,
		},
		{
			name: "a-wrong-order", body: "    t = t + 4\n    x(i) = t",
			match: false, // t updated before the write: distance would be off by one pair
		},
		{
			name: "benign-extra-write", body: "    x(i + 1) = x(i) + 2\n    y(i) = 7",
			match: true, constDist: true, wantDist: 2, wantPairLo: 0, wantPairHi: 0,
		},
		{
			name: "interfering-dist-write", body: "    x(i + 1) = x(i) + d(i)\n    d(i) = 3",
			match: false, // the loop rewrites the distance array it reads
		},
		{
			name: "two-array-writes", body: "    x(i) = x(i - 1) + 1\n    x(i + 1) = 0",
			match: false,
		},
		{
			name: "self-referencing-dist", body: "    x(i) = x(i - 1) + x(1)",
			match: false, // distance mentions the recurrence array
		},
		{
			name:   "strided-step",
			header: "do i = 1, n, 2", body: "    x(i + 1) = x(i) + 1",
			match: false, // stride breaks the value chain between pairs
		},
		{
			name:   "downward-step",
			header: "do i = n, 2, -1", body: "    x(i) = x(i - 1) + 1",
			match: false, // x(i-1) is overwritten after x(i) reads it
		},
		{
			name: "conditional-body", body: "    if (i > 3) then\n      x(i) = x(i - 1) + 1\n    end if",
			match: false, // guarded writes are the conditional matcher's job
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			header := tc.header
			if header == "" {
				header = "do i = 1, n"
			}
			w := build(t, fillProgram(header, tc.body))
			d := w.doOver("fill", "x")
			m := matchRecurrence(d, "x")
			if (m != nil) != tc.match {
				t.Fatalf("matchRecurrence = %v, want match=%t", m, tc.match)
			}
			if m == nil {
				return
			}
			if tc.constDist {
				cst, ok := m.dist.IsConst()
				if !ok || cst != tc.wantDist {
					t.Errorf("dist = %v, want constant %d", m.dist, tc.wantDist)
				}
			}
			if cst, ok := m.pairLoOff.IsConst(); !ok || cst != tc.wantPairLo {
				t.Errorf("pairLoOff = %v, want %d", m.pairLoOff, tc.wantPairLo)
			}
			if cst, ok := m.pairHiOff.IsConst(); !ok || cst != tc.wantPairHi {
				t.Errorf("pairHiOff = %v, want %d", m.pairHiOff, tc.wantPairHi)
			}
		})
	}
}

// TestNetKillPairs covers the kill-side bookkeeping of the matcher,
// including the MAY fallback when the write/pair ranges do not compare.
func TestNetKillPairs(t *testing.T) {
	lo, hi := expr.One, expr.Var("n")

	// b2 shape: writes [lo+1:hi+1], breaking pairs [lo:hi+1]; pairs [lo:hi]
	// are regenerated, so only pair hi+1 is net-killed.
	b2 := &recurrenceMatch{
		array:     "x",
		pairLoOff: expr.Zero, pairHiOff: expr.Zero,
		writeLoOff: expr.One, writeHiOff: expr.One,
	}
	kills := b2.netKillPairs(lo, hi)
	want := section.New("x", hi.AddConst(1), hi.AddConst(1))
	if len(kills) != 1 || kills[0].String() != want.String() {
		t.Fatalf("b2 net kill = %v, want [%v]", kills, want)
	}

	// b1 shape: writes [lo:hi], breaking pairs [lo-1:hi]; pairs [lo-1:hi-1]
	// are regenerated, so only pair hi is net-killed.
	b1 := &recurrenceMatch{
		array:     "x",
		pairLoOff: expr.Const(-1), pairHiOff: expr.Const(-1),
		writeLoOff: expr.Zero, writeHiOff: expr.Zero,
	}
	kills = b1.netKillPairs(lo, hi)
	want = section.New("x", hi, hi)
	if len(kills) != 1 || kills[0].String() != want.String() {
		t.Fatalf("b1 net kill = %v, want [%v]", kills, want)
	}

	// Exact cover: pairs == written pair range — nothing net-killed.
	cover := &recurrenceMatch{
		array:     "x",
		pairLoOff: expr.Const(-1), pairHiOff: expr.Zero,
		writeLoOff: expr.Zero, writeHiOff: expr.Zero,
	}
	if kills = cover.netKillPairs(lo, hi); len(kills) != 0 {
		t.Fatalf("covering fill net kill = %v, want none", kills)
	}

	// Incomparable offsets (symbolic pair shift): the MAY fallback must
	// kill the whole written pair range rather than guess.
	may := &recurrenceMatch{
		array:     "x",
		pairLoOff: expr.Var("p"), pairHiOff: expr.Var("p"),
		writeLoOff: expr.Zero, writeHiOff: expr.Zero,
	}
	kills = may.netKillPairs(lo, hi)
	if len(kills) != 1 {
		t.Fatalf("MAY fallback = %v, want one conservative section", kills)
	}
	want = section.New("x", lo.AddConst(-1), hi)
	if kills[0].String() != want.String() {
		t.Errorf("MAY fallback section = %v, want %v", kills[0], want)
	}
}

// TestDeriveRecurrence drives the definition-site fixpoint end to end via
// AuditFill: sign derivation for constant, modular, array-valued and
// conditional increments, and the failure and ablation paths.
func TestDeriveRecurrence(t *testing.T) {
	cases := []struct {
		name string
		src  string
		arr  string
		want DeriveSign
	}{
		{
			name: "const-positive",
			src:  fillProgram("do i = 1, n", "    x(i + 1) = x(i) + 2"),
			arr:  "x", want: SignPos,
		},
		{
			name: "mod-strict",
			src:  fillProgram("do i = 1, n", "    x(i + 1) = x(i) + 1 + mod(i, 4)"),
			arr:  "x", want: SignPos,
		},
		{
			name: "mod-nonneg",
			src:  fillProgram("do i = 1, n", "    x(i + 1) = x(i) + mod(i, 4)"),
			arr:  "x", want: SignNonNeg,
		},
		{
			name: "array-dist-via-bounds-subquery",
			src: `
program fill
  param n = 10
  integer i, k
  integer x(n + 1), d(n)
  do k = 1, n
    d(k) = 1 + mod(k, 3)
  end do
  do i = 1, n
    x(i + 1) = x(i) + d(i)
  end do
end
`,
			arr: "x", want: SignPos,
		},
		{
			name: "conditional-join-strict",
			src: fillProgram("do i = 1, n",
				"    if (i > 3) then\n      x(i + 1) = x(i) + 1\n    else\n      x(i + 1) = x(i) + 2\n    end if"),
			arr: "x", want: SignPos,
		},
		{
			name: "conditional-join-downgrade",
			src: fillProgram("do i = 1, n",
				"    if (i > 3) then\n      x(i + 1) = x(i) + 1\n    else\n      x(i + 1) = x(i) - 1\n    end if"),
			arr: "x", want: SignUnknown,
		},
		{
			name: "decrement-fails",
			src:  fillProgram("do i = 1, n", "    x(i + 1) = x(i) - 1"),
			arr:  "x", want: SignUnknown,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := build(t, tc.src)
			d := w.doOver("fill", tc.arr)
			dr := w.an.AuditFill(d, tc.arr)
			if dr == nil {
				t.Fatal("AuditFill returned nil for a recurrence-shaped fill")
			}
			if dr.Sign != tc.want {
				t.Fatalf("derived sign = %v, want %v\nsteps:\n  %s",
					dr.Sign, tc.want, strings.Join(dr.Steps, "\n  "))
			}
			if dr.Monotonic() != (tc.want >= SignNonNeg) || dr.Strict() != (tc.want == SignPos) {
				t.Errorf("Monotonic/Strict inconsistent with sign %v", dr.Sign)
			}
			if len(dr.Steps) == 0 {
				t.Error("derivation must log its fixpoint steps")
			}
		})
	}
}

// TestNestedQueryTimeCountedOnce: the derivation of x's monotonicity
// issues a nested bounds sub-query on the increment array d. The nested
// query runs inside the outer one's time, so Stats.Elapsed must not exceed
// the wall time measured around the outermost Verify.
func TestNestedQueryTimeCountedOnce(t *testing.T) {
	w := build(t, `
program fill
  param n = 10
  integer i, k, v
  integer x(n + 1), d(n)
  do k = 1, n
    d(k) = 1 + mod(k, 3)
  end do
  do i = 1, n
    x(i + 1) = x(i) + d(i)
  end do
  v = x(1)
end
`)
	use := w.assignTo("fill", "v")
	start := time.Now()
	ok := w.an.Verify(NewMonotonic("x"), use, sec1("x", expr.One, expr.Var("n")))
	wall := time.Since(start)
	if !ok {
		t.Fatal("x is filled by a strictly increasing recurrence; Monotonic must hold")
	}
	if q := w.an.Stats.Queries; q < 2 {
		t.Fatalf("Stats.Queries = %d, want >= 2 (outer query plus the bounds sub-query)", q)
	}
	if e := w.an.Stats.Elapsed; e > wall {
		t.Errorf("Stats.Elapsed = %v exceeds the %v wall time of the outermost Verify: nested query time counted twice", e, wall)
	}
}

// TestDeriveRespectsAblation: under NoRecurrence the definition-site
// derivation must be completely disabled, including for diagnostics.
func TestDeriveRespectsAblation(t *testing.T) {
	w := build(t, fillProgram("do i = 1, n", "    x(i + 1) = x(i) + 2"))
	w.an.NoRecurrence = true
	if dr := w.an.AuditFill(w.doOver("fill", "x"), "x"); dr != nil {
		t.Fatalf("AuditFill under NoRecurrence = %v, want nil", dr)
	}
}
