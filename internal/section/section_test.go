package section

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/lang"
)

func c(v int64) *expr.Expr  { return expr.Const(v) }
func v(n string) *expr.Expr { return expr.Var(n) }

// parseE parses a lone expression by wrapping it in a dummy assignment.
func parseE(t *testing.T, src string) lang.Expr {
	t.Helper()
	prog, err := lang.Parse("program t\n zz9 = " + src + "\nend\n")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog.Main.Body[0].(*lang.AssignStmt).Rhs
}

func sec1(array string, lo, hi *expr.Expr) *Section { return New(array, lo, hi) }

func TestContainsAndDisjoint(t *testing.T) {
	s := sec1("x", c(1), v("n"))
	inner := sec1("x", c(1), v("n").AddConst(-1))
	if !s.Contains(inner) {
		t.Error("x[1:n] should contain x[1:n-1]")
	}
	if inner.Contains(s) {
		t.Error("x[1:n-1] should not contain x[1:n]")
	}
	other := sec1("y", c(1), v("n"))
	if !s.Disjoint(other) {
		t.Error("different arrays are disjoint")
	}
	above := sec1("x", v("n").AddConst(1), v("n").AddConst(5))
	if !s.Disjoint(above) {
		t.Error("x[1:n] and x[n+1:n+5] should be disjoint")
	}
	if s.Disjoint(inner) {
		t.Error("overlapping sections reported disjoint")
	}
}

func TestProvablyEmpty(t *testing.T) {
	if !sec1("x", c(5), c(1)).ProvablyEmpty() {
		t.Error("x[5:1] is empty")
	}
	if sec1("x", c(1), c(1)).ProvablyEmpty() {
		t.Error("x[1:1] is not empty")
	}
	if sec1("x", v("p"), v("q")).ProvablyEmpty() {
		t.Error("x[p:q] emptiness unknown, must not be provably empty")
	}
}

func TestUnionMust(t *testing.T) {
	// Adjacent: [p:p+4] ∪ [p+5:p+5] = [p:p+5]
	s1 := sec1("x", v("p"), v("p").AddConst(4))
	s2 := Elem("x", v("p").AddConst(5))
	u := s1.UnionMust(s2)
	if u == nil {
		t.Fatal("adjacent union failed")
	}
	want := sec1("x", v("p"), v("p").AddConst(5))
	if !u.Equal(want) {
		t.Errorf("got %s, want %s", u, want)
	}
	// Gap: [p:p+4] ∪ [p+6:p+6] is not exactly representable.
	s3 := Elem("x", v("p").AddConst(6))
	if got := s1.UnionMust(s3); got != nil {
		t.Errorf("gapped union should fail, got %s", got)
	}
	// Contained.
	s4 := Elem("x", v("p").AddConst(2))
	if got := s1.UnionMust(s4); got == nil || !got.Equal(s1) {
		t.Errorf("contained union = %v", got)
	}
}

func TestUnionMay(t *testing.T) {
	s1 := sec1("x", v("n").AddConst(1), v("n").AddConst(5))
	s2 := sec1("x", v("n").AddConst(10), v("n").AddConst(20))
	u := s1.UnionMay(s2)
	want := sec1("x", v("n").AddConst(1), v("n").AddConst(20))
	if u == nil || !u.Equal(want) {
		t.Errorf("got %v, want %s", u, want)
	}
	// Unknown relative order of bounds falls back to unbounded.
	s3 := sec1("x", v("p"), v("p"))
	u2 := s1.UnionMay(s3)
	if u2.Dims[0].Lo != nil || u2.Dims[0].Hi != nil {
		t.Errorf("hull with unknown bound should be unbounded, got %s", u2)
	}
}

func TestSubtractMay(t *testing.T) {
	// [1:n] - [1:p] = [p+1:n] (over-approx of the true remainder).
	s := sec1("x", c(1), v("n"))
	cover := sec1("x", c(1), v("p"))
	r := s.SubtractMay(cover)
	want := sec1("x", v("p").AddConst(1), v("n"))
	if r == nil || !r.Equal(want) {
		t.Errorf("got %v, want %s", r, want)
	}
	// Full cover → nil.
	if got := s.SubtractMay(sec1("x", c(1), v("n"))); got != nil {
		t.Errorf("full cover should leave nothing, got %s", got)
	}
	// Middle cut keeps everything (contiguous over-approximation).
	mid := sec1("x", c(3), c(4))
	if got := s.SubtractMay(mid); got == nil || !got.Equal(s) {
		t.Errorf("middle cut = %v, want original", got)
	}
	// Different array unchanged.
	if got := s.SubtractMay(sec1("y", c(1), v("n"))); got == nil || !got.Equal(s) {
		t.Errorf("other-array subtraction = %v", got)
	}
}

func TestSubtractHighEnd(t *testing.T) {
	s := sec1("x", c(1), v("n"))
	cover := sec1("x", c(5), v("n"))
	r := s.SubtractMay(cover)
	want := sec1("x", c(1), c(4))
	if r == nil || !r.Equal(want) {
		t.Errorf("got %v, want %s", r, want)
	}
}

func TestAggregateMay(t *testing.T) {
	// x(i) for i in [1:n] → x[1:n]
	s := Elem("x", v("i"))
	g := s.AggregateMay("i", c(1), v("n"))
	want := sec1("x", c(1), v("n"))
	if !g.Equal(want) {
		t.Errorf("got %s, want %s", g, want)
	}
	// x(p(i)) cannot be bounded → unbounded dimension.
	opaque := Elem("x", expr.FromAST(parseE(t, "p(i)")))
	g2 := opaque.AggregateMay("i", c(1), v("n"))
	if g2.Dims[0].Lo != nil || g2.Dims[0].Hi != nil {
		t.Errorf("opaque subscript should aggregate to unbounded, got %s", g2)
	}
}

func TestAggregateMust(t *testing.T) {
	// Dense: x(i) over [1:n] → [1:n]
	s := Elem("x", v("i"))
	g := s.AggregateMust("i", c(1), v("n"))
	if g == nil || !g.Equal(sec1("x", c(1), v("n"))) {
		t.Errorf("dense aggregate = %v", g)
	}
	// Strided: x(2*i) has holes → nil.
	s2 := Elem("x", v("i").MulConst(2))
	if got := s2.AggregateMust("i", c(1), v("n")); got != nil {
		t.Errorf("strided aggregate should fail, got %s", got)
	}
	// Overlapping windows: x(i:i+2) over [1:n] → [1:n+2].
	s3 := sec1("x", v("i"), v("i").AddConst(2))
	g3 := s3.AggregateMust("i", c(1), v("n"))
	if g3 == nil || !g3.Equal(sec1("x", c(1), v("n").AddConst(2))) {
		t.Errorf("window aggregate = %v", g3)
	}
	// Invariant section: unchanged.
	s4 := sec1("x", c(1), v("m"))
	g4 := s4.AggregateMust("i", c(1), v("n"))
	if g4 == nil || !g4.Equal(s4) {
		t.Errorf("invariant aggregate = %v", g4)
	}
	// Decreasing sweep: x(n-i+1) over i in [1:n] → [1:n].
	ni := v("n").Sub(v("i")).AddConst(1)
	s5 := Elem("x", ni)
	g5 := s5.AggregateMust("i", c(1), v("n"))
	if g5 == nil || !g5.Equal(sec1("x", c(1), v("n"))) {
		t.Errorf("decreasing aggregate = %v", g5)
	}
}

func TestMultiDim(t *testing.T) {
	// z(k, j) for j in [1:p], k fixed.
	zkj := NewMulti("z", []expr.Range{expr.Point(v("k")), expr.Point(v("j"))})
	g := zkj.AggregateMust("j", c(1), v("p"))
	want := NewMulti("z", []expr.Range{expr.Point(v("k")), expr.NewRange(c(1), v("p"))})
	if g == nil || !g.Equal(want) {
		t.Errorf("got %v, want %s", g, want)
	}
	// Two varying dims fail MUST aggregation.
	zjj := NewMulti("z", []expr.Range{expr.Point(v("j")), expr.Point(v("j"))})
	if got := zjj.AggregateMust("j", c(1), v("p")); got != nil {
		t.Errorf("two varying dims should fail, got %s", got)
	}
}

func TestUniversal(t *testing.T) {
	u := Universal("x", 1)
	s := sec1("x", c(1), c(10))
	if !u.Contains(s) {
		t.Error("universal should contain everything")
	}
	if got := s.SubtractMay(u); got != nil {
		t.Errorf("subtracting universal leaves %s", got)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	s.AddMust(Elem("x", c(1)))
	s.AddMust(Elem("x", c(2)))
	s.AddMust(Elem("y", c(1)))
	if len(s.Sections()) != 2 {
		t.Errorf("adjacent elements should merge: %s", s)
	}
	cover := NewSet(sec1("x", c(1), c(5)), sec1("y", c(1), c(5)))
	if rem := s.SubtractMust(cover); !rem.Empty() {
		t.Errorf("%s should be covered by %s, leaves %s", s, cover, rem)
	}
	if s.SubtractMust(NewSet(sec1("x", c(1), c(5)))).Empty() {
		t.Error("y section not covered")
	}
}

func TestSetSubtract(t *testing.T) {
	reads := NewSet(sec1("x", c(1), v("n")))
	writes := NewSet(sec1("x", c(1), v("n")))
	rem := reads.SubtractMay(writes)
	if !rem.Empty() {
		t.Errorf("remainder = %s, want empty", rem)
	}
	partial := NewSet(sec1("x", c(1), v("p")))
	rem2 := reads.SubtractMay(partial)
	if rem2.Empty() {
		t.Error("partial cover should leave a remainder")
	}
}

func TestSetIntersects(t *testing.T) {
	s1 := NewSet(sec1("x", c(1), v("p")))
	s2 := NewSet(sec1("x", v("p").AddConst(1), v("p").AddConst(9)))
	if s1.IntersectsWith(s2) {
		t.Error("provably disjoint sets reported intersecting")
	}
	s3 := NewSet(sec1("x", v("p"), v("p").AddConst(9)))
	if !s1.IntersectsWith(s3) {
		t.Error("overlapping sets must report (possible) intersection")
	}
}

// --- property-based tests ---------------------------------------------------

// concretize evaluates a section with constant bounds into a set of ints.
func concretize(s *Section) (map[int64]bool, bool) {
	if s == nil {
		return map[int64]bool{}, true
	}
	lo, ok1 := s.Dims[0].Lo.IsConst()
	hi, ok2 := s.Dims[0].Hi.IsConst()
	if !ok1 || !ok2 {
		return nil, false
	}
	m := map[int64]bool{}
	for i := lo; i <= hi; i++ {
		m[i] = true
	}
	return m, true
}

func randSec(r *rand.Rand) *Section {
	lo := int64(r.Intn(20) - 5)
	hi := lo + int64(r.Intn(10)) - 2 // sometimes empty
	return sec1("x", c(lo), c(hi))
}

func TestQuickSubtractOverApproximates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, o := randSec(r), randSec(r)
		rem := s.SubtractMay(o)
		sv, _ := concretize(s)
		ov, _ := concretize(o)
		rv, ok := concretize(rem)
		if !ok {
			return true
		}
		// Every element of s \ o must be in rem.
		for e := range sv {
			if !ov[e] && !rv[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionMustUnderApproximates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, o := randSec(r), randSec(r)
		u := s.UnionMust(o)
		if u == nil {
			return true // giving up is always sound
		}
		sv, _ := concretize(s)
		ov, _ := concretize(o)
		uv, ok := concretize(u)
		if !ok {
			return true
		}
		// Every element of u must be in s ∪ o.
		for e := range uv {
			if !sv[e] && !ov[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionMayOverApproximates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, o := randSec(r), randSec(r)
		u := s.UnionMay(o)
		sv, _ := concretize(s)
		ov, _ := concretize(o)
		uv, ok := concretize(u)
		if !ok {
			return true // unbounded covers everything
		}
		for e := range sv {
			if !uv[e] {
				return false
			}
		}
		for e := range ov {
			if !uv[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickDisjointSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, o := randSec(r), randSec(r)
		if !s.Disjoint(o) {
			return true // "maybe overlapping" is always sound
		}
		sv, _ := concretize(s)
		ov, _ := concretize(o)
		for e := range sv {
			if ov[e] {
				return false // claimed disjoint but overlaps
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
