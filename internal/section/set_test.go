package section

import (
	"testing"

	"repro/internal/expr"
)

func TestSubtractMustUnderApproximates(t *testing.T) {
	s := New("x", c(1), v("n"))
	// Covered low end: remainder is exactly the high part.
	r := s.SubtractMust(New("x", c(1), c(3)))
	if r == nil || !r.Equal(New("x", c(4), v("n"))) {
		t.Errorf("got %v", r)
	}
	// Unknown relationship: MUST must drop to nil.
	if got := s.SubtractMust(New("x", v("q"), v("q").AddConst(3))); got != nil {
		t.Errorf("unknown cover should yield nil, got %s", got)
	}
	// Different array: untouched.
	if got := s.SubtractMust(New("y", c(1), v("n"))); got == nil || !got.Equal(s) {
		t.Errorf("other array: %v", got)
	}
	// Full cover: nil.
	if got := s.SubtractMust(New("x", c(1), v("n"))); got != nil {
		t.Errorf("full cover: %v", got)
	}
}

func TestSubtractMustDisjointBelow(t *testing.T) {
	// s = [5:10], cover = [1:3] (provably disjoint): remainder is all of s.
	s := New("x", c(5), c(10))
	r := s.SubtractMust(New("x", c(1), c(3)))
	if r == nil || !r.Equal(s) {
		t.Errorf("disjoint subtract: %v", r)
	}
	// Not provably disjoint and cut conditions unprovable: nil (sound).
	s2 := New("x", v("p"), c(10))
	r2 := s2.SubtractMust(New("x", c(1), c(3)))
	if r2 != nil {
		t.Errorf("unprovable trim must drop to nil for MUST, got %s", r2)
	}
}

func TestIntersectMust(t *testing.T) {
	s1 := NewSet(New("x", c(1), v("n")))
	s2 := NewSet(New("x", c(1), v("n").AddConst(-1)))
	got := s1.IntersectMust(s2)
	// [1:n-1] is contained in [1:n]: it survives.
	if got.Empty() {
		t.Fatal("intersection lost the contained section")
	}
	secs := got.Sections()
	if len(secs) != 1 || !secs[0].Equal(New("x", c(1), v("n").AddConst(-1))) {
		t.Errorf("got %s", got)
	}
	// Disjoint arrays: empty.
	s3 := NewSet(New("y", c(1), v("n")))
	if !s1.IntersectMust(s3).Empty() {
		t.Error("cross-array intersection must be empty")
	}
}

func TestAggregateMayEnv(t *testing.T) {
	env := expr.Env{"i": expr.NewRange(c(1), v("n"))}
	// Point x(i) widens to [1:n].
	s := Elem("x", v("i"))
	g := s.AggregateMayEnv(env)
	if !g.Equal(New("x", c(1), v("n"))) {
		t.Errorf("got %s", g)
	}
	// A dimension with an unboundable mention becomes unbounded.
	opaque := Elem("x", expr.FromAST(parseE(t, "p(i)")))
	g2 := opaque.AggregateMayEnv(env)
	if g2.Dims[0].Lo != nil || g2.Dims[0].Hi != nil {
		t.Errorf("opaque mention should widen to unbounded: %s", g2)
	}
	// Invariant sections unchanged.
	inv := New("x", c(2), c(5))
	if !inv.AggregateMayEnv(env).Equal(inv) {
		t.Error("invariant section changed")
	}
	// Unbounded env var wipes the bound that mentions it.
	env2 := expr.Env{"i": {}}
	g3 := s.AggregateMayEnv(env2)
	if g3.Dims[0].Lo != nil || g3.Dims[0].Hi != nil {
		t.Errorf("unbounded env: %s", g3)
	}
}

func TestSetCloneIsolation(t *testing.T) {
	s := NewSet(New("x", c(1), c(5)))
	cl := s.Clone()
	cl.AddMust(New("y", c(1), c(2)))
	if len(s.Sections()) != 1 {
		t.Error("clone mutation leaked into original")
	}
	var nilSet *Set
	if !nilSet.Empty() {
		t.Error("nil set should be empty")
	}
	if nilSet.Clone() == nil {
		t.Error("Clone of nil should allocate")
	}
}

func TestSetOrderAndString(t *testing.T) {
	s := NewSet()
	s.AddMay(New("y", c(2), c(3)))
	s.AddMay(New("x", c(1), c(5)))
	if secs := s.Sections(); len(secs) != 2 || secs[0].Array != "y" || secs[1].Array != "x" {
		t.Errorf("Sections does not keep insertion order: %s", s)
	}
	if str := s.String(); str != "{y[2:3], x[1:5]}" {
		t.Errorf("String: %q", str)
	}
	if (&Set{}).String() != "{}" {
		t.Error("empty set rendering")
	}
}

func TestAddMayKeepsSeparateWhenHullLossy(t *testing.T) {
	s := NewSet()
	s.AddMay(New("x", c(0), c(0)))
	s.AddMay(New("x", v("n"), v("n"))) // order vs 0 unknown
	if len(s.Sections()) != 2 {
		t.Errorf("lossy hull should keep sections separate: %s", s)
	}
	// Both elements must still be covered.
	if !s.IntersectsWith(NewSet(New("x", c(0), c(0)))) {
		t.Error("first element lost")
	}
}

var sectionsSink []*Section

// TestSectionsAllocatesNothing pins that reading a set's sections hands
// out the set's own slice: no copy, no sort and no rendering per read.
func TestSectionsAllocatesNothing(t *testing.T) {
	s := NewSet(New("z", c(1), c(2)), New("x", v("n"), v("n")), New("y", c(0), v("m")))
	if n := testing.AllocsPerRun(100, func() { sectionsSink = s.Sections() }); n != 0 {
		t.Errorf("Sections: %v allocs/op, want 0", n)
	}
	if len(sectionsSink) != 3 {
		t.Errorf("Sections returned %d sections, want 3", len(sectionsSink))
	}
}
