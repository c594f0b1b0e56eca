package section

import (
	"testing"

	"repro/internal/expr"
)

func benchSection() *Section {
	lo := expr.Var("i").MulConst(2).AddConst(1)
	hi := expr.Var("n").Add(expr.Var("i"))
	return New("a", lo, hi)
}

// BenchmarkKeyUncached measures the full key rendering (what every Key call
// paid before memoization).
func BenchmarkKeyUncached(b *testing.B) {
	s := benchSection()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.renderKey()
	}
}

// BenchmarkKeyCached measures the memoized Key on a warm section.
func BenchmarkKeyCached(b *testing.B) {
	s := benchSection()
	s.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

// TestKeyMemoized checks the memo returns the identical key and that Clone
// does not inherit it (clones are mutated by the set algebra).
func TestKeyMemoized(t *testing.T) {
	s := benchSection()
	k1 := s.Key()
	if k2 := s.Key(); k2 != k1 {
		t.Fatalf("memoized key changed: %q vs %q", k1, k2)
	}
	c := s.Clone()
	c.Dims[0] = expr.Range{Lo: expr.Zero, Hi: expr.One}
	if c.Key() == k1 {
		t.Fatalf("clone inherited the parent's key")
	}
	if s.renderKey() != k1 {
		t.Fatalf("memo diverged from render")
	}
}
