package expr

import "testing"

const benchSrc = "2*i + 3*j - a(i+1) + n*i - 4"

// BenchmarkEqualLegacy measures the pre-interning Equal implementation,
// e.Sub(o).IsZero(): a full subtraction per comparison.
func BenchmarkEqualLegacy(b *testing.B) {
	x := FromAST(parseExpr(b, benchSrc))
	y := FromAST(parseExpr(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Sub(y).IsZero() {
			b.Fatal("not equal")
		}
	}
}

// BenchmarkEqualStructural measures Equal on uninterned expressions: the
// zero-allocation structural fast path.
func BenchmarkEqualStructural(b *testing.B) {
	x := FromAST(parseExpr(b, benchSrc))
	y := FromAST(parseExpr(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("not equal")
		}
	}
}

// BenchmarkEqualInterned measures Equal on interned expressions: a cached
// canonical-key comparison.
func BenchmarkEqualInterned(b *testing.B) {
	in := NewInterner()
	x := in.FromAST(parseExpr(b, benchSrc))
	y := in.FromAST(parseExpr(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("not equal")
		}
	}
}

// BenchmarkStringRender measures the canonical rendering of an uninterned
// expression: sort the term keys and rebuild the string every call.
func BenchmarkStringRender(b *testing.B) {
	x := FromAST(parseExpr(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.render()
	}
}

// BenchmarkStringCached measures String on an interned expression: a field
// read.
func BenchmarkStringCached(b *testing.B) {
	in := NewInterner()
	x := in.FromAST(parseExpr(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.String()
	}
}

// BenchmarkFromAST measures repeated conversion of one AST node without an
// interner.
func BenchmarkFromAST(b *testing.B) {
	node := parseExpr(b, benchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromAST(node)
	}
}

// BenchmarkFromASTMemoized measures repeated conversion of one AST node
// through the interner's per-node memo.
func BenchmarkFromASTMemoized(b *testing.B) {
	in := NewInterner()
	node := parseExpr(b, benchSrc)
	in.FromAST(node) // warm the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.FromAST(node)
	}
}

// TestHotPathAllocs pins the allocation counts of the analysis hot paths.
// Equal on interned operands, String on an interned expression, ProveLT,
// structural Equal, DiffConst and Affine of an absent variable allocate
// nothing. Operations share the term slices they leave unchanged, so
// AddConst allocates only its result, and Add and Affine of a present
// variable at most the result and one term slice.
func TestHotPathAllocs(t *testing.T) {
	in := NewInterner()
	x := in.FromAST(parseExpr(t, benchSrc))
	y := in.FromAST(parseExpr(t, benchSrc))
	z := x.Add(Var("n")).AddConst(2)
	u := FromAST(parseExpr(t, benchSrc))
	v := FromAST(parseExpr(t, benchSrc))
	w := u.AddConst(5)
	a := Assumptions{"n": GT0}
	for _, c := range []struct {
		name   string
		allocs float64
		op     func() bool
	}{
		{"Equal/interned", 0, func() bool { return x.Equal(y) }},
		{"String/cached", 0, func() bool { return x.String() != "" }},
		{"ProveLT", 0, func() bool { return ProveLT(x, z, a) }},
		{"Equal/structural", 0, func() bool { return u.Equal(v) }},
		{"DiffConst", 0, func() bool { d, ok := w.DiffConst(v); return ok && d == 5 }},
		{"Affine/absent", 0, func() bool { c, r, ok := u.Affine("k"); return ok && c == 0 && r == u }},
		{"AddConst", 1, func() bool { return u.AddConst(3) != nil }},
		{"Add", 2, func() bool { return u.Add(z) != nil }},
		{"Affine/present", 2, func() bool { c, _, ok := u.Affine("j"); return ok && c == 3 }},
	} {
		if !c.op() {
			t.Fatalf("%s: unexpected false", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { c.op() }); n > c.allocs {
			t.Errorf("%s: %v allocs/op, want at most %v", c.name, n, c.allocs)
		}
	}
}
