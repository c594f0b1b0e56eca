package expr

import "testing"

const benchSrc = "2*i + 3*j - a(i+1) + n*i - 4"

// BenchmarkEqualLegacy measures the first Equal implementation,
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

// BenchmarkEqualStructural measures Equal on two distinct but equal
// expressions: the zero-allocation structural walk.
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

// BenchmarkStringRender measures the canonical rendering of an
// expression, rebuilt from its term keys on every call.
func BenchmarkStringRender(b *testing.B) {
	x := FromAST(parseExpr(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.String()
	}
}

// BenchmarkFromAST measures repeated conversion of one AST node.
func BenchmarkFromAST(b *testing.B) {
	node := parseExpr(b, benchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromAST(node)
	}
}

// TestHotPathAllocs pins the allocation counts of the analysis hot paths.
// ProveLT, structural Equal, DiffConst and Affine of an absent variable
// allocate nothing. Operations share the term slices they leave unchanged,
// so AddConst allocates only its result, and Add and Affine of a present
// variable at most the result and one term slice. FromAST converts each
// subscript once for an atom's key and AST both: a(b(c(d(i + 1)))) takes
// 75 allocations, against 336 when every level converted its argument
// twice.
func TestHotPathAllocs(t *testing.T) {
	u := FromAST(parseExpr(t, benchSrc))
	v := FromAST(parseExpr(t, benchSrc))
	w := u.AddConst(5)
	z := u.Add(Var("n")).AddConst(2)
	a := Assumptions{"n": GT0}
	nested := parseExpr(t, "a(b(c(d(i + 1))))")
	for _, c := range []struct {
		name   string
		allocs float64
		op     func() bool
	}{
		{"ProveLT", 0, func() bool { return ProveLT(u, z, a) }},
		{"Equal/structural", 0, func() bool { return u.Equal(v) }},
		{"DiffConst", 0, func() bool { d, ok := w.DiffConst(v); return ok && d == 5 }},
		{"Affine/absent", 0, func() bool { c, r, ok := u.Affine("k"); return ok && c == 0 && r == u }},
		{"AddConst", 1, func() bool { return u.AddConst(3) != nil }},
		{"Add", 2, func() bool { return u.Add(z) != nil }},
		{"Affine/present", 2, func() bool { c, _, ok := u.Affine("j"); return ok && c == 3 }},
		{"FromAST/nested", 100, func() bool { return FromAST(nested).HasAtom("a(b(c(d(i + 1))))") }},
	} {
		if !c.op() {
			t.Fatalf("%s: unexpected false", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { c.op() }); n > c.allocs {
			t.Errorf("%s: %v allocs/op, want at most %v", c.name, n, c.allocs)
		}
	}
}
