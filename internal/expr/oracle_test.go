package expr

import (
	"hash/fnv"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/lang"
)

// The algebra oracle: random integer ASTs are evaluated directly, by an
// evaluator that shares no code with this package, and every canonical
// form and every operation result must evaluate to the same value.

var oracleVars = []string{"i", "j", "k"}

func lit(v int64) lang.Expr { return &lang.IntLit{Value: v} }

func bin(op lang.Op, x, y lang.Expr) lang.Expr { return &lang.Binary{Op: op, X: x, Y: y} }

// randAST draws an integer expression over i, j, k, small constants and
// the elements a(x) and b(x, y), combined by + - *, ** 0..4, exact
// division ((c*x)/c and the triangular x*(x+1)/2) and truncating division
// by a constant.
func randAST(r *rand.Rand, depth int) lang.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(3) == 0 {
			return lit(int64(r.Intn(11) - 5))
		}
		return &lang.Ident{Name: oracleVars[r.Intn(len(oracleVars))]}
	}
	x := randAST(r, depth-1)
	switch r.Intn(11) {
	case 0, 1:
		return bin(lang.OpAdd, x, randAST(r, depth-1))
	case 2, 3:
		return bin(lang.OpSub, x, randAST(r, depth-1))
	case 4, 5:
		return bin(lang.OpMul, x, randAST(r, depth-1))
	case 6:
		return bin(lang.OpPow, x, lit(int64(r.Intn(5))))
	case 7:
		return bin(lang.OpDiv, x, lit([]int64{2, 3, -2}[r.Intn(3)]))
	case 8:
		if r.Intn(2) == 0 {
			c := int64(r.Intn(3) + 2)
			return bin(lang.OpDiv, bin(lang.OpMul, lit(c), x), lit(c))
		}
		return bin(lang.OpDiv, bin(lang.OpMul, x, bin(lang.OpAdd, lang.CloneExpr(x), lit(1))), lit(2))
	case 9:
		return &lang.ArrayRef{Name: "a", Args: []lang.Expr{x}}
	default:
		return &lang.ArrayRef{Name: "b", Args: []lang.Expr{x, randAST(r, depth-1)}}
	}
}

// oracleEval evaluates an integer AST exactly. vals binds the variables;
// a(x) and b(x, y) are a fixed hash of the array name and the evaluated
// subscripts, in [-3, 3]. Division truncates toward zero, as in F-lite.
func oracleEval(t *testing.T, e lang.Expr, vals map[string]*big.Int) *big.Int {
	t.Helper()
	switch e := e.(type) {
	case *lang.IntLit:
		return big.NewInt(e.Value)
	case *lang.Ident:
		v, ok := vals[e.Name]
		if !ok {
			t.Fatalf("oracle: unbound variable %s", e.Name)
		}
		return v
	case *lang.ArrayRef:
		h := fnv.New64a()
		h.Write([]byte(e.Name))
		for _, a := range e.Args {
			h.Write([]byte("," + oracleEval(t, a, vals).String()))
		}
		return big.NewInt(int64(h.Sum64()%7) - 3)
	case *lang.Unary:
		if e.Op == lang.OpNeg {
			return new(big.Int).Neg(oracleEval(t, e.X, vals))
		}
	case *lang.Binary:
		x, y := oracleEval(t, e.X, vals), oracleEval(t, e.Y, vals)
		switch e.Op {
		case lang.OpAdd:
			return new(big.Int).Add(x, y)
		case lang.OpSub:
			return new(big.Int).Sub(x, y)
		case lang.OpMul:
			return new(big.Int).Mul(x, y)
		case lang.OpDiv:
			if y.Sign() == 0 {
				t.Fatalf("oracle: division by zero in %s", lang.FormatExpr(e))
			}
			return new(big.Int).Quo(x, y)
		case lang.OpPow:
			return new(big.Int).Exp(x, y, nil)
		}
	}
	t.Fatalf("oracle: unexpected node %s", lang.FormatExpr(e))
	return nil
}

// magnitude bounds |e| over |variables| <= 3, using |a(..)|, |b(..)| <= 3.
func magnitude(e lang.Expr) float64 {
	switch e := e.(type) {
	case *lang.IntLit:
		return float64(max(e.Value, -e.Value))
	case *lang.Ident, *lang.ArrayRef:
		return 3
	case *lang.Unary:
		return magnitude(e.X)
	case *lang.Binary:
		x, y := magnitude(e.X), magnitude(e.Y)
		switch e.Op {
		case lang.OpMul:
			return x * y
		case lang.OpDiv:
			return x
		case lang.OpPow:
			p := 1.0
			for n := e.Y.(*lang.IntLit).Value; n > 0; n-- {
				p *= x
			}
			return p
		}
		return x + y
	}
	return 0
}

// evalTerms evaluates e from its canonical terms, reading each atom's
// value through its AST, except that the atom named atom has value repl.
// It is the expected value of SubstAtom.
func evalTerms(t *testing.T, e *Expr, vals map[string]*big.Int, atom string, repl *big.Int) *big.Rat {
	sum := big.NewRat(e.konst.n, e.konst.d)
	for _, tm := range e.terms {
		p := big.NewRat(tm.coef.n, tm.coef.d)
		for _, f := range tm.factors {
			v := repl
			if f.atom != atom {
				v = oracleEval(t, f.ast, vals)
			}
			for n := 0; n < f.pow; n++ {
				p.Mul(p, new(big.Rat).SetInt(v))
			}
		}
		sum.Add(sum, p)
	}
	return sum
}

func integral(e *Expr) bool {
	for _, t := range e.terms {
		if !t.coef.isInt() {
			return false
		}
	}
	return e.konst.isInt()
}

func TestAlgebraOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2000))
	// A pool of small expressions: every operand stays below 10^6, so a
	// product of two stays far from int64 overflow and no operation
	// degrades to an opaque atom.
	var asts []lang.Expr
	for len(asts) < 60 {
		if a := randAST(r, 4); magnitude(a) <= 1e6 {
			asts = append(asts, a)
		}
	}
	point := func() map[string]*big.Int {
		vals := map[string]*big.Int{}
		for _, v := range oracleVars {
			vals[v] = big.NewInt(int64(r.Intn(7) - 3))
		}
		return vals
	}
	eval := func(e lang.Expr, vals map[string]*big.Int) *big.Int { return oracleEval(t, e, vals) }
	val := func(e *Expr, vals map[string]*big.Int) *big.Int { return eval(e.ToAST(), vals) }
	expect := func(what string, p, q lang.Expr, got, want *big.Int) {
		t.Helper()
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: got %s, want %s\n  p = %s\n  q = %s", what, got, want, lang.FormatExpr(p), lang.FormatExpr(q))
		}
	}

	for round := 0; round < 400; round++ {
		P, Q := asts[r.Intn(len(asts))], asts[r.Intn(len(asts))]
		p, q := FromAST(P), FromAST(Q)
		v := oracleVars[r.Intn(len(oracleVars))]
		c := int64(r.Intn(9) - 4)
		var atom string
		if atoms := p.Atoms(); len(atoms) > 0 {
			atom = atoms[r.Intn(len(atoms))]
		}
		coef, rest, affine := p.Affine(v)
		for n := 0; n < 3; n++ {
			vals := point()
			pv, qv := eval(P, vals), eval(Q, vals)
			expect("canonical form", P, Q, val(p, vals), pv)
			if want := evalTerms(t, p, vals, "", nil); !want.IsInt() || want.Num().Cmp(pv) != 0 {
				t.Fatalf("terms of %s evaluate to %s, want %s", p, want, pv)
			}
			expect("Add", P, Q, val(p.Add(q), vals), new(big.Int).Add(pv, qv))
			expect("Sub", P, Q, val(p.Sub(q), vals), new(big.Int).Sub(pv, qv))
			expect("Mul", P, Q, val(p.Mul(q), vals), new(big.Int).Mul(pv, qv))
			expect("MulConst", P, Q, val(p.MulConst(c), vals), new(big.Int).Mul(pv, big.NewInt(c)))
			expect("AddConst", P, Q, val(p.AddConst(c), vals), new(big.Int).Add(pv, big.NewInt(c)))
			expect("Neg", P, Q, val(p.Neg(), vals), new(big.Int).Neg(pv))

			subst := map[string]*big.Int{}
			for k, x := range vals {
				subst[k] = x
			}
			subst[v] = qv
			expect("SubstVar "+v, P, Q, val(p.SubstVar(v, q), vals), eval(P, subst))
			if atom != "" {
				want := evalTerms(t, p, vals, atom, qv)
				expect("SubstAtom "+atom, P, Q, val(p.SubstAtom(atom, q), vals), want.Num())
			}

			if affine {
				// coef·v + rest, where rest does not depend on v.
				rv := val(rest, vals)
				expect("Affine "+v, P, Q, new(big.Int).Add(new(big.Int).Mul(big.NewInt(coef), vals[v]), rv), pv)
				subst[v] = new(big.Int).Add(vals[v], big.NewInt(5))
				expect("Affine rest without "+v, P, Q, val(rest, subst), rv)
			}
			if integral(p) {
				w := new(big.Int).Mul(big.NewInt(p.CoefOf(v)), vals[v])
				expect("WithoutTerm "+v, P, Q, w.Add(w, val(p.WithoutTerm(v), vals)), pv)
			}
			if d, ok := p.DiffConst(q); ok {
				expect("DiffConst", P, Q, new(big.Int).Sub(pv, qv), big.NewInt(d))
			}
			if p.Equal(q) {
				expect("Equal", P, Q, pv, qv)
			}
		}
		// Completeness: equal values that differ only in how they were
		// built have one canonical form.
		if !p.Add(q).Sub(q).Equal(p) || !p.Mul(q).Equal(q.Mul(p)) {
			t.Fatalf("canonical forms differ for p = %s, q = %s", p, q)
		}
		if d, ok := p.AddConst(c).Add(q).DiffConst(p.Add(q)); !ok || d != c {
			t.Fatalf("DiffConst(p+%d+q, p+q) = %d, %v for p = %s, q = %s", c, d, ok, p, q)
		}
	}
}
