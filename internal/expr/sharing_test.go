package expr

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lang"
)

// snapshot is a deep copy of an expression's canonical content: its
// rendering, its constant, and its terms with their factor slices and
// factor ASTs copied.
type snapshot struct {
	render string
	konst  rat
	terms  []term
}

func snap(e *Expr) snapshot {
	s := snapshot{render: e.String(), konst: e.konst, terms: make([]term, len(e.terms))}
	for i, t := range e.terms {
		fs := make([]factor, len(t.factors))
		for j, f := range t.factors {
			fs[j] = factor{f.atom, f.pow, lang.CloneExpr(f.ast)}
		}
		s.terms[i] = term{t.key, t.coef, fs}
	}
	return s
}

// TestOperationsLeaveOperandsUnchanged pins the immutability invariant the
// shared term slices rest on: no operation writes a slice after building
// it. Every operation runs on operands drawn from a pool that also holds
// earlier results; afterwards the operands and every pool member must
// render and deep-compare exactly as they did when they were built. An
// operation that appends into, or rewrites, a slice it shares with its
// operands or an earlier result fails here.
func TestOperationsLeaveOperandsUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(2100))
	var pool []*Expr
	snaps := map[*Expr]snapshot{}
	verify := func(op string, es ...*Expr) {
		t.Helper()
		for _, e := range es {
			if got := snap(e); !reflect.DeepEqual(got, snaps[e]) {
				t.Fatalf("%s changed an operand: was %q, now %q", op, snaps[e].render, got.render)
			}
		}
	}
	// keep adds a small result to the pool, so later operations take it
	// as an operand; a full pool drops a random member, checked first.
	keep := func(e *Expr) {
		if _, ok := snaps[e]; ok || e == nil || len(e.terms) > 6 || len(e.String()) > 120 {
			return
		}
		snaps[e] = snap(e)
		if len(pool) < 120 {
			pool = append(pool, e)
			return
		}
		i := r.Intn(len(pool))
		verify("an operation", pool[i])
		delete(snaps, pool[i])
		pool[i] = e
	}
	for len(pool) < 40 {
		if a := randAST(r, 3); magnitude(a) <= 1e6 {
			keep(FromAST(a))
		}
	}
	for round := 0; round < 300; round++ {
		p, q := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
		v := oracleVars[r.Intn(len(oracleVars))]
		c := int64(r.Intn(9) - 4)
		atom := v
		if atoms := p.Atoms(); len(atoms) > 0 {
			atom = atoms[r.Intn(len(atoms))]
		}
		var results []*Expr
		for _, op := range []struct {
			name string
			f    func() *Expr
		}{
			{"Add", func() *Expr { return p.Add(q) }},
			{"Sub", func() *Expr { return p.Sub(q) }},
			{"Mul", func() *Expr { return p.Mul(q) }},
			{"MulConst", func() *Expr { return p.MulConst(c) }},
			{"AddConst", func() *Expr { return p.AddConst(c) }},
			{"Neg", func() *Expr { return p.Neg() }},
			{"SubstVar", func() *Expr { return p.SubstVar(v, q) }},
			{"SubstAtom", func() *Expr { return p.SubstAtom(atom, q) }},
			{"Affine", func() *Expr { _, rest, _ := p.Affine(v); return rest }},
			{"WithoutTerm", func() *Expr { return p.WithoutTerm(atom) }},
			{"DiffConst", func() *Expr { p.DiffConst(q); return nil }},
			{"Equal", func() *Expr { p.Equal(q); return nil }},
		} {
			results = append(results, op.f())
			verify(op.name, p, q)
		}
		// Each round also rechecks the whole pool: a write into a slice
		// shared with an earlier result shows up there, not in p or q.
		verify("an operation", pool...)
		for _, e := range results {
			keep(e)
		}
	}
}
