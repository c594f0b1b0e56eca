package deptest

import (
	"maps"
	"sort"

	"repro/internal/core/property"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// atomFor builds the symbolic atom array(sub).
func atomFor(array string, sub *expr.Expr) *expr.Expr {
	return expr.FromAST(&lang.ArrayRef{Name: array, Args: []lang.Expr{sub.ToAST()}})
}

// injectiveIndependent handles subscripts of the form p(i) on both sides
// with i the outer loop variable: if the index array p is injective over
// the accessed section, different iterations touch different elements.
func (a *Analyzer) injectiveIndependent(fa, fb *expr.Expr, v string, loop *lang.DoStmt, A, B ref) (bool, []string) {
	if !fa.Equal(fb) {
		return false, nil
	}
	// The subscript must be exactly one index-array element p(v) with
	// coefficient 1 plus an optional constant (a constant offset keeps
	// injectivity).
	arrays := expr.ArrayAtomNames(fa)
	if len(arrays) != 1 {
		return false, nil
	}
	p := arrays[0]
	atoms := fa.ArrayAtoms(p)
	if len(atoms) != 1 {
		return false, nil
	}
	key, arg := atoms[0].Key, atoms[0].Sub
	if fa.CoefOf(key) != 1 {
		return false, nil
	}
	rest := fa.WithoutTerm(key)
	if _, isConst := rest.IsConst(); !isConst {
		return false, nil
	}
	// The argument must be the loop variable itself.
	if av, isVar := arg.IsVar(); !isVar || av != v {
		return false, nil
	}
	lo, hi, _, ok := expr.DoRange(loop)
	if !ok {
		return false, nil
	}
	prop, ok := a.Prop.VerifyCached(func() property.Property { return property.NewInjective(p) },
		A.stmt, section.New(p, lo, hi))
	if !ok {
		return false, nil
	}
	return true, []string{prop.String()}
}

// cfvIndependent substitutes closed-form values for index-array atoms in
// the subscripts and retries the separation tests on the now-affine
// expressions.
func (a *Analyzer) cfvIndependent(fa, fb *expr.Expr, v string, loop *lang.DoStmt, A, B ref, assume expr.Assumptions, lf loopFacts) (bool, TestKind, []string) {
	arrays := union2(expr.ArrayAtomNames(fa), expr.ArrayAtomNames(fb))
	if len(arrays) == 0 {
		return false, TestNone, nil
	}
	envA, envB, okR := pairEnvs(loop, A, B)
	if !okR {
		return false, TestNone, nil
	}

	var props []string
	nfa, nfb := fa, fb
	for _, ia := range arrays {
		hull, ok := expr.IndexHull(ia, []*expr.Expr{fa, fb}, []expr.Env{envA, envB}, nil)
		if !ok {
			return false, TestNone, nil
		}
		p, ok := a.Prop.VerifyCached(func() property.Property { return property.NewClosedFormValue(ia) },
			A.stmt, section.New(ia, hull.Lo, hull.Hi))
		prop, _ := p.(*property.ClosedFormValue)
		if !ok || prop == nil || prop.Value == nil {
			return false, TestNone, nil
		}
		props = append(props, prop.String())
		nfa = substCFV(nfa, ia, prop)
		nfb = substCFV(nfb, ia, prop)
	}
	// The closed forms replaced the index-array atoms; anything still
	// tainted by body-modified symbols disqualifies the comparison. A
	// closed form is derived where its array is defined, maybe in another
	// unit, so its names are tested against every symbol of that name.
	if tainted(nfa, v, A.env, lf.mod.HasName) || tainted(nfb, v, B.env, lf.mod.HasName) {
		return false, TestNone, nil
	}
	if a.windowsSeparated(nfa, nfb, v, A.env, B.env, assume) {
		return true, TestCFV, props
	}
	if a.gcdIndependent(nfa, nfb, v, A.env, B.env) {
		return true, TestCFV, props
	}
	return false, TestNone, nil
}

// substCFV replaces every atom ia(s) of e by the derived closed form
// Value(s).
func substCFV(e *expr.Expr, ia string, prop *property.ClosedFormValue) *expr.Expr {
	for _, x := range e.ArrayAtoms(ia) {
		if val := prop.ValueAt(x.Sub); val != nil {
			e = e.SubstAtom(x.Key, val)
		}
	}
	return e
}

// pairEnvs returns the environments over which the subscripts of A and B
// range: the outer loop's index range, under each reference's inner
// loops. ok is false when the outer loop's step gives no range.
func pairEnvs(loop *lang.DoStmt, A, B ref) (envA, envB expr.Env, ok bool) {
	lo, hi, _, ok := expr.DoRange(loop)
	if !ok {
		return nil, nil, false
	}
	outer := expr.Env{loop.Var.Name: expr.NewRange(lo, hi)}
	within := func(inner expr.Env) expr.Env {
		env := maps.Clone(outer)
		maps.Copy(env, inner)
		return env
	}
	return within(A.env), within(B.env), true
}

func union2(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string(nil), a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// offsetLengthIndependent is the offset–length test of §3.2.7: subscripts
// built from an offset array (pptr) and a length array (iblen), such as
//
//	s1: x(pptr(i)+k-1)            k in [1 : j-1],  j in [2 : iblen(i)]
//	s2: x(iblen(i)+pptr(i)+k-j-1)
//
// have per-iteration windows [pptr(i)+c, pptr(i)+iblen(i)+c']; the windows
// are separated across iterations when pptr has closed-form distance
// iblen and iblen is non-negative.
func (a *Analyzer) offsetLengthIndependent(fa, fb *expr.Expr, v string, loop *lang.DoStmt, A, B ref, assume expr.Assumptions) (bool, []string) {
	arrays := union2(expr.ArrayAtomNames(fa), expr.ArrayAtomNames(fb))
	if len(arrays) == 0 {
		return false, nil
	}
	envA, envB, okR := pairEnvs(loop, A, B)
	if !okR {
		return false, nil
	}
	pair, envs := []*expr.Expr{fa, fb}, []expr.Env{envA, envB}

	var props []string
	norm := func(e *expr.Expr) *expr.Expr { return e }

	// Derive a closed-form distance for every candidate offset array, and
	// non-negativity for its distance arrays.
	matched := false
	for _, off := range arrays {
		// Pairs needed: the subscripts with which off is accessed (the
		// +1-shifted ones reduce back into this range).
		hull, ok := expr.IndexHull(off, pair, envs, nil)
		if !ok {
			continue
		}
		qsec := section.New(off, hull.Lo, hull.Hi)
		pc, ok := a.Prop.VerifyCached(func() property.Property { return property.NewClosedFormDistance(off) },
			A.stmt, qsec)
		prop, _ := pc.(*property.ClosedFormDistance)
		if !ok || prop == nil || prop.Dist == nil {
			continue
		}
		// The distance must be provably non-negative: either a constant,
		// or built from arrays proven non-negative by a bounds query.
		distOK := true
		if c, isConst := prop.Dist.IsConst(); isConst {
			distOK = c >= 0
		} else {
			for _, da := range expr.ArrayAtomNames(prop.Dist) {
				// The distance array may not appear in the subscripts at
				// all; query the pair hull then.
				bsec := qsec.Clone()
				bsec.Array = da
				if h, ok := expr.IndexHull(da, pair, envs, nil); ok {
					bsec = section.New(da, h.Lo, h.Hi)
				}
				bpc, okb := a.Prop.VerifyCached(func() property.Property { return property.NewBounds(da) },
					A.stmt, bsec)
				bp, _ := bpc.(*property.Bounds)
				if !okb || bp == nil || bp.Lo == nil || !expr.ProveGE0(bp.Lo, assume) {
					distOK = false
					break
				}
				assume = assume.With(da+"(*)", expr.GE0)
				props = append(props, bp.String())
			}
		}
		if !distOK {
			continue
		}
		props = append(props, prop.String())
		matched = true

		prev := norm
		norm = func(e *expr.Expr) *expr.Expr {
			return cfdRewrite(prev(e), off, prop)
		}
	}
	if !matched {
		return false, nil
	}

	ra, ok1 := expr.Bounds(fa, A.env, assume)
	rb, ok2 := expr.Bounds(fb, B.env, assume)
	if !ok1 || !ok2 || ra.Lo == nil || ra.Hi == nil || rb.Lo == nil || rb.Hi == nil {
		return false, nil
	}
	if separatedIncreasing(ra, rb, v, assume, norm) ||
		separatedDecreasing(ra, rb, v, assume, norm) {
		return true, dedup(props)
	}
	return false, nil
}

// recurrenceWindowIndependent handles the compressed-format idiom where the
// subscripts themselves are plain inner-loop variables and every irregular
// access happens through the inner loop's BOUNDS:
//
//	do i = 1, n
//	  do j = row(i), row(i+1)-1
//	    a(j) = ...
//
// The per-iteration windows are [row(i), row(i+1)-1]; they never overlap
// across iterations when row is monotonically non-decreasing — exactly the
// fact the definition-site recurrence derivation proves from the loop that
// fills row (a prefix sum). Differences of monotone-array atoms in the
// separation conditions are then discharged by telescoping (monoNorm).
// Offset arrays without a monotonicity proof fall back to the closed-form-
// distance rewrite of the offset–length test.
func (a *Analyzer) recurrenceWindowIndependent(fa, fb *expr.Expr, v string, loop *lang.DoStmt, A, B ref, assume expr.Assumptions) (bool, []string) {
	// Subscripts containing index-array atoms directly are the offset–
	// length test's territory; this test wants the atoms in the windows.
	if len(expr.ArrayAtomNames(fa)) != 0 || len(expr.ArrayAtomNames(fb)) != 0 {
		return false, nil
	}
	ra, ok1 := expr.Bounds(fa, A.env, assume)
	rb, ok2 := expr.Bounds(fb, B.env, assume)
	if !ok1 || !ok2 || ra.Lo == nil || ra.Hi == nil || rb.Lo == nil || rb.Hi == nil {
		return false, nil
	}
	offs := union2(union2(expr.ArrayAtomNames(ra.Lo), expr.ArrayAtomNames(ra.Hi)),
		union2(expr.ArrayAtomNames(rb.Lo), expr.ArrayAtomNames(rb.Hi)))
	if len(offs) == 0 {
		return false, nil // affine windows: the plain range test's territory
	}
	envA, envB, okR := pairEnvs(loop, A, B)
	if !okR {
		return false, nil
	}

	// The atom hull must cover every subscript the separation conditions
	// apply to the offset arrays: the window bounds and the +1-shifted
	// LOWER bounds (only separatedIncreasing below shifts, and only the
	// lower ends; including shifted upper bounds would widen the hull past
	// what a fill loop generates).
	exprs := []*expr.Expr{ra.Lo, ra.Hi, rb.Lo, rb.Hi, at(ra.Lo, v, 1), at(rb.Lo, v, 1)}
	envs := []expr.Env{envA, envA, envB, envB, envA, envB}

	var props []string
	norm := func(e *expr.Expr) *expr.Expr { return e }
	for _, off := range offs {
		h, okH := expr.IndexHull(off, exprs, envs, nil)
		if !okH {
			return false, nil
		}
		hull := section.New(off, h.Lo, h.Hi)
		mc, okM := a.Prop.VerifyCached(func() property.Property { return property.NewMonotonic(off) },
			A.stmt, hull)
		if mono, _ := mc.(*property.Monotonic); okM && mono != nil {
			props = append(props, mono.String())
			strict := mono.Strict
			prev := norm
			norm = func(e *expr.Expr) *expr.Expr {
				return monoNorm(prev(e), off, strict)
			}
			continue
		}
		// Monotonicity unproven: fall back to the closed-form-distance
		// rewrite for this offset array (the offset–length machinery),
		// requiring a provably nonnegative distance.
		pc, okD := a.Prop.VerifyCached(func() property.Property { return property.NewClosedFormDistance(off) },
			A.stmt, hull)
		prop, _ := pc.(*property.ClosedFormDistance)
		if !okD || prop == nil || prop.Dist == nil {
			return false, nil
		}
		if c, isConst := prop.Dist.IsConst(); isConst {
			if c < 0 {
				return false, nil
			}
		} else {
			for _, da := range expr.ArrayAtomNames(prop.Dist) {
				bsec := hull.Clone()
				bsec.Array = da
				bpc, okb := a.Prop.VerifyCached(func() property.Property { return property.NewBounds(da) },
					A.stmt, bsec)
				bp, _ := bpc.(*property.Bounds)
				if !okb || bp == nil || bp.Lo == nil || !expr.ProveGE0(bp.Lo, assume) {
					return false, nil
				}
				assume = assume.With(da+"(*)", expr.GE0)
				props = append(props, bp.String())
			}
		}
		props = append(props, prop.String())
		prev := norm
		norm = func(e *expr.Expr) *expr.Expr {
			return cfdRewrite(prev(e), off, prop)
		}
	}

	// Only the increasing direction: the hull above shifts lower bounds by
	// +1, which is what these three conditions need (the decreasing
	// direction would shift upper bounds, widening the hull).
	if separatedIncreasing(ra, rb, v, assume, norm) {
		return true, dedup(props)
	}
	return false, nil
}

// monoNorm lower-bounds differences of monotone-array atoms by telescoping:
// a term pair +c*off(s1) - c*off(s2) with s1 - s2 = k >= 1 is bounded below
// by c*k when off is strictly increasing (each of the k steps is at least
// 1) and by 0 when merely non-decreasing, so the pair is replaced by that
// bound. Sound only inside ProveGE0/ProveGT0 goals, where substituting a
// provable lower bound for a subexpression preserves the implication; both
// separation predicates use norm exclusively that way.
func monoNorm(e *expr.Expr, off string, strict bool) *expr.Expr {
	for iter := 0; iter < 8; iter++ {
		atoms := e.ArrayAtoms(off)
		if len(atoms) < 2 {
			return e
		}
		changed := false
		for _, s := range atoms {
			cs := e.CoefOf(s.Key)
			if cs <= 0 {
				continue
			}
			for _, t := range atoms {
				if s.Key == t.Key {
					continue
				}
				ct := e.CoefOf(t.Key)
				if ct >= 0 {
					continue
				}
				dk, ok := s.Sub.DiffConst(t.Sub)
				if !ok || dk < 1 {
					continue
				}
				c := cs
				if -ct < c {
					c = -ct
				}
				lb := int64(0)
				if strict {
					lb = dk
				}
				e = e.Sub(atomFor(off, s.Sub).MulConst(c)).
					Add(atomFor(off, t.Sub).MulConst(c)).
					AddConst(c * lb)
				changed = true
				break
			}
			if changed {
				break
			}
		}
		if !changed {
			return e
		}
	}
	return e
}

// cfdRewrite eliminates shifted offset-array atoms using the derived
// closed-form distance: off(s) with another atom off(t), s = t+1, becomes
// off(t) + Dist(t). The rewrite iterates to resolve chains off(t+2) →
// off(t+1) → off(t).
func cfdRewrite(e *expr.Expr, off string, prop *property.ClosedFormDistance) *expr.Expr {
	for iter := 0; iter < 8; iter++ {
		atoms := e.ArrayAtoms(off)
		if len(atoms) < 2 {
			return e
		}
		changed := false
		for _, s := range atoms {
			for _, t := range atoms {
				if s.Key == t.Key {
					continue
				}
				if d, ok := s.Sub.DiffConst(t.Sub); ok && d == 1 {
					repl := atomFor(off, t.Sub).Add(prop.DistAt(t.Sub))
					e = e.SubstAtom(s.Key, repl)
					changed = true
					break
				}
			}
			if changed {
				break
			}
		}
		if !changed {
			return e
		}
	}
	return e
}
