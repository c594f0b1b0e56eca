package deptest

import (
	"sort"

	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// loopRange returns the index range of the outer loop, normalizing negative
// constant steps.
func loopRange(in *expr.Interner, loop *lang.DoStmt) (lo, hi *expr.Expr, ok bool) {
	loE, hiE := in.FromAST(loop.Lo), in.FromAST(loop.Hi)
	if loop.Step == nil {
		return loE, hiE, true
	}
	c, isConst := in.FromAST(loop.Step).IsConst()
	switch {
	case !isConst || c == 0:
		return nil, nil, false
	case c > 0:
		return loE, hiE, true
	default:
		return hiE, loE, true
	}
}

// atomFor builds the symbolic atom array(sub). The ArrayRef is a fresh
// throwaway node, so it bypasses the per-node memo and goes straight to the
// canonical-key table (nil-safe).
func atomFor(in *expr.Interner, array string, sub *expr.Expr) *expr.Expr {
	return in.Intern(expr.FromAST(&lang.ArrayRef{Name: array, Args: []lang.Expr{sub.ToAST()}}))
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
	atomSubs := fa.ArrayAtoms(p)
	if len(atomSubs) != 1 {
		return false, nil
	}
	var key string
	var arg *expr.Expr
	for k, s := range atomSubs {
		key, arg = k, s
	}
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
	lo, hi, ok := loopRange(a.In, loop)
	if !ok {
		return false, nil
	}
	prop, ok := a.verifyCached(section.New(p, lo, hi), A.stmt,
		func() property.Property { return property.NewInjective(p) })
	if !ok {
		return false, nil
	}
	return true, []string{prop.String()}
}

// cfvIndependent substitutes closed-form values for index-array atoms in
// the subscripts and retries the separation tests on the now-affine
// expressions.
func (a *Analyzer) cfvIndependent(fa, fb *expr.Expr, v string, loop *lang.DoStmt, A, B ref, assume expr.Assumptions, bodyMod *dataflow.ModSet) (bool, TestKind, []string) {
	arrays := union2(expr.ArrayAtomNames(fa), expr.ArrayAtomNames(fb))
	if len(arrays) == 0 {
		return false, TestNone, nil
	}
	lo, hi, okR := loopRange(a.In, loop)
	if !okR {
		return false, TestNone, nil
	}
	outerEnv := expr.Env{v: expr.NewRange(lo, hi)}

	var props []string
	nfa, nfb := fa, fb
	for _, ia := range arrays {
		qsec := a.atomArgHull(ia, []*expr.Expr{fa, fb}, []expr.Env{A.env, B.env}, outerEnv)
		if qsec == nil {
			return false, TestNone, nil
		}
		iaName := ia
		p, ok := a.verifyCached(qsec, A.stmt,
			func() property.Property { return property.NewClosedFormValue(iaName) })
		prop, _ := p.(*property.ClosedFormValue)
		if !ok || prop == nil || prop.Value == nil {
			return false, TestNone, nil
		}
		props = append(props, prop.String())
		nfa = substCFV(nfa, ia, prop)
		nfb = substCFV(nfb, ia, prop)
	}
	// The closed forms replaced the index-array atoms; anything still
	// tainted by body-modified symbols disqualifies the comparison.
	if subscriptTainted(nfa, v, A.env, bodyMod) || subscriptTainted(nfb, v, B.env, bodyMod) {
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
	for key, sub := range e.ArrayAtoms(ia) {
		if val := prop.ValueAt(sub); val != nil {
			e = e.SubstAtom(key, val)
		}
	}
	return e
}

// atomArgHull computes a section of the index array covering every
// subscript with which it is accessed in the given expressions, bounded
// over the inner and outer loop environments.
func (a *Analyzer) atomArgHull(ia string, exprs []*expr.Expr, envs []expr.Env, outer expr.Env) *section.Section {
	var lo, hi *expr.Expr
	for i, e := range exprs {
		for _, arg := range e.ArrayAtoms(ia) {
			env := outer
			for k, r := range envs[i] {
				env = env.With(k, r)
			}
			r, ok := expr.Bounds(arg, env, a.Assume)
			if !ok || r.Lo == nil || r.Hi == nil {
				return nil
			}
			lo = expr.ProvableMin(lo, r.Lo, a.Assume)
			hi = expr.ProvableMax(hi, r.Hi, a.Assume)
			if lo == nil || hi == nil {
				return nil
			}
		}
	}
	if lo == nil || hi == nil {
		return nil
	}
	return section.New(ia, lo, hi)
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

// SimpleOffsetLength is the stand-alone test of §5.1.5 for subscripts of
// the exact form  a(ptr(i) + g)  with g affine in the inner loop variables:
// both references must use the same offset array applied to the outer loop
// variable, with inner extents bounded by a length array that is the
// offset's closed-form distance. It avoids the general window machinery
// (no symbolic hull, no rewrite chains), trading generality for speed —
// "it could be used when the user wanted to avoid the overhead of the
// extended range test, though it was less general".
func (a *Analyzer) SimpleOffsetLength(u *lang.Unit, loop *lang.DoStmt, arr string) (bool, []string) {
	if a.Prop == nil {
		return false, nil
	}
	refs, unanalyzable := a.collectRefs(u, loop)
	if unanalyzable[arr] {
		return false, nil
	}
	rs := refs[arr]
	if len(rs) == 0 {
		return false, nil
	}
	v := loop.Var.Name

	// Every reference must be 1-D of the form ptr(v) + g, same ptr.
	ptr := ""
	type window struct {
		g   *expr.Expr
		env expr.Env
	}
	var wins []window
	for _, r := range rs {
		if len(r.subs) != 1 {
			return false, nil
		}
		e := r.subs[0]
		atoms := e.ArrayAtoms("")
		_ = atoms
		names := expr.ArrayAtomNames(e)
		if len(names) != 1 {
			return false, nil
		}
		if ptr == "" {
			ptr = names[0]
		} else if ptr != names[0] {
			return false, nil
		}
		pa := e.ArrayAtoms(ptr)
		if len(pa) != 1 {
			return false, nil
		}
		var key string
		var sub *expr.Expr
		for k, s := range pa {
			key, sub = k, s
		}
		if sv, isVar := sub.IsVar(); !isVar || sv != v || e.CoefOf(key) != 1 {
			return false, nil
		}
		g := e.WithoutTerm(key)
		if g.MentionsVar(v) {
			return false, nil
		}
		wins = append(wins, window{g: g, env: r.env})
	}

	// Derive the closed-form distance of ptr and check the per-iteration
	// extents stay below it: 0 <= g < dist(v) for every reference.
	lo, hi, okR := loopRange(a.In, loop)
	if !okR {
		return false, nil
	}
	qsec := section.New(ptr, lo, hi)
	var first lang.Stmt
	for _, r := range rs {
		first = r.stmt
		break
	}
	pc, ok := a.verifyCached(qsec, first,
		func() property.Property { return property.NewClosedFormDistance(ptr) })
	prop, _ := pc.(*property.ClosedFormDistance)
	if !ok || prop == nil || prop.Dist == nil {
		return false, nil
	}
	props := []string{prop.String()}
	distAtV := prop.DistAt(expr.Var(v))
	assume := a.envAssumptions(loop, rs[0], rs[0])
	for _, da := range expr.ArrayAtomNames(prop.Dist) {
		daName := da
		bp, okb := a.verifyCached(section.New(da, lo, hi), first,
			func() property.Property { return property.NewBounds(daName) })
		bprop, _ := bp.(*property.Bounds)
		if !okb || bprop == nil || bprop.Lo == nil || !expr.ProveGE0(bprop.Lo, assume) {
			return false, nil
		}
		assume = assume.With(da+"(*)", expr.GE0)
		props = append(props, bprop.String())
	}
	for _, w := range wins {
		r, okB := expr.Bounds(w.g, w.env, assume)
		if !okB || r.Lo == nil || r.Hi == nil {
			return false, nil
		}
		if !expr.ProveGE0(r.Lo, assume) || !expr.ProveLT(r.Hi, distAtV, assume) {
			return false, nil
		}
	}
	return true, dedup(props)
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
	lo, hi, okR := loopRange(a.In, loop)
	if !okR {
		return false, nil
	}
	outerEnv := expr.Env{v: expr.NewRange(lo, hi)}

	var props []string
	norm := func(e *expr.Expr) *expr.Expr { return e }

	// Derive a closed-form distance for every candidate offset array, and
	// non-negativity for its distance arrays.
	matched := false
	for _, off := range arrays {
		// Pairs needed: the subscripts with which off is accessed (the
		// +1-shifted ones reduce back into this range).
		qsec := a.atomArgHull(off, []*expr.Expr{fa, fb}, []expr.Env{A.env, B.env}, outerEnv)
		if qsec == nil {
			continue
		}
		offName := off
		pc, ok := a.verifyCached(qsec, A.stmt,
			func() property.Property { return property.NewClosedFormDistance(offName) })
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
				bsec := a.atomArgHull(da, []*expr.Expr{fa, fb}, []expr.Env{A.env, B.env}, outerEnv)
				if bsec == nil {
					// The distance array may not appear in the
					// subscripts at all; query the pair hull instead.
					bsec = qsec.Clone()
					bsec.Array = da
				}
				daName := da
				bpc, okb := a.verifyCached(bsec, A.stmt,
					func() property.Property { return property.NewBounds(daName) })
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
		p := prop
		norm = func(e *expr.Expr) *expr.Expr {
			return cfdRewrite(a.In, prev(e), offName, p)
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
	lo, hi, okR := loopRange(a.In, loop)
	if !okR {
		return false, nil
	}
	outerEnv := expr.Env{v: expr.NewRange(lo, hi)}

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

	// The atom hull must cover every subscript the separation conditions
	// apply to the offset arrays: the window bounds and the +1-shifted
	// LOWER bounds (only separatedIncreasing below shifts, and only the
	// lower ends; including shifted upper bounds would widen the hull past
	// what a fill loop generates).
	exprs := []*expr.Expr{ra.Lo, ra.Hi, rb.Lo, rb.Hi, at(ra.Lo, v, 1), at(rb.Lo, v, 1)}
	envs := []expr.Env{A.env, A.env, B.env, B.env, A.env, B.env}

	var props []string
	norm := func(e *expr.Expr) *expr.Expr { return e }
	for _, off := range offs {
		hull := a.atomArgHull(off, exprs, envs, outerEnv)
		if hull == nil {
			return false, nil
		}
		offName := off
		mc, okM := a.verifyCached(hull, A.stmt,
			func() property.Property { return property.NewMonotonic(offName) })
		if mono, _ := mc.(*property.Monotonic); okM && mono != nil {
			props = append(props, mono.String())
			strict := mono.Strict
			prev := norm
			norm = func(e *expr.Expr) *expr.Expr {
				return monoNorm(a.In, prev(e), offName, strict)
			}
			continue
		}
		// Monotonicity unproven: fall back to the closed-form-distance
		// rewrite for this offset array (the offset–length machinery),
		// requiring a provably nonnegative distance.
		pc, okD := a.verifyCached(hull, A.stmt,
			func() property.Property { return property.NewClosedFormDistance(offName) })
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
				daName := da
				bpc, okb := a.verifyCached(bsec, A.stmt,
					func() property.Property { return property.NewBounds(daName) })
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
		p := prop
		norm = func(e *expr.Expr) *expr.Expr {
			return cfdRewrite(a.In, prev(e), offName, p)
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
func monoNorm(in *expr.Interner, e *expr.Expr, off string, strict bool) *expr.Expr {
	for iter := 0; iter < 8; iter++ {
		atoms := e.ArrayAtoms(off)
		if len(atoms) < 2 {
			return e
		}
		keys := make([]string, 0, len(atoms))
		for k := range atoms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		changed := false
		for _, ks := range keys {
			cs := e.CoefOf(ks)
			if cs <= 0 {
				continue
			}
			for _, kt := range keys {
				if ks == kt {
					continue
				}
				ct := e.CoefOf(kt)
				if ct >= 0 {
					continue
				}
				dk, ok := atoms[ks].DiffConst(atoms[kt])
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
				e = e.Sub(atomFor(in, off, atoms[ks]).MulConst(c)).
					Add(atomFor(in, off, atoms[kt]).MulConst(c)).
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
func cfdRewrite(in *expr.Interner, e *expr.Expr, off string, prop *property.ClosedFormDistance) *expr.Expr {
	for iter := 0; iter < 8; iter++ {
		atoms := e.ArrayAtoms(off)
		if len(atoms) < 2 {
			return e
		}
		keys := make([]string, 0, len(atoms))
		for k := range atoms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		changed := false
		for _, ks := range keys {
			ss := atoms[ks]
			for _, kt := range keys {
				if ks == kt {
					continue
				}
				st := atoms[kt]
				if d, ok := ss.DiffConst(st); ok && d == 1 {
					repl := atomFor(in, off, st).Add(prop.DistAt(st))
					e = e.SubstAtom(ks, repl)
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
