package property

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/section"
)

// Definition-site recurrence derivation (Bhosale & Eigenmann,
// arXiv:1911.05839): instead of only *consuming* index-array properties at
// use sites, derive them from the loops that fill the arrays. A prefix-sum
// fill
//
//	do i = lo, hi:  x(i+1) = x(i) + d(i)
//
// makes x monotonically non-decreasing by construction whenever every
// per-step increment d(i) is provably nonnegative, strictly increasing —
// and therefore injective — when every increment is positive. The
// derivation runs a small abstract fixpoint over the filling loop: each
// write is abstracted to its increment, increments are mapped into the
// sign lattice SignPos ⊐ SignNonNeg ⊐ SignUnknown, and control-flow joins
// (an IF whose arms each perform the same-shaped recurrence step with
// different increments) meet their signs. The resulting array-level fact
// feeds the Monotonic and Injective provers' SummarizeLoop, so it flows
// through the ordinary query path: cached by VerifyCached, killed by
// interchange invalidation, and re-derived each outer timestep when the
// fill loop sits inside one.

// DeriveSign is the abstract increment lattice of the fixpoint: the sign
// that could be proven for every per-step increment of the recurrence.
type DeriveSign int

// Lattice values, ordered so the join (meet towards less knowledge) of two
// branches is their minimum.
const (
	// SignUnknown: some increment's sign could not be proven.
	SignUnknown DeriveSign = iota
	// SignNonNeg: every increment is provably >= 0 (monotonic fill).
	SignNonNeg
	// SignPos: every increment is provably >= 1 (strictly monotonic, hence
	// injective, fill).
	SignPos
)

func (s DeriveSign) String() string {
	switch s {
	case SignPos:
		return "positive"
	case SignNonNeg:
		return "nonnegative"
	}
	return "unknown"
}

// joinSign meets two branch signs: knowledge survives a control-flow join
// only if both arms provide it.
func joinSign(a, b DeriveSign) DeriveSign {
	if a < b {
		return a
	}
	return b
}

// maxDeriveDepth bounds the nesting of derivations through bounds
// sub-queries (an increment array may itself be recurrence-filled).
const maxDeriveDepth = 2

// DeriveResult is the outcome of one definition-site derivation.
type DeriveResult struct {
	// Sign is the joined sign of every per-step increment. SignUnknown
	// means the filler matched a recurrence shape but no usable property
	// could be proven — the irrlint IRR2004 condition.
	Sign DeriveSign
	// Var is the fill loop's index variable, reinterpreted as the pair
	// index of the increments in Incs.
	Var string
	// Incs are the per-branch increments, expressions over Var as the pair
	// index (one entry for a straight-line fill, one per arm for a
	// conditional fill).
	Incs []*expr.Expr
	// PairLo/PairHi is the pair-index range the increments cover; pair k
	// relates elements k and k+1.
	PairLo, PairHi *expr.Expr
	// ElemLo/ElemHi is the element-space section over which the derived
	// property holds (pairs [PairLo:PairHi] span elements
	// [PairLo:PairHi+1]).
	ElemLo, ElemHi *expr.Expr
	// Steps is the human-readable fixpoint log, surfaced by -explain
	// traces and the IRR2004 diagnostic's related notes.
	Steps []string
}

// Monotonic reports whether the derivation proved (at least) a
// non-decreasing fill.
func (r *DeriveResult) Monotonic() bool { return r.Sign >= SignNonNeg }

// Strict reports whether the derivation proved a strictly increasing fill.
func (r *DeriveResult) Strict() bool { return r.Sign == SignPos }

// deriveForLoop runs the recurrence derivation for one DO node unless the
// NoRecurrence ablation disables it, charging the failure counter for
// recurrence-shaped fills whose increments stay unproven.
func (c *Ctx) deriveForLoop(n *cfg.HNode, array string) *DeriveResult {
	if c.s.a.NoRecurrence {
		return nil
	}
	dr := deriveRecurrence(c, n, array)
	if dr != nil && dr.Sign == SignUnknown {
		c.s.a.Stats.DerivedFailed++
	}
	return dr
}

// deriveRecurrence runs the definition-site fixpoint over one DO loop. nil
// means the loop is not a recurrence-shaped fill of array (or the fact
// would not be stable at the use site); a non-nil result with SignUnknown
// means the shape matched but the increment signs resisted proof.
func deriveRecurrence(c *Ctx, n *cfg.HNode, array string) *DeriveResult {
	d, ok := n.Stmt.(*lang.DoStmt)
	if !ok {
		return nil
	}
	lo, hi, dense, okRange := expr.DoRange(d)
	if !okRange || !dense {
		return nil
	}
	v := d.Var.Name

	var incs []*expr.Expr
	var pairLoOff, pairHiOff *expr.Expr
	var steps []string
	if m := matchRecurrence(d, array); m != nil {
		incs = []*expr.Expr{m.dist}
		pairLoOff, pairHiOff = m.pairLoOff, m.pairHiOff
		steps = append(steps,
			fmt.Sprintf("matched recurrence fill of %s with per-step increment %v", array, m.dist))
	} else if cm := matchConditionalRecurrence(d, array); cm != nil {
		incs = cm.dists
		pairLoOff, pairHiOff = cm.pairLoOff, cm.pairHiOff
		steps = append(steps,
			fmt.Sprintf("matched conditional recurrence fill of %s with %d branch increments", array, len(incs)))
	} else {
		return nil
	}

	// The derived fact rests on the loop bounds and on the increments,
	// which run over the fill loop's own variable; a write of anything else
	// they read between this definition and the use site invalidates it
	// (the "no redefinition in between" condition).
	if c.SeenModified(lo, hi) || writes(c.s.mod, v, incs...) {
		return nil
	}

	res := &DeriveResult{
		Var:    v,
		Incs:   incs,
		PairLo: lo.Add(pairLoOff),
		PairHi: hi.Add(pairHiOff),
	}
	res.ElemLo, res.ElemHi = res.PairLo, res.PairHi.AddConst(1)

	// The abstract step: join the proven sign of every branch increment
	// over the pair range.
	sign := SignPos
	for _, inc := range incs {
		s, why := c.proveIncSign(n, inc, v, res.PairLo, res.PairHi)
		steps = append(steps, why...)
		sign = joinSign(sign, s)
	}
	res.Sign = sign
	if sign == SignUnknown {
		steps = append(steps, fmt.Sprintf(
			"derivation failed: some increment of %s has unknown sign", array))
	} else {
		steps = append(steps, fmt.Sprintf(
			"fixpoint: every increment %s, so %s is monotonic (strict: %t) over elements [%v:%v]",
			sign, array, sign == SignPos, res.ElemLo, res.ElemHi))
	}
	res.Steps = steps

	if c.s.trace {
		for _, st := range res.Steps {
			c.s.a.Rec.Event("query.step",
				obs.F("class", "derive"),
				obs.F("node", n.String()),
				obs.F("outcome", st))
		}
	}
	return res
}

// proveIncSign proves the sign of one increment over the pair range,
// trying, in order: array-term nonnegativity via nested bounds sub-queries
// (an increment like len(k) is nonnegative when the length array's derived
// value bounds say so), a direct sign proof, and a range bound over the
// extended environment (which handles mod(...) idioms).
func (c *Ctx) proveIncSign(n *cfg.HNode, inc *expr.Expr, v string, pairLo, pairHi *expr.Expr) (DeriveSign, []string) {
	a := c.s.a
	var assume expr.Assumptions
	var steps []string
	env := c.Env().With(v, expr.NewRange(pairLo, pairHi))

	var arrs []string
	inc.Reads(func(name string, array bool) bool {
		if array && !slices.Contains(arrs, name) {
			arrs = append(arrs, name)
		}
		return false
	})
	if len(arrs) > 0 && a.deriveDepth < maxDeriveDepth {
		for _, da := range arrs {
			hull, okHull := expr.IndexHull(da, []*expr.Expr{inc}, []expr.Env{env}, assume)
			if !okHull {
				steps = append(steps, fmt.Sprintf("cannot bound the subscripts of increment array %s", da))
				continue
			}
			a.deriveDepth++
			bp, okb := a.VerifyCached(
				func() Property { return NewBounds(da) },
				n.Stmt, section.New(da, hull.Lo, hull.Hi))
			a.deriveDepth--
			b, _ := bp.(*Bounds)
			if !okb || b == nil || b.Lo == nil {
				steps = append(steps, fmt.Sprintf(
					"sub-query bounds(%s) over [%v:%v] failed", da, hull.Lo, hull.Hi))
				continue
			}
			switch {
			case expr.ProveGT0(b.Lo, assume):
				assume = assume.With(da+"(*)", expr.GT0)
				steps = append(steps, fmt.Sprintf("sub-query proved %v, so %s(*) >= 1", b, da))
			case expr.ProveGE0(b.Lo, assume):
				assume = assume.With(da+"(*)", expr.GE0)
				steps = append(steps, fmt.Sprintf("sub-query proved %v, so %s(*) >= 0", b, da))
			default:
				steps = append(steps, fmt.Sprintf(
					"sub-query bounds(%s) gave lower bound %v of unknown sign", da, b.Lo))
			}
		}
	}

	if expr.ProveGT0(inc, assume) {
		return SignPos, append(steps, fmt.Sprintf("increment %v proven >= 1", inc))
	}
	if expr.ProveGE0(inc, assume) {
		return SignNonNeg, append(steps, fmt.Sprintf("increment %v proven >= 0", inc))
	}
	r, ok := expr.Bounds(inc, env, assume)
	if !ok || r.Lo == nil {
		r, ok = modulusBoundsEnv(inc.ToAST(), env, assume)
	}
	if ok && r.Lo != nil {
		if expr.ProveGT0(r.Lo, assume) {
			return SignPos, append(steps, fmt.Sprintf(
				"increment %v bounded below by %v >= 1 over pairs [%v:%v]", inc, r.Lo, pairLo, pairHi))
		}
		if expr.ProveGE0(r.Lo, assume) {
			return SignNonNeg, append(steps, fmt.Sprintf(
				"increment %v bounded below by %v >= 0 over pairs [%v:%v]", inc, r.Lo, pairLo, pairHi))
		}
	}
	return SignUnknown, append(steps, fmt.Sprintf("cannot prove increment %v nonnegative", inc))
}

// condRecurrence is a recurrence whose per-step increment depends on a
// branch: every arm of one top-level IF performs the same-shaped direct
// recurrence step x(i+c) = x(i+c-1) + d_b, so the loop still fills the
// array densely and the increment's sign is the join over the arms.
type condRecurrence struct {
	dists                []*expr.Expr
	pairLoOff, pairHiOff *expr.Expr
}

// matchConditionalRecurrence matches a fill loop whose body is exactly one
// IF statement (plus inert statements), every arm of which — including a
// mandatory ELSE, so the write is unconditional — assigns the array once
// in direct-recurrence shape with identical subscript offsets.
func matchConditionalRecurrence(d *lang.DoStmt, array string) *condRecurrence {
	v := d.Var.Name
	var ifs *lang.IfStmt
	for _, s := range d.Body {
		switch s := s.(type) {
		case *lang.IfStmt:
			if ifs != nil {
				return nil
			}
			ifs = s
		case *lang.ContinueStmt, *lang.PrintStmt:
		default:
			return nil
		}
	}
	if ifs == nil || len(ifs.Else) == 0 {
		return nil
	}
	branches := [][]lang.Stmt{ifs.Then}
	for _, arm := range ifs.Elifs {
		branches = append(branches, arm.Body)
	}
	branches = append(branches, ifs.Else)

	cr := &condRecurrence{}
	for _, b := range branches {
		var w *lang.AssignStmt
		for _, s := range b {
			switch s := s.(type) {
			case *lang.AssignStmt:
				ar, ok := s.Lhs.(*lang.ArrayRef)
				if !ok || ar.Name != array || w != nil {
					return nil
				}
				w = s
			case *lang.ContinueStmt, *lang.PrintStmt:
			default:
				return nil
			}
		}
		if w == nil {
			return nil
		}
		ar := w.Lhs.(*lang.ArrayRef)
		if len(ar.Args) != 1 {
			return nil
		}
		sub := expr.FromAST(ar.Args[0])
		m := matchDirectRecurrence(w, sub, array, v)
		if m == nil {
			return nil
		}
		if cr.pairLoOff == nil {
			cr.pairLoOff, cr.pairHiOff = m.pairLoOff, m.pairHiOff
		} else if !cr.pairLoOff.Equal(m.pairLoOff) {
			return nil // arms write different elements: not one dense fill
		}
		cr.dists = append(cr.dists, m.dist)
	}
	return cr
}

// AuditFill re-runs the definition-site derivation for one fill loop
// outside any query, for diagnostics: the irrlint IRR2004 lint and the
// verdict auditor's recurrence re-check. nil when the loop is not a
// recurrence-shaped fill of array (or the ablation disables derivation);
// otherwise the result carries the derived sign — SignUnknown marks a
// CSR-shaped filler whose monotonicity resisted proof — and the fixpoint
// steps for the diagnostic's related notes.
func (a *Analysis) AuditFill(d *lang.DoStmt, array string) *DeriveResult {
	if a.NoRecurrence || a.HP == nil {
		return nil
	}
	n := a.HP.StmtNode(d)
	if n == nil || n.Kind != cfg.NDoHead {
		return nil
	}
	s := getSession(a, NewMonotonic(array), false)
	defer putSession(s)
	return deriveRecurrence(s.ctxFor(n), n, array)
}
