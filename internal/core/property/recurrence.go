package property

import (
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/section"
)

// recurrenceMatch describes a matched closed-form-distance definition loop.
type recurrenceMatch struct {
	array string
	// dist is the per-step distance in terms of the loop variable: for
	// "x(i+1) = x(i) + d" at step i, the pair (x(i), x(i+1)) has distance
	// d(i) — dist is d with pair index == i.
	dist *expr.Expr
	// pairLoOff/pairHiOff adjust the loop bounds into pair space: the
	// generated pairs are [lo+pairLoOff : hi+pairHiOff].
	pairLoOff, pairHiOff *expr.Expr
	// writeLoOff/writeHiOff give the elements written: [lo+writeLoOff :
	// hi+writeHiOff].
	writeLoOff, writeHiOff *expr.Expr
}

// netKillPairs returns the pairs broken by the loop's writes and not
// regenerated: written elements e break pairs e-1 and e; the generated
// pairs are subtracted.
func (m *recurrenceMatch) netKillPairs(lo, hi *expr.Expr) []*section.Section {
	killLo := lo.Add(m.writeLoOff).AddConst(-1)
	killHi := hi.Add(m.writeHiOff)
	genLo := lo.Add(m.pairLoOff)
	genHi := hi.Add(m.pairHiOff)
	var out []*section.Section
	// Pairs below the generated range.
	if d, ok := genLo.DiffConst(killLo); ok && d > 0 {
		out = append(out, section.New(m.array, killLo, genLo.AddConst(-1)))
	}
	// Pairs above the generated range.
	if d, ok := killHi.DiffConst(genHi); ok && d > 0 {
		out = append(out, section.New(m.array, genHi.AddConst(1), killHi))
	}
	if out == nil && !(genLoLEQ(killLo, genLo) && genLoLEQ(genHi, killHi)) {
		// Fallback: relationship unknown, kill the whole written pair
		// range (MAY).
		out = append(out, section.New(m.array, killLo, killHi))
	}
	return out
}

func genLoLEQ(x, y *expr.Expr) bool {
	d, ok := y.DiffConst(x)
	return ok && d >= 0
}

// matchRecurrence recognises the closed-form-distance definition idioms of
// §3.2.8 applied to the body of a DO loop:
//
//	(b1) x(i)   = x(i-1) + d      (pairs i-1, writes i)
//	(b2) x(i+1) = x(i)   + d      (pairs i,   writes i+1)
//	(a)  x(i) = t ; t = t + d     (pairs i..i (with next iteration), writes i)
//
// The loop body may contain other statements only if they do not write the
// array, the accumulator, or anything the distance expression mentions.
func matchRecurrence(d *lang.DoStmt, array string) *recurrenceMatch {
	v := d.Var.Name

	// A recurrence chains values forward: each write reads (or accumulates
	// into) state the PREVIOUS iteration established. Downward or strided
	// iteration breaks the chain — x(i-1) is overwritten after x(i) read
	// it — so only unit forward steps match.
	if d.Step != nil {
		if cst, ok := expr.FromAST(d.Step).IsConst(); !ok || cst != 1 {
			return nil
		}
	}

	// Collect top-level assignments of the body; nested control flow
	// around the recurrence disqualifies the pattern (a conditional
	// recurrence has no closed form).
	var assigns []*lang.AssignStmt
	clean := true
	lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.AssignStmt:
			assigns = append(assigns, s)
		case *lang.ContinueStmt, *lang.PrintStmt:
		default:
			clean = false
		}
		return true
	})
	if !clean {
		return nil
	}

	// Find writes to the array.
	var arrWrites []*lang.AssignStmt
	for _, as := range assigns {
		if ar, ok := as.Lhs.(*lang.ArrayRef); ok && ar.Name == array {
			arrWrites = append(arrWrites, as)
		}
	}
	if len(arrWrites) != 1 {
		return nil
	}
	w := arrWrites[0]
	ar := w.Lhs.(*lang.ArrayRef)
	if len(ar.Args) != 1 {
		return nil
	}
	sub := expr.FromAST(ar.Args[0])

	// Pattern (b): x(sub) = x(sub-1) + d.
	if m := matchDirectRecurrence(w, sub, array, v); m != nil {
		if len(assigns) == 1 {
			return m
		}
		// Extra assignments must not interfere.
		if othersBenign(assigns, w, array, m.dist, "") {
			return m
		}
		return nil
	}

	// Pattern (a): x(i) = t ; t = t + d, with i the loop index.
	subVar, isVar := sub.IsVar()
	if !isVar || subVar != v {
		return nil
	}
	tName, okT := identName(w.Rhs)
	if !okT {
		return nil
	}
	var acc *lang.AssignStmt
	for _, as := range assigns {
		if id, ok := as.Lhs.(*lang.Ident); ok && id.Name == tName && as != w {
			if acc != nil {
				return nil // t assigned twice
			}
			acc = as
		}
	}
	if acc == nil {
		return nil
	}
	dist := expr.FromAST(acc.Rhs).Sub(expr.Var(tName))
	if dist.MentionsVar(tName) {
		return nil
	}
	m := &recurrenceMatch{
		array: array,
		dist:  dist,
		// x(i) = t_i and x(i+1) = t_i + d(i): pair i has distance d(i);
		// the last write is x(hi), so the last complete pair is hi-1.
		pairLoOff:  expr.Zero,
		pairHiOff:  expr.Const(-1),
		writeLoOff: expr.Zero,
		writeHiOff: expr.Zero,
	}
	if !othersBenign(assigns, w, array, m.dist, tName) {
		return nil
	}
	// The accumulator itself must not feed anything else in the body —
	// already implied by assignment scan. Order x-write-before-t-update
	// is required for the distance to be d(i) (not d(i-1)); verify by
	// position.
	if !precedes(d.Body, w, acc) {
		return nil
	}
	return m
}

// matchDirectRecurrence matches x(sub) = x(sub-1) + d with sub affine in
// the loop variable with coefficient 1.
func matchDirectRecurrence(w *lang.AssignStmt, sub *expr.Expr, array, v string) *recurrenceMatch {
	rhs := expr.FromAST(w.Rhs)
	// Look for the atom x(sub-1) in the rhs.
	prevSub := sub.AddConst(-1)
	prevKey := refKeyFor(array, prevSub)
	if rhs.CoefOf(prevKey) != 1 {
		return nil
	}
	dist := rhs.WithoutTerm(prevKey)
	if dist.HasAtom(prevKey) || reads(dist, array, true) {
		return nil
	}
	coef, _, ok := sub.Affine(v)
	if !ok || coef != 1 {
		return nil
	}
	// Shift into pair space: writing x(sub) establishes pair sub-1; the
	// subscript is sub = i + constOff.
	constOff := sub.Sub(expr.Var(v))
	// dist as function of the PAIR index k = sub-1 = i + c - 1: we keep
	// dist in terms of i and let the caller substitute the loop variable
	// by (Formal - (c-1)) so that Dist(Formal) is over pair indices.
	// Simpler: express dist over pair index directly here.
	// pair index k = i + c - 1  ⇒  i = k - c + 1.
	distOverPair := dist.SubstVar(v, expr.Var(v).Sub(constOff).AddConst(1))
	return &recurrenceMatch{
		array:      array,
		dist:       distOverPair,
		pairLoOff:  constOff.AddConst(-1),
		pairHiOff:  constOff.AddConst(-1),
		writeLoOff: constOff,
		writeHiOff: constOff,
	}
}

// refKeyFor builds the canonical atom key array(sub).
func refKeyFor(array string, sub *expr.Expr) string {
	return array + "(" + sub.String() + ")"
}

// reads reports whether e reads the array name, or the scalar when not
// array.
func reads(e *expr.Expr, name string, array bool) bool {
	return e.Reads(func(n string, arr bool) bool { return n == name && arr == array })
}

func identName(e lang.Expr) (string, bool) {
	id, ok := e.(*lang.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// othersBenign checks that assignments other than the recurrence write do
// not interfere: they must not write the array, the accumulator, any
// scalar or array the distance reads, or the loop-carried state.
func othersBenign(assigns []*lang.AssignStmt, w *lang.AssignStmt, array string, dist *expr.Expr, acc string) bool {
	for _, as := range assigns {
		if as == w {
			continue
		}
		switch l := as.Lhs.(type) {
		case *lang.Ident:
			if l.Name == acc {
				continue // the accumulator update itself
			}
			if reads(dist, l.Name, false) {
				return false
			}
		case *lang.ArrayRef:
			if l.Name == array || reads(dist, l.Name, true) {
				return false
			}
		}
	}
	return true
}

// precedes reports whether a occurs before b in the statement list (both
// must be top-level members of stmts or nested; source order by position).
func precedes(stmts []lang.Stmt, a, b lang.Stmt) bool {
	ai, bi := -1, -1
	i := 0
	lang.WalkStmts(stmts, func(s lang.Stmt) bool {
		if s == a {
			ai = i
		}
		if s == b {
			bi = i
		}
		i++
		return true
	})
	return ai >= 0 && bi >= 0 && ai < bi
}
