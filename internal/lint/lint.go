package lint

import (
	"fmt"

	"repro/internal/boundscheck"
	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

// Source runs the source lints over the checked program of fc: definite
// assignment (use before any reaching def), unreachable statements,
// degenerate DO loops and provable out-of-bounds subscripts. The program
// should be a fresh parse — spans then anchor to the user's source text,
// not to the transformed program. prop may be nil (index-array bounds are
// then unavailable to the out-of-bounds proof); guard may be nil (no
// cancellation checkpoints).
func Source(fc *dataflow.Context, prop *property.Analysis, guard *comperr.Guard) []Diag {
	info := fc.Info
	var diags []Diag
	for _, u := range info.Program.Units() {
		guard.Check()
		diags = append(diags, lintUnit(fc, u, guard)...)
	}
	diags = append(diags, lintBounds(info, prop)...)
	diags = append(diags, lintNonMonotonicFill(info, prop, guard)...)
	Sort(diags)
	return diags
}

func lintUnit(fc *dataflow.Context, u *lang.Unit, guard *comperr.Guard) []Diag {
	g := fc.Graph(u)
	var diags []Diag
	diags = append(diags, lintUnreachable(g, u)...)
	diags = append(diags, lintUseBeforeDef(g, fc, u, guard)...)
	diags = append(diags, lintDoLoops(fc.Info, u)...)
	for i := range diags {
		if u != fc.Info.Program.Main {
			diags[i].Unit = u.Name
		}
	}
	return diags
}

// lintUnreachable reports statements no control path reaches. A statement
// nested inside an already-unreachable one is suppressed: the outermost
// report is the actionable one.
func lintUnreachable(g *cfg.Graph, u *lang.Unit) []Diag {
	reached := map[lang.Stmt]bool{}
	for _, n := range g.ReversePostorder() {
		if n.Stmt != nil {
			reached[n.Stmt] = true
		}
	}
	var diags []Diag
	lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
		if reached[s] {
			return true
		}
		d := New(CodeUnreachable, s.Pos(), "unreachable statement (no control path reaches it)")
		d.FixHint = "remove the statement, or fix the GOTO/RETURN that cuts it off"
		diags = append(diags, d)
		return false // suppress nested reports
	})
	return diags
}

// lintUseBeforeDef reports scalar reads that are not definitely assigned:
// some path from the unit entry reaches the read without writing the
// variable, so the value read is the implicit zero initialization — almost
// always an omitted assignment. Whether some other path assigns it
// distinguishes the two flavours ("never assigned on any path" vs
// "unassigned on some path"). Globals read inside subroutines are skipped
// — their definitions may live in any caller — so the check is exact for
// locals and for the main program.
func lintUseBeforeDef(g *cfg.Graph, fc *dataflow.Context, u *lang.Unit, guard *comperr.Guard) []Diag {
	asg := dataflow.ComputeAssigned(g.Nodes, fc)
	main := u == fc.Info.Program.Main
	// One report per variable: the earliest read in source order is where
	// the fix goes.
	type finding struct {
		pos   lang.Pos
		never bool
	}
	first := map[string]finding{}
	for _, n := range g.ReversePostorder() {
		guard.Step()
		// A repeated read of v at n finds the same answer and position.
		for _, v := range fc.Node(n).ScalarReads {
			sym := fc.Info.Symbol(v.Slot)
			if sym == nil || sym.Kind != sem.ScalarSym {
				continue
			}
			if sym.Global && !main {
				continue
			}
			if asg.Must(n, v.Slot) {
				continue
			}
			pos := n.Pos()
			if p, ok := first[v.Name]; !ok || before(pos, p.pos) {
				first[v.Name] = finding{pos: pos, never: !asg.May(n, v.Slot)}
			}
		}
	}
	var diags []Diag
	for v, f := range first {
		var d Diag
		if f.never {
			d = New(CodeUseBeforeDef, f.pos, "scalar %q is read but never assigned on any path to this use", v)
		} else {
			d = New(CodeUseBeforeDef, f.pos, "scalar %q may be read before it is assigned (some path reaches this use without writing it)", v)
		}
		d.FixHint = fmt.Sprintf("assign %s before this statement (an unassigned scalar reads the implicit zero)", v)
		diags = append(diags, d)
	}
	return diags
}

func before(a, b lang.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// lintDoLoops reports DO headers whose constant-foldable control is
// degenerate: a zero step (a run-time fault) or bounds that contradict the
// step direction (a loop that never executes).
func lintDoLoops(info *sem.Info, u *lang.Unit) []Diag {
	sc := info.Scope(u)
	var diags []Diag
	lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
		do, ok := s.(*lang.DoStmt)
		if !ok {
			return true
		}
		step, stepConst := int64(1), true
		if do.Step != nil {
			step, stepConst = constInt(sc, do.Step)
		}
		if stepConst && step == 0 {
			d := New(CodeZeroStep, do.Pos(), "DO %s has a zero step: the loop faults at run time", do.Var.Name)
			d.FixHint = "use a non-zero step expression"
			diags = append(diags, d)
			return true
		}
		lo, okLo := constInt(sc, do.Lo)
		hi, okHi := constInt(sc, do.Hi)
		if stepConst && okLo && okHi {
			if (step > 0 && lo > hi) || (step < 0 && lo < hi) {
				d := New(CodeZeroTrip, do.Pos(),
					"DO %s never executes: bounds %d..%d contradict step %d", do.Var.Name, lo, hi, step)
				d.FixHint = "swap the bounds or negate the step"
				diags = append(diags, d)
			}
		}
		return true
	})
	return diags
}

// constInt folds an expression to a constant, resolving PARAM names.
func constInt(sc *sem.Scope, e lang.Expr) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value, true
	case *lang.Ident:
		if sc != nil {
			if sym := sc.Lookup(e.Name); sym != nil && sym.Kind == sem.ParamSym {
				return sym.Value, true
			}
		}
	case *lang.Unary:
		if v, ok := constInt(sc, e.X); ok && e.Op == lang.OpNeg {
			return -v, true
		}
	case *lang.Binary:
		l, okL := constInt(sc, e.X)
		r, okR := constInt(sc, e.Y)
		if okL && okR {
			switch e.Op {
			case lang.OpAdd:
				return l + r, true
			case lang.OpSub:
				return l - r, true
			case lang.OpMul:
				return l * r, true
			case lang.OpDiv:
				if r != 0 {
					return l / r, true
				}
			}
		}
	}
	return 0, false
}

// lintBounds reports subscripts proven out of bounds, reusing the
// bounds-check analyzer's symbolic machinery in the refuting direction.
func lintBounds(info *sem.Info, prop *property.Analysis) []Diag {
	a := boundscheck.New(info, prop)
	var diags []Diag
	for _, v := range a.Violations() {
		rel := "above"
		if v.Low {
			rel = "below"
		}
		d := New(CodeOutOfBounds, v.Ref.NamePos,
			"subscript %d of %q is provably out of bounds: range %s lies %s declared bound %d",
			v.Dim+1, v.Ref.Name, v.Sub, rel, v.Bound)
		d.FixHint = fmt.Sprintf("clamp the subscript into the declared bounds of %s", v.Ref.Name)
		if v.Unit != info.Program.Main {
			d.Unit = v.Unit.Name
		}
		diags = append(diags, d)
	}
	return diags
}
