package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parallel"
	"repro/internal/sem"
)

// Recurrence-verdict audit: every monotonicity/injectivity fact a parallel
// verdict cites is re-derived at its definition site (property.AuditFill
// replays the same recurrence derivation the provers used) and then
// re-checked through two oracles that share nothing with the derivation:
//
//  1. small-bounds instantiation: the recurrence increments are evaluated
//     for the first few pair positions and their claimed sign checked
//     directly (a statically negative increment refutes monotonicity, a
//     zero one refutes strictness);
//  2. value replay: after the footprint replay the index array's final
//     contents are read back from the interpreter and scanned for an
//     adjacent inversion over the derived element section.
//
// Either disagreement is an IRR9001 audit mismatch — the parallel verdict
// rests on the refuted property.

// recClaim is one derived-property claim cited by a parallel verdict.
type recClaim struct {
	array  string
	strict bool // injectivity was used, so the fill must be strictly increasing
	report *parallel.LoopReport
}

// recurrenceClaims extracts the audited claims from the verdicts' property
// evidence: every "monotonic(x)" or "injective(x)" cited by a parallel
// loop, deduplicated per array (injectivity anywhere upgrades the claim to
// strict).
func recurrenceClaims(reports []*parallel.LoopReport) []*recClaim {
	byArr := map[string]*recClaim{}
	for _, r := range reports {
		if !r.Parallel {
			continue
		}
		for _, p := range r.Properties {
			arr, strict := "", false
			if rest, ok := strings.CutPrefix(p, "monotonic("); ok {
				arr = strings.TrimSuffix(rest, ")")
			} else if rest, ok := strings.CutPrefix(p, "injective("); ok {
				arr, strict = strings.TrimSuffix(rest, ")"), true
			} else {
				continue
			}
			c := byArr[arr]
			if c == nil {
				c = &recClaim{array: arr, report: r}
				byArr[arr] = c
			}
			c.strict = c.strict || strict
		}
	}
	out := make([]*recClaim, 0, len(byArr))
	for _, c := range byArr {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].array < out[j].array })
	return out
}

// auditRecurrence re-checks every claim against every fill loop the
// derivation recognizes for its array. final is the interpreter of the
// completed footprint replay (nil when the replay did not finish — the
// value oracle is skipped, the static one still runs). Returns the
// diagnostics and the number of (claim, fill) verdicts audited.
func auditRecurrence(info *sem.Info, prop *property.Analysis, reports []*parallel.LoopReport,
	final *interp.Interp) ([]Diag, int) {

	if prop == nil {
		return nil, 0
	}
	claims := recurrenceClaims(reports)
	if len(claims) == 0 {
		return nil, 0
	}
	var diags []Diag
	audited := 0
	for _, c := range claims {
		for _, u := range info.Program.Units() {
			sc := info.Scope(u)
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				d, ok := s.(*lang.DoStmt)
				if !ok {
					return true
				}
				dr := prop.AuditFill(d, c.array)
				if dr == nil || !dr.Monotonic() {
					// Not a recognized fill of this array (or one the
					// derivation itself rejects): nothing claimed, nothing
					// to audit here.
					return true
				}
				audited++
				if dg, bad := checkFillStatic(sc, u, d, dr, c); bad {
					diags = append(diags, dg)
				} else if dg, bad := checkFillValues(info, sc, u, d, dr, c, final); bad {
					diags = append(diags, dg)
				}
				return true
			})
		}
	}
	return diags, audited
}

// checkFillStatic instantiates the recurrence increments over the first few
// pair positions and checks the claimed sign. Increments that do not fold
// to a constant (distance-array fills like off(i+1)=off(i)+cnt(i)) are left
// to the value oracle.
func checkFillStatic(sc *sem.Scope, u *lang.Unit, d *lang.DoStmt,
	dr *property.DeriveResult, c *recClaim) (Diag, bool) {

	lo, okLo := evalSub(sc, dr.PairLo.ToAST(), "", 0)
	hi, okHi := evalSub(sc, dr.PairHi.ToAST(), "", 0)
	if !okLo || !okHi {
		return Diag{}, false
	}
	trips := min(hi-lo+1, maxStaticTrips)
	for k := int64(0); k < trips; k++ {
		v := lo + k
		for _, inc := range dr.Incs {
			ev, ok := evalSub(sc, inc.ToAST(), dr.Var, v)
			if !ok {
				continue
			}
			if ev < 0 || (c.strict && ev == 0) {
				want := "nonnegative"
				if c.strict {
					want = "positive"
				}
				dg := New(CodeAuditParallel, d.Pos(),
					"audit mismatch: loop %s relies on derived %s, but the fill of %q at %s=%d has increment %v = %d (want %s)",
					c.report.Name, claimName(c), c.array, dr.Var, v, inc, ev, want)
				dg.Related = append(dg.Related, Related{Message: "independent oracle: exhaustive small-bounds instantiation of the filling recurrence"})
				dg.Unit = u.Name
				return dg, true
			}
		}
	}
	return Diag{}, false
}

// checkFillValues reads the array's final contents back from the replay
// interpreter and scans the derived element section for an adjacent
// inversion (or a duplicate, when the claim is strict).
func checkFillValues(info *sem.Info, sc *sem.Scope, u *lang.Unit, d *lang.DoStmt,
	dr *property.DeriveResult, c *recClaim, final *interp.Interp) (Diag, bool) {

	if final == nil {
		return Diag{}, false
	}
	vals, err := final.GlobalArrayInt(c.array)
	if err != nil {
		return Diag{}, false
	}
	sym := info.Scope(u).Lookup(c.array)
	if sym == nil || sym.Kind != sem.ArraySym || len(sym.Dims) != 1 {
		return Diag{}, false
	}
	lo, okLo := evalSub(sc, dr.ElemLo.ToAST(), "", 0)
	hi, okHi := evalSub(sc, dr.ElemHi.ToAST(), "", 0)
	if !okLo || !okHi {
		return Diag{}, false
	}
	dim := sym.Dims[0]
	if lo < dim.Lo {
		lo = dim.Lo
	}
	if hi > dim.Hi {
		hi = dim.Hi
	}
	for j := lo; j < hi; j++ {
		a, b := vals[j-dim.Lo], vals[j+1-dim.Lo]
		if a > b || (c.strict && a == b) {
			dg := New(CodeAuditParallel, d.Pos(),
				"audit mismatch: loop %s relies on derived %s, but the replayed values have %s(%d) = %d and %s(%d) = %d",
				c.report.Name, claimName(c), c.array, j, a, c.array, j+1, b)
			dg.Related = append(dg.Related, Related{Message: "independent oracle: interpreter value replay over the derived element section"})
			dg.Unit = u.Name
			return dg, true
		}
	}
	return Diag{}, false
}

func claimName(c *recClaim) string {
	if c.strict {
		return fmt.Sprintf("injective(%s)", c.array)
	}
	return fmt.Sprintf("monotonic(%s)", c.array)
}

// ---------------------------------------------------------------------------
// IRR2004: recurrence-filled offset arrays that resist the derivation

// lintNonMonotonicFill reports index arrays that are filled by a recognized
// recurrence whose monotonicity could not be proven: the fill has the shape
// of a prefix sum, but some increment's sign is unknown, so every consumer
// subscripting through the array stays serial. Only arrays actually used
// inside subscripts are reported — a non-monotonic fill of a plain data
// array is not a finding.
func lintNonMonotonicFill(info *sem.Info, prop *property.Analysis, guard *comperr.Guard) []Diag {
	if prop == nil {
		return nil
	}
	idx := indexArraySet(info.Program)
	if len(idx) == 0 {
		return nil
	}
	var diags []Diag
	for _, u := range info.Program.Units() {
		guard.Check()
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			d, ok := s.(*lang.DoStmt)
			if !ok {
				return true
			}
			for _, arr := range fillCandidates(d) {
				if !idx[arr] {
					continue
				}
				dr := prop.AuditFill(d, arr)
				if dr == nil || dr.Monotonic() {
					continue
				}
				dg := New(CodeNonMonotonic, d.Pos(),
					"offset array %q is not provably monotonic: its recurrence fill has an increment of unknown sign, so loops subscripting through it stay serial", arr)
				for _, st := range dr.Steps {
					dg.Related = append(dg.Related, Related{Message: "derivation: " + st})
					if len(dg.Related) >= 6 {
						break
					}
				}
				dg.FixHint = fmt.Sprintf("make every per-step increment of %s provably nonnegative (e.g. fill from lengths that are >= 0 by construction)", arr)
				if u != info.Program.Main {
					dg.Unit = u.Name
				}
				diags = append(diags, dg)
			}
			return true
		})
	}
	return diags
}

// fillCandidates lists the arrays a loop body assigns in self-referential
// form x(...) = ... x(...) ... — the syntactic precondition of a recurrence
// fill, cheap enough to test before running the derivation.
func fillCandidates(d *lang.DoStmt) []string {
	seen := map[string]bool{}
	var out []string
	lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			return true
		}
		lhs, ok := as.Lhs.(*lang.ArrayRef)
		if !ok || lhs.Intrinsic || len(lhs.Args) != 1 || seen[lhs.Name] {
			return true
		}
		self := false
		lang.WalkExpr(as.Rhs, func(x lang.Expr) bool {
			if ar, ok := x.(*lang.ArrayRef); ok && !ar.Intrinsic && ar.Name == lhs.Name {
				self = true
			}
			return !self
		})
		if self {
			seen[lhs.Name] = true
			out = append(out, lhs.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// indexArraySet collects every array whose values steer other accesses:
// arrays appearing inside a subscript of another (non-intrinsic) array
// reference, and arrays appearing in DO-loop bounds (offset arrays consumed
// as access windows, the CSR shape).
func indexArraySet(prog *lang.Program) map[string]bool {
	idx := map[string]bool{}
	mark := func(e lang.Expr) {
		lang.WalkExpr(e, func(y lang.Expr) bool {
			if ia, ok := y.(*lang.ArrayRef); ok && !ia.Intrinsic {
				idx[ia.Name] = true
			}
			return true
		})
	}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			if d, ok := s.(*lang.DoStmt); ok {
				mark(d.Lo)
				mark(d.Hi)
				if d.Step != nil {
					mark(d.Step)
				}
			}
			lang.StmtExprs(s, func(e lang.Expr) {
				lang.WalkExpr(e, func(x lang.Expr) bool {
					ref, ok := x.(*lang.ArrayRef)
					if !ok || ref.Intrinsic {
						return true
					}
					for _, a := range ref.Args {
						mark(a)
					}
					return true
				})
			})
			return true
		})
	}
	return idx
}
