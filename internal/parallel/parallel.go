// Package parallel decides which DO loops can run in parallel, combining
// the dependence tests, the privatization test and reduction recognition —
// the final stage of the paper's pipeline. Three configurations reproduce
// the three compilers of the evaluation (Fig. 16):
//
//   - Full: Polaris with irregular access analysis (the paper's system);
//   - NoIAA: Polaris without irregular access analysis (symbolic range test
//     and affine privatization only);
//   - Baseline: an affine-only auto-parallelizer standing in for the SGI
//     F77 APO baseline (GCD/affine dependence tests, scalar privatization
//     and reductions, no array privatization).
package parallel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/deptest"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/privatize"
)

// Mode selects the analysis configuration.
type Mode int

// Modes.
const (
	Full Mode = iota
	NoIAA
	Baseline
)

func (m Mode) String() string {
	switch m {
	case Full:
		return "polaris+iaa"
	case NoIAA:
		return "polaris"
	case Baseline:
		return "apo"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a configuration name — "full", "noiaa" or "baseline",
// in any case, with "" meaning "full" — onto its Mode. It is the one
// parser behind the CLIs' -mode flag and the service's "mode" field.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "", "full":
		return Full, nil
	case "noiaa":
		return NoIAA, nil
	case "baseline":
		return Baseline, nil
	}
	return Full, fmt.Errorf("unknown mode %q", name)
}

// LoopReport records the parallelization decision for one loop.
type LoopReport struct {
	Unit *lang.Unit
	Loop *lang.DoStmt
	// Name identifies the loop for reports: unit/do<var>@line.
	Name     string
	Parallel bool
	// Blockers lists why the loop stayed serial.
	Blockers []string
	// Dependent lists the arrays a carried dependence keeps serial, in the
	// order their "carried dependence on array" blockers name them.
	Dependent []string
	// Private lists privatized arrays and scalars.
	Private []string
	// Reductions recognized for the loop.
	Reductions []lang.Reduction
	// Tests lists the dependence tests that fired, per array.
	Tests map[string]deptest.TestKind
	// Properties lists verified index-array properties used anywhere.
	Properties []string
	// PrivReasons records, per privatized array, the technique.
	PrivReasons map[string]privatize.Reason
}

// Parallelizer drives loop parallelization over a checked program.
type Parallelizer struct {
	Mode Mode

	rec   *obs.Recorder
	facts *dataflow.Context
	dep   *deptest.Analyzer
	priv  *privatize.Analyzer
	prop  *property.Analysis
}

// New builds a Parallelizer in the given mode over the compilation's fact
// context, which the property analysis, the dependence tests and
// privatization share. hp is the program's HCG, which the pipeline builds
// as its own timed phase; a nil hp is built here, and outside Full mode hp
// is unused.
func New(fc *dataflow.Context, mode Mode, hp *cfg.HProgram) *Parallelizer {
	var prop *property.Analysis
	if mode == Full {
		if hp == nil {
			hp = cfg.BuildHCG(fc.Info.Program)
		}
		prop = property.New(fc, hp)
	}
	p := &Parallelizer{
		Mode:  mode,
		facts: fc,
		prop:  prop,
		dep:   deptest.New(fc, prop),
		priv:  privatize.New(fc, prop),
	}
	if mode != Full {
		p.priv.DisableSingleIndex = true
	}
	return p
}

// SetRecorder attaches a telemetry recorder (nil disables): the
// parallelizer opens one "loop" span per analyzed loop, and the recorder is
// threaded into the dependence tests and the property analysis so query
// propagation steps trace under it. Call before Run.
func (p *Parallelizer) SetRecorder(rec *obs.Recorder) {
	p.rec = rec
	p.dep.Rec = rec
	if p.prop != nil {
		p.prop.Rec = rec
	}
}

// SetGuard threads the cooperative cancellation / step-budget guard into
// the property analysis (query propagation), the dependence tests (the
// reference pair loop) and the privatization test (the §2 bDFS runs and
// the walker's section comparisons). A nil guard is a disabled guard.
// Call before Run.
func (p *Parallelizer) SetGuard(g *comperr.Guard) {
	if p.prop != nil {
		p.prop.Guard = g
	}
	p.dep.Guard = g
	p.priv.Guard = g
}

// PropertyStats exposes the property-analysis counters (nil-safe).
func (p *Parallelizer) PropertyStats() *property.Stats {
	if p.prop == nil {
		return &property.Stats{}
	}
	return &p.prop.Stats
}

// Property returns the property analysis, or nil outside Full mode.
func (p *Parallelizer) Property() *property.Analysis { return p.prop }

// Run analyzes every unit, marks parallel loops in the AST (DoStmt.Parallel,
// .Private) and returns a report per analyzed loop. Outermost parallel
// loops win: loops nested inside a parallel loop are not considered.
func (p *Parallelizer) Run() []*LoopReport {
	var reports []*LoopReport
	for _, u := range p.facts.Info.Program.Units() {
		reports = append(reports, p.runUnit(u)...)
	}
	return reports
}

func (p *Parallelizer) runUnit(u *lang.Unit) []*LoopReport {
	var reports []*LoopReport
	var visit func(stmts []lang.Stmt)
	visit = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *lang.DoStmt:
				r := p.AnalyzeLoop(u, s)
				reports = append(reports, r)
				if r.Parallel {
					continue // outermost parallel loop wins
				}
				visit(s.Body)
			case *lang.IfStmt:
				visit(s.Then)
				for i := range s.Elifs {
					visit(s.Elifs[i].Body)
				}
				visit(s.Else)
			case *lang.WhileStmt:
				visit(s.Body)
			}
		}
	}
	visit(u.Body)
	return reports
}

// AnalyzeLoop decides one loop and annotates the AST on success.
func (p *Parallelizer) AnalyzeLoop(u *lang.Unit, loop *lang.DoStmt) *LoopReport {
	r := &LoopReport{
		Unit: u, Loop: loop,
		Name:        lang.LoopName(u, loop),
		Tests:       map[string]deptest.TestKind{},
		PrivReasons: map[string]privatize.Reason{},
	}
	if p.rec.Enabled() {
		sp := p.rec.StartSpan("loop", obs.F("name", r.Name), obs.F("unit", u.Name))
		defer func() {
			p.rec.Event("loop.verdict",
				obs.F("name", r.Name),
				obs.Fb("parallel", r.Parallel),
				obs.F("blockers", strings.Join(r.Blockers, "; ")))
			sp.End()
		}()
	}
	block := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		for _, b := range r.Blockers {
			if b == msg {
				return
			}
		}
		r.Blockers = append(r.Blockers, msg)
	}

	// Structural requirements.
	bodyMod := p.facts.StmtsMod(loop.Body)
	if bodyMod.Scalars[loop.Var.Name] {
		block("loop variable %s modified in body", loop.Var.Name)
	}
	boundVarsOK := true
	for _, e := range []lang.Expr{loop.Lo, loop.Hi, loop.Step} {
		if e == nil {
			continue
		}
		lang.WalkExpr(e, func(x lang.Expr) bool {
			switch x := x.(type) {
			case *lang.Ident:
				if bodyMod.Scalars[x.Name] {
					boundVarsOK = false
				}
			case *lang.ArrayRef:
				if !x.Intrinsic && bodyMod.Arrays[x.Name] {
					boundVarsOK = false
				}
			}
			return true
		})
	}
	if !boundVarsOK {
		block("loop bounds modified in body")
	}
	structureOK := true
	lang.WalkStmts(loop.Body, func(s lang.Stmt) bool {
		switch s.(type) {
		case *lang.PrintStmt:
			block("I/O in loop body")
			structureOK = false
		case *lang.ReturnStmt, *lang.StopStmt:
			block("control leaves the loop body")
			structureOK = false
		case *lang.CallStmt:
			// Calls block parallelization (the pipeline inlines eligible
			// callees beforehand, matching the Polaris setup).
			block("unresolved call in loop body")
			structureOK = false
		}
		return structureOK
	})
	if len(r.Blockers) > 0 {
		return r
	}

	// Reductions were annotated by the passes; in Baseline mode keep only
	// sum reductions (the typical auto-parallelizer capability).
	reds := loop.Reductions
	if p.Mode == Baseline {
		var kept []lang.Reduction
		for _, red := range reds {
			if red.Op == lang.OpAdd {
				kept = append(kept, red)
			}
		}
		reds = kept
	}
	redVars := map[string]bool{}
	for _, red := range reds {
		redVars[red.Var] = true
	}

	// Scalar analysis.
	sc := newScalarCheck(p, u, loop, redVars)
	privScalars, scalarBlockers := sc.run()
	for _, b := range scalarBlockers {
		block("%s", b)
	}

	// Array analysis.
	var privArrays []string
	if len(r.Blockers) == 0 {
		arrayBlockers := p.analyzeArrays(u, loop, r, &privArrays)
		for _, b := range arrayBlockers {
			block("%s", b)
		}
	}

	if len(r.Blockers) > 0 {
		return r
	}

	r.Parallel = true
	r.Private = append(append([]string(nil), privArrays...), privScalars...)
	sort.Strings(r.Private)
	r.Reductions = reds

	loop.Parallel = true
	loop.Private = r.Private
	loop.Reductions = reds
	return r
}

// analyzeArrays combines dependence and privatization results per array.
// The privatization test runs only for the arrays the dependence tests
// leave dependent.
func (p *Parallelizer) analyzeArrays(u *lang.Unit, loop *lang.DoStmt, r *LoopReport, privArrays *[]string) []string {
	verdicts := p.dep.AnalyzeLoop(u, loop)
	arrays := make([]string, 0, len(verdicts))
	for arr := range verdicts {
		arrays = append(arrays, arr)
	}
	sort.Strings(arrays)

	var dependent []string
	for _, arr := range arrays {
		v := verdicts[arr]
		// The baseline only trusts affine evidence.
		if v.Independent && (p.Mode != Baseline || v.Test == deptest.TestAffine) {
			r.Tests[arr] = v.Test
			r.Properties = append(r.Properties, v.Properties...)
			continue
		}
		dependent = append(dependent, arr)
	}
	var privResults map[string]*privatize.Result
	if p.Mode != Baseline && len(dependent) > 0 {
		privResults = p.priv.AnalyzeLoop(u, loop, dependent)
	}

	var blockers []string
	for _, arr := range dependent {
		if pr := privResults[arr]; pr != nil && pr.Private {
			if pr.LiveOut {
				blockers = append(blockers, fmt.Sprintf("array %s privatizable but live-out", arr))
				continue
			}
			*privArrays = append(*privArrays, arr)
			r.PrivReasons[arr] = pr.Reason
			r.Properties = append(r.Properties, pr.Properties...)
			continue
		}
		blockers = append(blockers, fmt.Sprintf("carried dependence on array %s", arr))
		r.Dependent = append(r.Dependent, arr)
		// With telemetry on, replay the relevant index-array property
		// queries so the decision log can show which one failed.
		p.dep.DiagnoseArray(u, loop, arr)
	}
	r.Properties = dedup(r.Properties)
	return blockers
}

func dedup(ss []string) []string {
	seen := map[string]bool{}
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
