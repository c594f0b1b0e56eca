// Package pipeline orchestrates the full compiler: parsing, semantic
// analysis, the Polaris-like transformation passes, and loop
// parallelization, in the one phase order of Fig. 15(b) — all program units
// are fully transformed before the analyses run, the reorganization the
// paper introduced to make interprocedural array property analysis
// possible. What the original organization of Fig. 15(a) lost, the view
// across units, is available as an ablation: Options.Intraprocedural
// (`-intra`) restricts the property analysis to one unit.
//
// The pipeline also keeps the books for Table 2: total compilation time and
// the share spent in array property analysis.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/deptest"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/passes"
	"repro/internal/sem"
)

// PhaseTime is one pipeline phase's wall-clock duration.
type PhaseTime struct {
	Name     string
	Duration time.Duration
}

// Result is a finished compilation.
type Result struct {
	Program *lang.Program
	Info    *sem.Info
	Reports []*parallel.LoopReport

	// Diags are the lint and audit findings (only with Options.Lint),
	// sorted by span then code.
	Diags []lint.Diag

	// LoC is the number of non-blank source lines.
	LoC int
	// CompileTime is the wall-clock duration of the whole compilation.
	CompileTime time.Duration
	// PropertyTime is the share spent in array property analysis.
	PropertyTime time.Duration
	// Phases is the per-phase time breakdown, in execution order: parse,
	// sem, inline, ipcp, one entry per scalar pass round, interchange
	// (when enabled), reduction and parallelize.
	Phases []PhaseTime
	// PropertyStats are the analysis counters.
	PropertyStats property.Stats
	// InternStats is always zero: the expression interner it counted is
	// gone, and the field stays only because the benchmark module
	// (perfbench) still reads Hits and Misses.
	InternStats struct{ Hits, Misses int64 }
	// Interchanged counts loop nests swapped by the optional interchange
	// pass.
	Interchanged int
	// Recorder is the telemetry recorder the compilation ran with (nil
	// when telemetry was off). Its event stream drives Explain and the
	// trace dump.
	Recorder *obs.Recorder
}

// ParallelLoops returns the reports of loops that were parallelized.
func (r *Result) ParallelLoops() []*parallel.LoopReport {
	var out []*parallel.LoopReport
	for _, lr := range r.Reports {
		if lr.Parallel {
			out = append(out, lr)
		}
	}
	return out
}

// Options configures optional pipeline features beyond the mode.
type Options struct {
	// Intraprocedural restricts the property analysis to one unit
	// (`-intra`), the view the per-unit phase order of Fig. 15(a) had.
	Intraprocedural bool
	// Interchange enables the loop-interchange pass ([22]): legal,
	// locality-improving perfect nests are swapped after the scalar
	// transformations.
	Interchange bool
	// Recorder, when non-nil, collects telemetry: one span per phase, one
	// span per analyzed loop, one event per property query propagation
	// step, and the dependence-test verdicts. Nil runs with telemetry off
	// at no measurable cost.
	Recorder *obs.Recorder
	// Jobs is how many inputs CompileBatch compiles at once (0 or
	// negative: GOMAXPROCS). One compilation always runs on the calling
	// goroutine, so CompileContext ignores it; batch results are collected
	// in input order, so the output is identical for every Jobs value.
	Jobs int
	// NoRecurrence disables the definition-site recurrence derivation and
	// the recurrence-window dependence test (`-no-recurrence`) — the
	// ablation showing which loops only parallelize because index-array
	// properties were proven from the loops that fill them.
	NoRecurrence bool
	// Limits bounds the resources one compilation may consume; the zero
	// value is unlimited. Violations surface as comperr.ErrResourceLimit.
	Limits Limits
	// Lint runs the diagnostics phase after parallelization: source lints
	// over a copy of the parse plus the verdict audit (see internal/lint).
	// The findings land in Result.Diags; they never fail the compilation.
	Lint bool
}

// Limits bounds one compilation. Zero fields are unlimited; exceeding a
// bound aborts the compilation with a comperr.ErrResourceLimit-classified
// error instead of running unbounded.
type Limits struct {
	// MaxQuerySteps caps the total number of query-propagation node visits
	// of the property analysis across the whole compilation — the work
	// metric of Table 2 (Stats.NodesVisited).
	MaxQuerySteps int
	// MaxSourceBytes rejects larger source texts before parsing.
	MaxSourceBytes int
}

// Compile runs the full pipeline on source text.
func Compile(src string, mode parallel.Mode) (*Result, error) {
	return CompileOpts(src, mode, Options{})
}

// CompileOpts is Compile with optional features.
func CompileOpts(src string, mode parallel.Mode, opts Options) (*Result, error) {
	return CompileContext(context.Background(), src, mode, opts)
}

// CompileContext is CompileOpts under a context: the pipeline polls ctx at
// every phase boundary, inside the query-propagation loop of the property
// analysis, inside the §2 bounded depth-first searches and in the HCG
// worker pool, so a fired deadline or a client disconnect aborts
// mid-analysis. The returned error is typed (comperr): parse failures wrap
// comperr.ErrParse, semantic/pass failures comperr.ErrAnalysis, exceeded
// Limits comperr.ErrResourceLimit, and cancellation comperr.ErrCanceled
// (which also wraps the context error). The checkpoints only read, so an
// uncancelled compilation is byte-identical to one without a context.
func CompileContext(ctx context.Context, src string, mode parallel.Mode, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Limits.MaxSourceBytes > 0 && len(src) > opts.Limits.MaxSourceBytes {
		return nil, comperr.Limitf("source is %d bytes (limit %d)", len(src), opts.Limits.MaxSourceBytes)
	}
	guard := comperr.NewGuard(ctx, opts.Limits.MaxQuerySteps)
	res, err := compile(ctx, guard, src, mode, opts)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// compile is the pipeline body. Fired checkpoints unwind it with a
// comperr.Abort panic; the deferred RecoverAbort converts that into the
// typed error — the single place cancellation and resource-limit aborts
// rejoin the ordinary error path.
func compile(ctx context.Context, guard *comperr.Guard, src string, mode parallel.Mode, opts Options) (_ *Result, err error) {
	defer comperr.RecoverAbort(&err)
	start := time.Now()
	rec := opts.Recorder
	res := &Result{LoC: countLoC(src), Recorder: rec}

	// phase times a pipeline phase into the Result breakdown and, with
	// telemetry on, opens a matching span. Opening a phase is also a
	// cancellation barrier: a fired deadline never starts the next phase.
	phase := func(name string) func() {
		guard.Barrier()
		sp := rec.StartSpan("phase", obs.F("name", name))
		t0 := time.Now()
		return func() {
			d := time.Since(t0)
			res.Phases = append(res.Phases, PhaseTime{Name: name, Duration: d})
			rec.Observe("phase.duration:phase="+name, d)
			sp.End()
		}
	}

	end := phase("parse")
	prog, err := lang.Parse(src)
	// The source lints read the program as written, so they get a copy
	// before the passes rewrite this one.
	var written *lang.Program
	if err == nil && opts.Lint {
		written = lang.CloneProgram(prog)
	}
	end()
	if err != nil {
		return nil, comperr.Wrap(comperr.ErrParse, fmt.Errorf("parse: %w", err))
	}
	// One fact context carries the program's facts to every pass and
	// analysis. A pass that reports a change is followed by a fresh one.
	end = phase("sem")
	info, err := sem.Check(prog)
	if err != nil {
		end()
		return nil, comperr.Wrap(comperr.ErrAnalysis, fmt.Errorf("semantic analysis: %w", err))
	}
	fc := dataflow.NewContext(info)
	end()

	recheck := func() error {
		info, err := sem.Check(prog)
		if err != nil {
			return comperr.Wrap(comperr.ErrAnalysis, fmt.Errorf("internal: pass broke the program: %w", err))
		}
		fc = dataflow.NewContext(info)
		return nil
	}

	// Inlining and interprocedural constant propagation run first, as in
	// Fig. 15.
	end = phase("inline")
	if passes.Inline(prog) {
		if err := recheck(); err != nil {
			end()
			return nil, err
		}
	}
	end()
	end = phase("ipcp")
	if passes.PropagateGlobalConstants(fc) {
		if err := recheck(); err != nil {
			end()
			return nil, err
		}
	}
	end()

	// Program normalization and scalar transformations, to a fixed point
	// (bounded).
	for round := 0; round < 3; round++ {
		end = phase(fmt.Sprintf("scalar-%d", round+1))
		changed, err := scalarRound(&fc, recheck)
		end()
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}

	// Optional loop interchange (legality via the same dependence tests;
	// Full mode supplies property-based evidence too). Its property
	// analysis is separate from the parallelizer's — interchange mutates
	// the program, so its memo entries must not outlive the phase — but
	// its counters are folded into the Result below. It shares the fact
	// context, whose facts every swap drops.
	interchanged := 0
	var icStats property.Stats
	if opts.Interchange {
		end = phase("interchange")
		var prop *property.Analysis
		if mode == parallel.Full {
			ichp, err := cfg.BuildHCGCtx(ctx, prog)
			if err != nil {
				end()
				return nil, err
			}
			prop = property.New(fc, ichp)
			prop.Rec = rec
			prop.NoRecurrence = opts.NoRecurrence
			prop.Guard = guard
		}
		dep := deptest.New(fc, prop)
		dep.Rec = rec
		interchanged = passes.InterchangeLoops(dep)
		if interchanged > 0 {
			if err := recheck(); err != nil {
				end()
				return nil, err
			}
		}
		if prop != nil {
			icStats = prop.Stats
		}
		end()
	}

	// Reduction recognition, then the HCG build for every unit — the last
	// per-unit phase, and the Fig. 15(b) barrier: past this point the
	// analyses are interprocedural.
	end = phase("reduction")
	passes.RecognizeReductions(fc)
	end()
	end = phase("hcg")
	var hp *cfg.HProgram
	if mode == parallel.Full {
		hp, err = cfg.BuildHCGCtx(ctx, prog)
		if err != nil {
			end()
			return nil, err
		}
	}
	end()

	// Parallelization (privatization + data dependence tests, both driven
	// by the parallelizer).
	end = phase("parallelize")
	pz := parallel.New(fc, mode, hp)
	pz.SetRecorder(rec)
	pz.SetGuard(guard)
	if pz.Property() != nil {
		pz.Property().NoRecurrence = opts.NoRecurrence
		pz.Property().Intraprocedural = opts.Intraprocedural
	}
	reports := pz.Run()
	end()

	var diags []lint.Diag
	if opts.Lint {
		end = phase("lint")
		diags, err = runLint(ctx, guard, rec, opts, written, mode, fc.Info, pz, reports)
		end()
		if err != nil {
			return nil, err
		}
	}

	res.Program = prog
	res.Info = fc.Info
	res.Reports = reports
	res.Diags = diags
	res.CompileTime = time.Since(start)
	rec.Observe("compile.duration", res.CompileTime)
	res.Interchanged = interchanged
	res.PropertyStats = *pz.PropertyStats()
	res.PropertyStats.Add(icStats)
	res.PropertyTime = res.PropertyStats.Elapsed
	if rec.Enabled() {
		for name, v := range propertyCounters(&res.PropertyStats) {
			rec.Count(name, v)
		}
	}
	return res, nil
}

// scalarRound runs one round of the scalar transformation fixed point over
// the program of *fc. The program is rechecked, and *fc rebuilt, only after
// a pass that reports a change: a pass that returns false left the AST as
// it was, so the facts still hold. Whether the round changed anything (and
// so whether another round runs) does not count constant folding.
func scalarRound(fc **dataflow.Context, recheck func() error) (bool, error) {
	prog := (*fc).Info.Program
	folded := passes.FoldConstants(prog)
	changed := passes.SimplifyControl(prog)
	if folded || changed {
		if err := recheck(); err != nil {
			return changed, err
		}
	}
	for _, pass := range []func(*dataflow.Context) bool{
		passes.SubstituteInductionVariables,
		passes.PropagateConstants,
		passes.ForwardSubstitute,
		passes.EliminateDeadCode,
	} {
		if pass(*fc) {
			changed = true
			if err := recheck(); err != nil {
				return changed, err
			}
		}
	}
	return changed, nil
}

func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Summary renders a human-readable compilation report: the header with the
// total and property-analysis times, the per-phase breakdown, and one line
// per analyzed loop.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "compiled %d LoC in %v (property analysis %v, %.1f%%)\n",
		r.LoC, r.CompileTime.Round(time.Microsecond), r.PropertyTime.Round(time.Microsecond),
		100*float64(r.PropertyTime)/float64(max(int64(1), int64(r.CompileTime))))
	if len(r.Phases) > 0 {
		var parts []string
		for _, ph := range r.Phases {
			parts = append(parts, fmt.Sprintf("%s %v", ph.Name, ph.Duration.Round(time.Microsecond)))
		}
		fmt.Fprintf(&sb, "  phases: %s\n", strings.Join(parts, " | "))
	}
	for _, lr := range r.Reports {
		status := "serial  "
		if lr.Parallel {
			status = "PARALLEL"
		}
		fmt.Fprintf(&sb, "  %s %s", status, lr.Name)
		if lr.Parallel {
			if len(lr.Private) > 0 {
				fmt.Fprintf(&sb, " private(%s)", strings.Join(lr.Private, ","))
			}
			if len(lr.Reductions) > 0 {
				var rs []string
				for _, red := range lr.Reductions {
					rs = append(rs, red.Var)
				}
				fmt.Fprintf(&sb, " reduction(%s)", strings.Join(rs, ","))
			}
			arrs := make([]string, 0, len(lr.Tests))
			for arr := range lr.Tests {
				arrs = append(arrs, arr)
			}
			sort.Strings(arrs)
			for _, arr := range arrs {
				if test := lr.Tests[arr]; test != "" {
					fmt.Fprintf(&sb, " %s:%s", arr, test)
				}
			}
		} else {
			fmt.Fprintf(&sb, " [%s]", strings.Join(lr.Blockers, "; "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
