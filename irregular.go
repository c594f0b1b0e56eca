// Package irregular is a Go reproduction of Lin & Padua, "Compiler Analysis
// of Irregular Memory Accesses" (PLDI 2000): a parallelizing compiler for
// the small Fortran-like language F-lite whose loop parallelization is
// driven by the paper's two compile-time techniques for irregular array
// accesses —
//
//  1. irregular single-indexed access analysis (§2): bounded depth-first
//     searches over the control-flow graph classify arrays subscripted by a
//     single scalar as consecutively written or as array stacks;
//  2. demand-driven interprocedural array property analysis (§3): reverse
//     query propagation over a hierarchical control graph derives and
//     verifies index-array properties (injectivity, monotonicity,
//     closed-form values, bounds and distances), with index-gathering loops
//     (§4) recognised through technique 1.
//
// The results feed the privatization test and the dependence tests (range
// test, offset–length test, injective test, closed-form-value
// substitution), which decide loop parallelization. A deterministic
// simulated parallel machine executes the result, regenerating the paper's
// evaluation: Table 2 (compilation-time overhead of the property analysis),
// Table 3 (the loops and properties found) and Fig. 16 (speedups of the
// three compiler configurations).
//
// Quick start:
//
//	res, err := irregular.Compile(src, irregular.Options{})
//	fmt.Print(res.Summary())
//	out, _ := res.Run(irregular.RunOptions{Processors: 8})
//	fmt.Println(out.Time)
package irregular

import (
	"context"
	"io"

	"repro/internal/boundscheck"
	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// The typed error taxonomy of the public API. Every error returned by
// CompileContext, CompileBatchContext and RunContext (and their
// background-context wrappers) wraps exactly one of these sentinels;
// classify with errors.Is, never by message string. ErrCanceled errors
// additionally wrap the context error, so errors.Is against
// context.Canceled / context.DeadlineExceeded also holds.
var (
	// ErrParse marks source text the parser rejected.
	ErrParse = comperr.ErrParse
	// ErrAnalysis marks failures of semantic analysis or the
	// transformation passes.
	ErrAnalysis = comperr.ErrAnalysis
	// ErrResourceLimit marks a compilation or execution that exceeded a
	// configured bound (Options.Limits, RunOptions.MaxSteps) instead of
	// running unbounded.
	ErrResourceLimit = comperr.ErrResourceLimit
	// ErrCanceled marks a compilation or execution aborted by context
	// cancellation or deadline expiry.
	ErrCanceled = comperr.ErrCanceled
)

// Limits bounds the resources one compilation may consume; the zero value
// is unlimited. Both the library entry points and the irrd server honor the
// same limits.
type Limits = pipeline.Limits

// Mode selects the compiler configuration of the paper's evaluation.
type Mode = parallel.Mode

// Compiler configurations (Fig. 16's three lines).
const (
	// Full is Polaris with irregular access analysis — the paper's system.
	Full = parallel.Full
	// NoIAA is Polaris without irregular access analysis.
	NoIAA = parallel.NoIAA
	// Baseline is an affine-only auto-parallelizer (the SGI APO stand-in).
	Baseline = parallel.Baseline
)

// Options configures compilation.
type Options struct {
	// Mode is the compiler configuration; the zero value is Full.
	Mode Mode
	// Intraprocedural restricts the property analysis to single units,
	// modelling the pre-reorganization phase order of Fig. 15(a).
	Intraprocedural bool
	// Interchange enables the loop-interchange companion pass.
	Interchange bool
	// Telemetry attaches an obs.Recorder to the compilation (and to
	// subsequent Run calls) at the always-on production level: per-phase
	// spans and latency histograms, per-query-kind latency, dependence-test
	// verdicts and per-loop simulated time, driving Result.Explain,
	// Result.SummaryJSON and the irrd /metrics aggregation.
	Telemetry bool
	// Trace raises the recorder to debug level: per-node query propagation
	// steps, cache events and failed-verdict diagnosis replays — the detail
	// behind `-explain` decision logs and full Chrome trace exports. Implies
	// Telemetry. Costs per-HCG-node formatting work; not for production.
	Trace bool
	// RequestID, when set, is stamped onto the compilation's recorder as a
	// "request" event and carried into telemetry documents, correlating a
	// compilation's trace with the irrd request (X-Request-Id) that ran it.
	RequestID string
	// Jobs is how many inputs CompileBatch compiles at once (0 or
	// negative: GOMAXPROCS); a single compilation ignores it. The output
	// is identical for every value.
	Jobs int
	// NoRecurrence disables definition-site recurrence derivation (the
	// `-no-recurrence` ablation): index-array properties are no longer
	// proven from the loops that fill the arrays, so loops that depend on
	// derived monotonicity/injectivity stay serial.
	NoRecurrence bool
	// Limits bounds the compilation (source bytes, query-propagation
	// steps); the zero value is unlimited. Violations return
	// ErrResourceLimit-classified errors.
	Limits Limits
	// Lint runs the diagnostics phase: source lints (use-before-def,
	// unreachable code, degenerate DO loops, provable out-of-bounds
	// subscripts, non-injective index arrays) plus the parallelization
	// verdict audit. Findings land in Result.Diags; they never fail the
	// compilation.
	Lint bool
}

// pipelineConfig is the single conversion point from the public Options to
// the pipeline's option struct — every entry point (Compile, CompileBatch
// and their context variants, and through them the irrd server) builds its
// pipeline options here.
func (o Options) pipelineConfig() pipeline.Options {
	var rec *obs.Recorder
	switch {
	case o.Trace:
		rec = obs.NewDebug()
	case o.Telemetry:
		rec = obs.New()
	}
	if rec != nil && o.RequestID != "" {
		rec.Event("request", obs.F("id", o.RequestID))
	}
	return pipeline.Options{
		Intraprocedural: o.Intraprocedural,
		Interchange:     o.Interchange,
		Recorder:        rec,
		Jobs:            o.Jobs,
		NoRecurrence:    o.NoRecurrence,
		Limits:          o.Limits,
		Lint:            o.Lint,
	}
}

// Result is a finished compilation.
type Result struct {
	*pipeline.Result
	bounds *boundscheck.Result
}

// BoundsChecks runs (once, cached) the bounds-check elimination analysis —
// one of the companion applications of the irregular-access machinery —
// and reports which references are provably in range.
func (r *Result) BoundsChecks() *boundscheck.Result {
	if r.bounds == nil {
		prop := property.New(dataflow.NewContext(r.Info), cfg.BuildHCG(r.Program))
		r.bounds = boundscheck.New(r.Info, prop).Analyze()
	}
	return r.bounds
}

// Snapshot is an immutable, shareable view of a finished compilation: the
// frozen summary, irr-metrics/1 document and diagnostics. Snapshots are
// safe to share across goroutines and requests — the irrd cross-request
// cache stores one snapshot per distinct compilation — and Clone hands
// each caller an independent Result for per-request work (running on the
// simulated machine, bounds-check analysis) without touching shared state.
type Snapshot struct {
	s *pipeline.Snapshot
}

// Snapshot freezes the compilation. See pipeline.Snapshot for the
// immutability contract.
func (r *Result) Snapshot() (*Snapshot, error) {
	s, err := r.Result.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s}, nil
}

// Summary returns the frozen human-readable compilation report.
func (s *Snapshot) Summary() string { return s.s.Summary() }

// MetricsJSON returns a copy of the frozen irr-metrics/1 document.
func (s *Snapshot) MetricsJSON() []byte { return s.s.MetricsJSON() }

// Diags returns a copy of the frozen diagnostics.
func (s *Snapshot) Diags() []Diag { return s.s.Diags() }

// Cost estimates the snapshot's retained bytes (for cache byte budgets).
func (s *Snapshot) Cost() int64 { return s.s.Cost() }

// Clone returns a fresh per-caller Result over the snapshot's immutable
// compilation: the program, semantic info and reports are shared
// (read-only); the Recorder is nil and the bounds-check analysis is
// recomputed lazily per clone, so concurrent clones never share mutable
// state.
func (s *Snapshot) Clone() *Result {
	return &Result{Result: s.s.Clone()}
}

// Compile parses, transforms, analyzes and parallelizes an F-lite program.
// It is CompileContext with a background context: no deadline, no
// cancellation, no limits beyond opts.Limits.
func Compile(src string, opts Options) (*Result, error) {
	return CompileContext(context.Background(), src, opts)
}

// CompileContext is Compile under a context: the pipeline polls ctx at
// phase boundaries, inside the query-propagation loop of the property
// analysis and inside the §2 bounded depth-first searches, so a fired
// deadline or a canceled context aborts mid-analysis with an
// ErrCanceled-classified error (also matching the context error under
// errors.Is). The checkpoints only read, so an uncancelled compilation
// produces output byte-identical to Compile's.
func CompileContext(ctx context.Context, src string, opts Options) (*Result, error) {
	res, err := pipeline.CompileContext(ctx, src, opts.Mode, opts.pipelineConfig())
	if err != nil {
		return nil, err
	}
	return &Result{Result: res}, nil
}

// Diag is one lint or audit finding; see package internal/lint for the
// diagnostic model and the IRRxxxx code registry.
type Diag = lint.Diag

// DiagSeverity ranks a diagnostic.
type DiagSeverity = lint.Severity

// Diagnostic severities, ordered.
const (
	DiagInfo    = lint.Info
	DiagWarning = lint.Warning
	DiagError   = lint.Error
)

// RenderDiags writes diagnostics in the canonical text format, one primary
// line per finding plus indented related notes and fix hints.
func RenderDiags(diags []Diag) string { return lint.Render(diags) }

// Lint compiles src with the diagnostics phase enabled and returns the
// findings, sorted by source span then code. It is LintContext with a
// background context.
func Lint(src string, opts Options) ([]Diag, error) {
	return LintContext(context.Background(), src, opts)
}

// LintContext is Lint under a context (the same cancellation checkpoints
// as CompileContext, plus checkpoints inside the lint walks and the audit
// replay).
func LintContext(ctx context.Context, src string, opts Options) ([]Diag, error) {
	opts.Lint = true
	res, err := CompileContext(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// BatchInput is one source file of a batch compilation.
type BatchInput = pipeline.BatchInput

// BatchResult holds the per-input outcomes of CompileBatch in input order.
type BatchResult = pipeline.BatchResult

// CompileBatch compiles several programs, fanning the inputs over a
// worker pool of opts.Jobs goroutines. Every input is an independent
// compilation; per-input results, summaries and verdicts are deterministic
// — identical for any job count.
func CompileBatch(inputs []BatchInput, opts Options) *BatchResult {
	return CompileBatchContext(context.Background(), inputs, opts)
}

// CompileBatchContext is CompileBatch under a context: in-flight items
// abort at their cancellation checkpoints; items not yet started when ctx
// fires are marked with ErrCanceled-classified errors without compiling.
func CompileBatchContext(ctx context.Context, inputs []BatchInput, opts Options) *BatchResult {
	return pipeline.CompileBatchContext(ctx, inputs, opts.Mode, opts.pipelineConfig())
}

// MachineProfile selects a simulated machine.
type MachineProfile string

// Machine profiles of the paper's evaluation.
const (
	// Origin2000 models the paper's 56-processor SGI Origin 2000.
	Origin2000 MachineProfile = "origin2000"
	// Challenge models the paper's 4-processor SGI Challenge.
	Challenge MachineProfile = "challenge"
)

// Validate returns a Parse-classified error unless p names a machine
// profile; the empty name selects Origin2000. Callers check a profile with
// it before compiling, so a bad name fails before any work is done.
func (p MachineProfile) Validate() error {
	_, err := p.profile()
	return err
}

func (p MachineProfile) profile() (machine.Profile, error) {
	switch p {
	case Origin2000, "":
		return machine.Origin2000, nil
	case Challenge:
		return machine.Challenge, nil
	}
	return machine.Profile{}, comperr.Parsef("unknown machine profile %q", p)
}

// RunOptions configures one execution on the simulated machine.
type RunOptions struct {
	// Processors is the virtual processor count (default 1, at most
	// 1,024).
	Processors int
	// Profile selects the machine model (default Origin2000).
	Profile MachineProfile
	// Out receives PRINT output (nil discards it).
	Out io.Writer
	// MaxSteps bounds execution (0: a large default).
	MaxSteps uint64
	// EliminateBoundsChecks applies the bounds-check elimination analysis:
	// proven references skip the run-time check and cost less.
	EliminateBoundsChecks bool
}

// RunResult reports one execution.
type RunResult struct {
	// Time is the simulated execution time in cost-model cycles.
	Time uint64
	// ParallelRegions counts executed parallel regions.
	ParallelRegions int
	interp          *interp.Interp
}

// Global reads a global real or integer scalar as float64 after the run.
func (r *RunResult) Global(name string) (float64, error) {
	if v, err := r.interp.GlobalReal(name); err == nil {
		return v, nil
	}
	v, err := r.interp.GlobalInt(name)
	return float64(v), err
}

// Run executes the compiled (and annotated) program on the simulated
// machine. It is RunContext with a background context.
func (r *Result) Run(opts RunOptions) (*RunResult, error) {
	return r.RunContext(context.Background(), opts)
}

// RunContext is Run under a context: the interpreter polls ctx
// periodically (every few thousand simulated steps), so a fired deadline
// or canceled context aborts the execution with an ErrCanceled-classified
// error. Exceeding opts.MaxSteps, or asking for more than 1,024
// processors, returns an ErrResourceLimit-classified error; both classify
// with errors.Is.
func (r *Result) RunContext(ctx context.Context, opts RunOptions) (*RunResult, error) {
	prof, err := opts.Profile.profile()
	if err != nil {
		return nil, err
	}
	if opts.Processors < 1 {
		opts.Processors = 1
	}
	var safe map[*lang.ArrayRef]bool
	if opts.EliminateBoundsChecks {
		safe = r.BoundsChecks().Safe
	}
	m := machine.New(prof, opts.Processors)
	m.Rec = r.Recorder // nil when telemetry was off
	in := interp.New(r.Info, interp.Options{
		Machine:  m,
		Out:      opts.Out,
		MaxSteps: opts.MaxSteps,
		SafeRefs: safe,
		Ctx:      ctx,
	})
	if err := in.Run(); err != nil {
		return nil, err
	}
	return &RunResult{
		Time:            in.Machine().Time(),
		ParallelRegions: in.Machine().ParallelRegions(),
		interp:          in,
	}, nil
}

// Format pretty-prints the transformed program (parallel loops carry a
// !parallel annotation).
func (r *Result) Format() string { return lang.Format(r.Program) }

// Kernel names the bundled benchmark programs of the paper's evaluation.
func Kernels() []string {
	var names []string
	for _, k := range kernels.All(kernels.Small) {
		names = append(names, k.Name)
	}
	return names
}

// KernelSource returns the F-lite source of a bundled benchmark at the
// default evaluation size.
func KernelSource(name string) (string, error) {
	k, err := kernels.ByName(name, kernels.Default)
	if err != nil {
		return "", err
	}
	return k.Source, nil
}
