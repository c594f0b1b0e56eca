package pipeline

import (
	"slices"

	"repro/internal/lint"
)

// Snapshot is an immutable, cheaply shareable view of a finished
// compilation: the rendered summary, the frozen irr-metrics/1 document and
// a copy of the Result, captured once at snapshot time. A snapshot can be
// shared across goroutines and across requests — the cross-request cache
// (internal/rescache via irrd) stores exactly one snapshot per distinct
// compilation.
//
// Immutability contract: everything reachable from a snapshot is frozen.
// The accessor methods return defensive copies of the mutable slice
// types; the underlying compilation (program, semantic info, reports) is
// shared by every Clone and must be treated as read-only — the pipeline
// never mutates a program after compile returns, and the interpreter and
// the bounds-check analysis only read it, so concurrent Clones may run
// simultaneously. Per-request state (the telemetry Recorder, the lazily
// computed bounds-check result at the public-API layer) is deliberately
// NOT part of the snapshot: its Result copy has a nil Recorder, so the
// compile's event log is not kept alive by the cache, and each Clone
// starts with a nil Recorder.
type Snapshot struct {
	summary     string
	metricsJSON []byte
	res         Result
}

// Snapshot freezes the result. The metrics document is rendered now, so a
// later caller sees the compilation exactly as it finished even if the
// recorder keeps absorbing run-phase counters.
func (r *Result) Snapshot() (*Snapshot, error) {
	metrics, err := r.SummaryJSON()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{summary: r.Summary(), metricsJSON: metrics, res: *r}
	s.res.Recorder = nil
	s.res.Diags = append([]lint.Diag(nil), r.Diags...)
	return s, nil
}

// Summary returns the frozen human-readable compilation report.
func (s *Snapshot) Summary() string { return s.summary }

// MetricsJSON returns a copy of the frozen irr-metrics/1 document.
func (s *Snapshot) MetricsJSON() []byte {
	return append([]byte(nil), s.metricsJSON...)
}

// Diags returns a copy of the frozen diagnostics.
func (s *Snapshot) Diags() []lint.Diag { return slices.Clone(s.res.Diags) }

// Cost estimates the bytes a cached snapshot retains: the frozen strings
// and documents it holds directly, plus per-diagnostic, per-report and
// per-line charges for the shared program, semantic info and loop reports
// kept alive through its Result copy. It is an estimate — the rescache
// byte budget is approximate by design — and over the kernels and
// generated programs it charges more than the heap a snapshot retains
// (TestSnapshotCostCoversRetainedHeap).
func (s *Snapshot) Cost() int64 {
	c := int64(len(s.summary)) + int64(len(s.metricsJSON))
	c += int64(len(s.res.Diags)) * 512
	c += int64(len(s.res.Reports)) * 256
	c += int64(s.res.LoC) * 1024 // AST + sem.Info + reports, per source line
	return c + 16<<10            // fixed structural overhead
}

// Clone returns a fresh per-caller Result over the snapshot's immutable
// compilation. The clone shares the program, semantic info and reports
// (read-only); its Recorder is nil — a caller that wants run telemetry
// attaches its own recorder before Run/RunContext, keeping per-request
// event streams out of the shared snapshot.
func (s *Snapshot) Clone() *Result {
	c := s.res
	return &c
}
