package pipeline

import (
	"encoding/json"
	"sort"

	"repro/internal/obs"
)

// MetricsSchema identifies the JSON layout of the metrics document; bump on
// incompatible changes so tooling that reads the documents can detect them.
const MetricsSchema = "irr-metrics/1"

// Metrics is the machine-readable metrics document of one compilation:
// per-phase durations, the analysis counters, and the per-loop verdicts.
// Emitted by `irrc -metrics` and `irrbench -metrics`.
type Metrics struct {
	Schema string `json:"schema"`
	LoC    int    `json:"loc"`
	// CompileNs and PropertyNs are wall-clock nanoseconds.
	CompileNs  int64         `json:"compile_ns"`
	PropertyNs int64         `json:"property_ns"`
	Phases     []PhaseMetric `json:"phases"`
	// Counters holds the property.Stats counters (property.queries,
	// property.nodes_visited, property.loop_summaries,
	// property.gather_hits, property.pattern_hits, and the query-cache
	// triple property.cache_hits / cache_misses / cache_invalidations)
	// plus any recorder counters (e.g. machine.loop.* simulated cycles
	// after a run).
	Counters     map[string]int64 `json:"counters"`
	Loops        []LoopMetric     `json:"loops"`
	Interchanged int              `json:"interchanged,omitempty"`
	// Events is the total number of telemetry events emitted over the
	// compilation (0 when telemetry was off). When it exceeds the recorder's
	// event log capacity, only the newest events survive; EventsDropped
	// counts the overwritten remainder.
	Events        int `json:"events,omitempty"`
	EventsDropped int `json:"events_dropped,omitempty"`
	// Histograms are the latency distributions the recorder collected
	// (per-phase, per-query-kind, whole-compile), with derived quantiles.
	Histograms []obs.HistogramEntry `json:"histograms,omitempty"`
}

// PhaseMetric is one phase's duration in nanoseconds.
type PhaseMetric struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// LoopMetric is one loop's parallelization verdict.
type LoopMetric struct {
	Name       string            `json:"name"`
	Parallel   bool              `json:"parallel"`
	Blockers   []string          `json:"blockers,omitempty"`
	Private    []string          `json:"private,omitempty"`
	Reductions []string          `json:"reductions,omitempty"`
	Tests      map[string]string `json:"tests,omitempty"`
	Properties []string          `json:"properties,omitempty"`
}

// Metrics assembles the metrics document. It works with telemetry off (the
// phase breakdown and property counters are always collected); recorder
// counters are merged in when a recorder was attached.
func (r *Result) Metrics() *Metrics {
	m := &Metrics{
		Schema:       MetricsSchema,
		LoC:          r.LoC,
		CompileNs:    int64(r.CompileTime),
		PropertyNs:   int64(r.PropertyTime),
		Counters:     map[string]int64{},
		Interchanged: r.Interchanged,
	}
	for _, ph := range r.Phases {
		m.Phases = append(m.Phases, PhaseMetric{Name: ph.Name, Ns: int64(ph.Duration)})
	}
	st := r.PropertyStats
	m.Counters["property.queries"] = int64(st.Queries)
	m.Counters["property.nodes_visited"] = int64(st.NodesVisited)
	m.Counters["property.loop_summaries"] = int64(st.LoopSummaries)
	m.Counters["property.gather_hits"] = int64(st.GatherHits)
	m.Counters["property.pattern_hits"] = int64(st.PatternHits)
	m.Counters["property.cache_hits"] = int64(st.CacheHits)
	m.Counters["property.cache_misses"] = int64(st.CacheMisses)
	m.Counters["property.cache_invalidations"] = int64(st.CacheInvalidations)
	m.Counters["property.derived.monotonic"] = int64(st.DerivedMonotonic)
	m.Counters["property.derived.injective"] = int64(st.DerivedInjective)
	m.Counters["property.derived.distance"] = int64(st.DerivedDistance)
	m.Counters["property.derived.failed"] = int64(st.DerivedFailed)
	for k, v := range r.Recorder.Counters() {
		m.Counters[k] = v
	}
	if r.Recorder.Enabled() {
		emitted, dropped, _ := r.Recorder.EventStats()
		m.Events = int(emitted)
		m.EventsDropped = int(dropped)
		m.Histograms = r.Recorder.HistogramEntries()
	}
	for _, lr := range r.Reports {
		lm := LoopMetric{
			Name:       lr.Name,
			Parallel:   lr.Parallel,
			Blockers:   lr.Blockers,
			Private:    lr.Private,
			Properties: lr.Properties,
		}
		for _, red := range lr.Reductions {
			lm.Reductions = append(lm.Reductions, red.Var)
		}
		if len(lr.Tests) > 0 {
			lm.Tests = map[string]string{}
			for arr, test := range lr.Tests {
				if test != "" {
					lm.Tests[arr] = string(test)
				}
			}
		}
		m.Loops = append(m.Loops, lm)
	}
	sort.Slice(m.Loops, func(i, j int) bool { return m.Loops[i].Name < m.Loops[j].Name })
	return m
}

// SummaryJSON marshals the metrics document, indented. This is the payload
// of `irrc -metrics out.json` and the per-kernel entries of
// `irrbench -metrics`.
func (r *Result) SummaryJSON() ([]byte, error) {
	return json.MarshalIndent(r.Metrics(), "", "  ")
}
