// Package obs is the compiler's zero-dependency telemetry subsystem: a
// low-overhead event collector with spans (hierarchical timed regions),
// counters, fixed-bucket latency histograms, and structured events in a
// bounded log. The pipeline opens a span per phase, the property analysis
// emits one event per query propagation step (at Debug level), the
// dependence tests record which test fired per array, and the simulated
// machine records per-loop execution time — all into one Recorder whose
// stream drives the `-explain` decision log, the `-metrics` JSON document,
// the `-trace` raw dump, the Chrome trace export and the irrd Prometheus
// endpoint.
//
// The recorder is built to stay on in production:
//
//   - One mutex guards everything. Events come from one compilation or
//     one run on one goroutine, and the serving processes' shared
//     recorders only take counters and histograms, so the lock is almost
//     never contended.
//   - Events append to a log that grows on demand up to the level's
//     capacity; past it the oldest events are overwritten and counted
//     (obs.events.dropped) — a long-running server cannot grow an
//     unbounded event slice, and a short compilation pays only for the
//     events it emits.
//   - Latency observations land in fixed-bucket histograms (1-2-5 decades,
//     1µs..10s) with p50/p90/p99 derivation on snapshot.
//   - Two detail levels: LevelInfo (the always-on production default:
//     spans, verdicts, counters, histograms) and LevelDebug (adds the
//     per-node query propagation steps behind -explain, which inherently
//     cost formatting work per HCG node visited).
//
// Every method is nil-safe: a disabled (*Recorder)(nil) costs one branch,
// so the compiler threads an optional recorder through its hot paths
// without measurable overhead — and zero allocations — when telemetry is
// off. Call sites that build expensive field values (node labels, section
// strings) should still guard with Enabled() / DebugEnabled() so the
// formatting work is skipped entirely.
package obs

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Field is one key/value attribute of an event.
type Field struct {
	K string `json:"k"`
	V string `json:"v"`
}

// F builds a string field.
func F(k, v string) Field { return Field{K: k, V: v} }

// Fi builds an integer field.
func Fi(k string, v int64) Field { return Field{K: k, V: strconv.FormatInt(v, 10)} }

// Fb builds a boolean field.
func Fb(k string, v bool) Field { return Field{K: k, V: strconv.FormatBool(v)} }

// Event is one structured telemetry event. Span boundaries appear as
// "<kind>.begin" / "<kind>.end" pairs; the end event carries the span's
// duration. Depth is the span-nesting depth at emission time, which lets
// consumers rebuild the hierarchy from the flat stream.
type Event struct {
	Seq    int     `json:"seq"`
	TNs    int64   `json:"t_ns"`
	Kind   string  `json:"kind"`
	Depth  int     `json:"depth"`
	DurNs  int64   `json:"dur_ns,omitempty"`
	Fields []Field `json:"fields,omitempty"`
}

// Get returns the value of the named field ("" when absent).
func (e *Event) Get(key string) string {
	for _, f := range e.Fields {
		if f.K == key {
			return f.V
		}
	}
	return ""
}

func (e *Event) String() string {
	s := fmt.Sprintf("%10.3fms %*s%s", float64(e.TNs)/1e6, 2*e.Depth, "", e.Kind)
	for _, f := range e.Fields {
		s += fmt.Sprintf(" %s=%s", f.K, f.V)
	}
	if e.DurNs > 0 {
		s += fmt.Sprintf(" dur=%v", time.Duration(e.DurNs).Round(time.Microsecond))
	}
	return s
}

// Level selects how much detail a recorder collects.
type Level int32

// Detail levels.
const (
	// LevelInfo is the always-on production level: spans, verdict events,
	// counters and histograms. Per-node propagation steps are skipped, so
	// the enabled-path overhead stays within the production budget.
	LevelInfo Level = iota
	// LevelDebug additionally records the per-node query propagation steps
	// and cache/diagnosis events that drive `-explain` traces.
	LevelDebug
)

// Default event log capacities. A compilation at LevelInfo emits a few
// hundred events at most; LevelDebug traces emit one event per HCG node
// visited. The log grows on demand up to its capacity.
const (
	DefaultCapacity      = 8 << 10
	DefaultDebugCapacity = 128 << 10
)

// Config sizes a recorder.
type Config struct {
	// Level is the detail level (default LevelInfo).
	Level Level
	// Capacity bounds the event log; it is rounded up to a power of two.
	// 0 picks the default for the level.
	Capacity int
}

// Recorder collects events, counters and histograms for one compilation
// (or one serving process). The zero value is not usable; construct with
// New, NewDebug or NewWith. A nil *Recorder is a valid disabled recorder:
// every method returns immediately without allocating.
//
// All methods are safe for concurrent use; one mutex guards the state.
// Events are totally ordered by Seq; under single-goroutine emission (the
// compiler pipeline) the stream is deterministic.
type Recorder struct {
	start    time.Time
	level    Level
	capacity int // bound on the event log, a power of two

	mu    sync.Mutex
	depth int
	// events grows to capacity; from then on the event with Seq s sits
	// at s % capacity, overwriting the oldest.
	events   []Event
	emitted  int64
	counters map[string]int64
	hists    map[string]*HistSnapshot
}

// New builds an enabled recorder at LevelInfo — the always-on production
// configuration.
func New() *Recorder { return NewWith(Config{}) }

// NewDebug builds a recorder at LevelDebug with a large event bound: full
// query propagation traces for -explain / -trace.
func NewDebug() *Recorder { return NewWith(Config{Level: LevelDebug}) }

// NewWith builds a recorder from an explicit configuration. Nothing is
// allocated for events until they are emitted.
func NewWith(cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		if cfg.Level >= LevelDebug {
			capacity = DefaultDebugCapacity
		} else {
			capacity = DefaultCapacity
		}
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{start: time.Now(), level: cfg.Level, capacity: n}
}

// Enabled reports whether the recorder collects anything. Guard expensive
// field construction with it.
func (r *Recorder) Enabled() bool { return r != nil }

// DebugEnabled reports whether the recorder collects Debug-level detail
// (per-node propagation steps, cache events, diagnosis replays). Hot paths
// must guard their per-node formatting with it.
func (r *Recorder) DebugEnabled() bool { return r != nil && r.level >= LevelDebug }

// Event appends one event at the current span depth. When the log is
// full, the oldest event is overwritten (and counted as dropped).
func (r *Recorder) Event(kind string, fields ...Field) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(kind, 0, fields)
	r.mu.Unlock()
}

// emit appends an event to the log. fields is retained. r.mu must be held.
func (r *Recorder) emit(kind string, dur time.Duration, fields []Field) {
	e := Event{
		Seq:    int(r.emitted),
		TNs:    int64(time.Since(r.start)),
		Kind:   kind,
		Depth:  r.depth,
		DurNs:  int64(dur),
		Fields: fields,
	}
	if len(r.events) < r.capacity {
		r.events = append(r.events, e)
	} else {
		r.events[r.emitted&int64(r.capacity-1)] = e
	}
	r.emitted++
}

// dropped is how many events the log has overwritten. r.mu must be held.
func (r *Recorder) dropped() int64 { return max(r.emitted-int64(r.capacity), 0) }

// Count adds delta to a named counter.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = map[string]int64{}
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter reads one counter.
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a snapshot of all counters, including the event log
// bookkeeping pair obs.events.emitted / obs.events.dropped when any event
// was recorded.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := maps.Clone(r.counters)
	if r.emitted > 0 {
		if out == nil {
			out = map[string]int64{}
		}
		out["obs.events.emitted"] = r.emitted
		out["obs.events.dropped"] = r.dropped()
	}
	return out
}

// CounterNames returns the counter names in sorted order.
func (r *Recorder) CounterNames() []string {
	if r == nil {
		return nil
	}
	snap := r.Counters()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Observe records one latency sample into the named fixed-bucket
// histogram. Names may carry a single label using the "base:key=value"
// convention (e.g. "phase.duration:phase=parse"), which the Prometheus
// renderer turns into a real label.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hist(name).observe(int64(d))
	r.mu.Unlock()
}

// Histogram returns a snapshot of one histogram.
func (r *Recorder) Histogram(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return HistSnapshot{}, false
	}
	return h.clone(), true
}

// Histograms returns snapshots of every histogram, sorted by name.
func (r *Recorder) Histograms() []HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histograms()
}

// HistogramEntries returns every histogram as its JSON entry, sorted by
// name (nil when there are none).
func (r *Recorder) HistogramEntries() []HistogramEntry {
	var out []HistogramEntry
	for _, h := range r.Histograms() {
		out = append(out, HistogramEntry{
			Name: h.Name, Count: h.Count, SumNs: h.SumNs,
			P50Ns: h.P50(), P90Ns: h.P90(), P99Ns: h.P99(),
		})
	}
	return out
}

// Events returns a snapshot of the event stream in emission order: the
// most recent (up to) Capacity events. Earlier events overwritten once the
// log was full are gone — EventStats reports how many.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) == 0 {
		return nil
	}
	oldest := int(r.emitted % int64(len(r.events))) // 0 until the log is full
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[oldest:]...)
	return append(out, r.events[:oldest]...)
}

// EventStats reports the total number of events emitted over the
// recorder's lifetime, how many were dropped (overwritten once the log was
// full), and the log's capacity. emitted - dropped events are retrievable.
func (r *Recorder) EventStats() (emitted, dropped, capacity int64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted, r.dropped(), int64(r.capacity)
}

// Absorb folds src's counters and histograms into r: counters add, and
// histogram buckets merge. Events are not transferred (they belong to
// src's own trace). The irrd server absorbs every finished request's
// compilation recorder into its process-wide recorder, so /metrics
// aggregates per-phase and per-query-kind latency across requests.
//
// src is copied under its own lock and merged under r's, so the two locks
// are never held together and r.Absorb(r) doubles r's counters.
func (r *Recorder) Absorb(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := maps.Clone(src.counters)
	hists := src.histograms()
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range counters {
		if v != 0 {
			if r.counters == nil {
				r.counters = map[string]int64{}
			}
			r.counters[name] += v
		}
	}
	for i := range hists {
		r.hist(hists[i].Name).merge(&hists[i])
	}
}

// Span is one open hierarchical timed region. A nil *Span (from a disabled
// recorder) is valid: End is a no-op.
type Span struct {
	r     *Recorder
	kind  string
	start time.Time
}

// StartSpan opens a timed region: a "<kind>.begin" event is emitted and
// subsequent events nest one level deeper until End.
func (r *Recorder) StartSpan(kind string, fields ...Field) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.emit(kind+".begin", 0, fields)
	r.depth++
	r.mu.Unlock()
	return &Span{r: r, kind: kind, start: time.Now()}
}

// End closes the region, emitting a "<kind>.end" event carrying the span's
// duration, and returns that duration. End stays safe when the log
// wrapped mid-span and the matching begin event was overwritten: the end
// event is emitted regardless, and stream consumers (the span-tree
// builder) ignore end events whose begin is gone.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	r := s.r
	r.mu.Lock()
	r.depth = max(r.depth-1, 0) // an unbalanced End keeps depth non-negative
	r.emit(s.kind+".end", d, nil)
	r.mu.Unlock()
	return d
}
