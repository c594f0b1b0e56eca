// Package obs is the compiler's zero-dependency telemetry subsystem: a
// low-overhead event collector with spans (hierarchical timed regions),
// sharded atomic counters, fixed-bucket latency histograms, and structured
// events in a bounded lock-free ring buffer. The pipeline opens a span per
// phase, the property analysis emits one event per query propagation step
// (at Debug level), the dependence tests record which test fired per array,
// and the simulated machine records per-loop execution time — all into one
// Recorder whose stream drives the `-explain` decision log, the `-metrics`
// JSON document, the `-trace` raw dump, the Chrome trace export and the
// irrd Prometheus endpoint.
//
// The recorder is built to stay on in production:
//
//   - Counters are sharded across cache-line-padded atomic slots, so
//     concurrent writers (irrd request handlers, the batch worker pool)
//     never contend on one mutex.
//   - Events go into a fixed-capacity multi-producer ring buffer. Overflow
//     overwrites the oldest events and counts them (obs.events.dropped) —
//     a long-running server cannot grow an unbounded event slice.
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
	"sort"
	"strconv"
	"sync/atomic"
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

// Default ring capacities (events). A compilation at LevelInfo emits a few
// hundred events; LevelDebug traces emit one event per HCG node visited.
const (
	DefaultCapacity      = 8 << 10
	DefaultDebugCapacity = 128 << 10
)

// Config sizes a recorder.
type Config struct {
	// Level is the detail level (default LevelInfo).
	Level Level
	// Capacity bounds the event ring buffer; it is rounded up to a power
	// of two. 0 picks the default for the level.
	Capacity int
}

// Recorder collects events, counters and histograms for one compilation
// (or one serving process). The zero value is not usable; construct with
// New, NewDebug or NewWith. A nil *Recorder is a valid disabled recorder:
// every method returns immediately without allocating.
//
// All methods are safe for concurrent use. Events are totally ordered by
// Seq; under single-goroutine emission (the compiler pipeline) the stream
// is deterministic.
type Recorder struct {
	start    time.Time
	level    Level
	depth    atomic.Int32
	ring     ring
	counters counterSet
	hists    histSet
}

// New builds an enabled recorder at LevelInfo — the always-on production
// configuration.
func New() *Recorder { return NewWith(Config{}) }

// NewDebug builds a recorder at LevelDebug with a large ring: full query
// propagation traces for -explain / -trace.
func NewDebug() *Recorder { return NewWith(Config{Level: LevelDebug}) }

// NewWith builds a recorder from an explicit configuration.
func NewWith(cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		if cfg.Level >= LevelDebug {
			capacity = DefaultDebugCapacity
		} else {
			capacity = DefaultCapacity
		}
	}
	r := &Recorder{start: time.Now(), level: cfg.Level}
	r.ring.init(capacity)
	return r
}

// Enabled reports whether the recorder collects anything. Guard expensive
// field construction with it.
func (r *Recorder) Enabled() bool { return r != nil }

// DebugEnabled reports whether the recorder collects Debug-level detail
// (per-node propagation steps, cache events, diagnosis replays). Hot paths
// must guard their per-node formatting with it.
func (r *Recorder) DebugEnabled() bool { return r != nil && r.level >= LevelDebug }

// Event appends one event at the current span depth. When the ring is
// full, the oldest event is overwritten (and counted as dropped).
func (r *Recorder) Event(kind string, fields ...Field) {
	if r == nil {
		return
	}
	r.emit(kind, 0, fields)
}

// emit pushes an event into the ring. fields is retained.
func (r *Recorder) emit(kind string, dur time.Duration, fields []Field) {
	r.ring.put(&Event{
		TNs:    int64(time.Since(r.start)),
		Kind:   kind,
		Depth:  int(r.depth.Load()),
		DurNs:  int64(dur),
		Fields: fields,
	})
}

// Count adds delta to a named counter. Writes are striped over sharded
// atomic slots; no lock is taken.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.counters.add(name, delta)
}

// Counter reads one counter (the sum over its shards).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters.get(name)
}

// Counters returns a snapshot of all counters, including the ring
// bookkeeping pair obs.events.emitted / obs.events.dropped when any event
// was recorded.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := r.counters.snapshot()
	if emitted, dropped := r.ring.stats(); emitted > 0 {
		if out == nil {
			out = map[string]int64{}
		}
		out["obs.events.emitted"] = emitted
		out["obs.events.dropped"] = dropped
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
	r.hists.observe(name, int64(d))
}

// Histogram returns a snapshot of one histogram.
func (r *Recorder) Histogram(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	return r.hists.get(name)
}

// Histograms returns snapshots of every histogram, sorted by name.
func (r *Recorder) Histograms() []HistSnapshot {
	if r == nil {
		return nil
	}
	return r.hists.snapshot()
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
// most recent (up to) Capacity events. Earlier events overwritten by ring
// wrap-around are gone — EventStats reports how many.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.ring.snapshot()
}

// EventStats reports the total number of events emitted over the
// recorder's lifetime, how many were dropped (overwritten by wrap-around),
// and the ring capacity. emitted - dropped events are retrievable.
func (r *Recorder) EventStats() (emitted, dropped, capacity int64) {
	if r == nil {
		return 0, 0, 0
	}
	emitted, dropped = r.ring.stats()
	return emitted, dropped, int64(len(r.ring.slots))
}

// Absorb folds src's counters and histograms into r: counters add, and
// histogram buckets merge. Events are not transferred (they belong to
// src's own trace). The irrd server absorbs every finished request's
// compilation recorder into its process-wide recorder, so /metrics
// aggregates per-phase and per-query-kind latency across requests.
func (r *Recorder) Absorb(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	for name, v := range src.counters.snapshot() {
		if v != 0 {
			r.counters.add(name, v)
		}
	}
	r.hists.absorb(&src.hists)
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
	r.emit(kind+".begin", 0, fields)
	r.depth.Add(1)
	return &Span{r: r, kind: kind, start: time.Now()}
}

// End closes the region, emitting a "<kind>.end" event carrying the span's
// duration, and returns that duration. End stays safe when the ring
// wrapped mid-span and the matching begin event was overwritten: the end
// event is emitted regardless, and stream consumers (the span-tree
// builder) ignore end events whose begin is gone.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if depth := s.r.depth.Add(-1); depth < 0 {
		s.r.depth.Add(1) // unbalanced End; keep depth non-negative
	}
	s.r.emit(s.kind+".end", d, nil)
	return d
}
