package irregular

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// The disabled telemetry path must be free: compiling with a nil
// *obs.Recorder threaded through every call site allocates exactly as much
// as the plain compile. Any call site that builds an event or field value
// before the nil check shows up here as extra allocations.
func TestTelemetryOffPathZeroAlloc(t *testing.T) {
	k, err := kernels.ByName("trfd", kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(opts ...pipeline.Options) func() {
		return func() {
			var err error
			if len(opts) > 0 {
				_, err = pipeline.CompileOpts(k.Source, parallel.Full, opts[0])
			} else {
				_, err = pipeline.Compile(k.Source, parallel.Full)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Interleave three measurements of each path and take the minimum:
	// ambient noise (interner map growth, GC assist attribution) adds a
	// couple of allocations to individual measurements, never subtracts.
	measure := func(f func()) float64 {
		m := testing.AllocsPerRun(30, f)
		for i := 0; i < 2; i++ {
			if v := testing.AllocsPerRun(30, f); v < m {
				m = v
			}
		}
		return m
	}
	baseline := measure(compile())
	off := measure(compile(pipeline.Options{Recorder: nil}))
	// A real off-path regression allocates per event or per field — dozens
	// to thousands of extra allocs/op. The tolerance of 8 (~0.04%) only
	// covers the ambient jitter above.
	if off > baseline+8 {
		t.Errorf("telemetry-off compile allocates %.0f/op, baseline %.0f/op (off path must be free)",
			off, baseline)
	}
}

// The always-on production level must not overflow its event log on a normal
// compilation: every event survives, and the collected stream carries the
// phase spans and per-phase latency histograms /metrics is built from.
func TestTelemetryInfoLevelCollects(t *testing.T) {
	k, err := kernels.ByName("trfd", kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	if rec.DebugEnabled() {
		t.Fatal("LevelInfo recorder reports DebugEnabled")
	}
	res, err := pipeline.CompileOpts(k.Source, parallel.Full,
		pipeline.Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	emitted, dropped, _ := rec.EventStats()
	if emitted == 0 || dropped != 0 {
		t.Errorf("LevelInfo compile: %d emitted, %d dropped", emitted, dropped)
	}
	m := res.Metrics()
	if m.Events != int(emitted) || m.EventsDropped != 0 {
		t.Errorf("metrics events = %d/%d, recorder = %d/0", m.Events, m.EventsDropped, emitted)
	}
	byName := map[string]bool{}
	for _, h := range m.Histograms {
		byName[h.Name] = true
	}
	for _, want := range []string{"compile.duration", "phase.duration:phase=parallelize"} {
		if !byName[want] {
			t.Errorf("missing histogram %q in %v", want, m.Histograms)
		}
	}
	// Per-node query steps are Debug-level: an Info stream must not carry
	// them (that is what keeps the production overhead within budget).
	for _, e := range rec.Events() {
		if e.Kind == "query.step" || e.Kind == "query.cache" {
			t.Errorf("Info-level stream contains Debug event %q", e.Kind)
		}
	}
}
