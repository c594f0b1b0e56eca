package pipeline

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// compileKernel compiles a bundled kernel at Small size, optionally with a
// telemetry recorder.
func compileKernel(t *testing.T, name string, rec *obs.Recorder) *Result {
	t.Helper()
	k, err := kernels.ByName(name, kernels.Small)
	if err != nil {
		t.Fatalf("kernel %s: %v", name, err)
	}
	res, err := CompileOpts(k.Source, parallel.Full, Options{Recorder: rec})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return res
}

// TestPropertyStatsCounters asserts the five property.Stats counters are
// live and mutually consistent on the two kernels whose analysis exercises
// all of them: TRFD (pattern-matched closed forms) and P3M (index-gathering
// loop recognition).
func TestPropertyStatsCounters(t *testing.T) {
	for _, tc := range []struct {
		kernel      string
		wantGather  bool
		wantPattern bool
	}{
		{kernel: "trfd", wantPattern: true},
		{kernel: "p3m", wantGather: true},
	} {
		t.Run(tc.kernel, func(t *testing.T) {
			st := compileKernel(t, tc.kernel, nil).PropertyStats
			if st.Queries == 0 {
				t.Fatal("Queries = 0, want > 0")
			}
			if st.NodesVisited == 0 {
				t.Error("NodesVisited = 0, want > 0")
			}
			if st.LoopSummaries == 0 {
				t.Error("LoopSummaries = 0, want > 0")
			}
			if tc.wantGather && st.GatherHits == 0 {
				t.Error("GatherHits = 0, want > 0")
			}
			if tc.wantPattern && st.PatternHits == 0 {
				t.Error("PatternHits = 0, want > 0")
			}
			// Consistency: every query visits at least its seed node unless
			// it was answered without propagation, so the visit count can
			// never trail a fully-propagated query count; and gather/pattern
			// hits happen while answering queries.
			if st.GatherHits > 0 && st.Queries == 0 {
				t.Error("GatherHits > 0 with no queries")
			}
			if st.PatternHits > 0 && st.NodesVisited == 0 {
				t.Error("PatternHits > 0 with no nodes visited")
			}
			if st.Elapsed <= 0 {
				t.Error("Elapsed <= 0, want > 0")
			}
		})
	}
}

// durations matches rendered time.Duration values and timing-derived
// percentages so report text can be compared across runs.
var durations = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s|%)`)

// TestTelemetryDoesNotChangeResults asserts a compilation with the recorder
// enabled reaches byte-identical analysis results — Summary() output and
// property counters — as the disabled-recorder compilation (durations
// normalized; telemetry must observe, never steer).
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	for _, kernel := range []string{"trfd", "p3m"} {
		t.Run(kernel, func(t *testing.T) {
			off := compileKernel(t, kernel, nil)
			on := compileKernel(t, kernel, obs.New())
			offSum := durations.ReplaceAllString(off.Summary(), "DUR")
			onSum := durations.ReplaceAllString(on.Summary(), "DUR")
			if offSum != onSum {
				t.Errorf("Summary differs with telemetry on:\n--- off ---\n%s\n--- on ---\n%s", offSum, onSum)
			}
			offSt, onSt := off.PropertyStats, on.PropertyStats
			if offSt.Queries != onSt.Queries ||
				offSt.NodesVisited != onSt.NodesVisited ||
				offSt.LoopSummaries != onSt.LoopSummaries ||
				offSt.GatherHits != onSt.GatherHits ||
				offSt.PatternHits != onSt.PatternHits {
				t.Errorf("Stats differ with telemetry on: off=%+v on=%+v", offSt, onSt)
			}
			// The recorder mirrors the counters into its counter map.
			for name, want := range map[string]int{
				"property.queries":        onSt.Queries,
				"property.nodes_visited":  onSt.NodesVisited,
				"property.loop_summaries": onSt.LoopSummaries,
				"property.gather_hits":    onSt.GatherHits,
				"property.pattern_hits":   onSt.PatternHits,
			} {
				if got := on.Recorder.Counter(name); got != int64(want) {
					t.Errorf("recorder counter %s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestExplainShowsFailedQueryTrace asserts the decision log replays a failed
// property query as a propagation trace for a loop that stayed serial —
// TRFD's do_r loop, whose ia(i) = i*(i-1)/2 fill defeats the injectivity
// pattern.
func TestExplainShowsFailedQueryTrace(t *testing.T) {
	// The propagation trace and diagnosis replay are Debug-level detail.
	res := compileKernel(t, "trfd", obs.NewDebug())
	out := res.Explain()
	for _, want := range []string{
		"loop trfd/do_r@18: serial",
		"FAILED",
		"[do-header-inside]",
		"diagnose index array ia",
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(out) {
			t.Errorf("Explain() missing %q\n%s", want, out)
		}
	}
}

// TestIndependentLoopRunsNoPrivatization checks that the privatization
// test runs only for the arrays the dependence tests leave dependent.
// TRFD's do_iq loop writes one array, xrsiq, which the closed-form test
// proves independent, so its decision log holds no bounds query for the
// index array ia, and the whole compile issues 3 property queries.
func TestIndependentLoopRunsNoPrivatization(t *testing.T) {
	res := compileKernel(t, "trfd", obs.NewDebug())
	log := res.Explain()
	start := strings.Index(log, "loop trfd/do_iq@53: PARALLEL\n")
	if start < 0 {
		t.Fatalf("no parallel trfd/do_iq@53 in the decision log:\n%s", log)
	}
	entry, _, _ := strings.Cut(log[start:], "\n\n")
	if strings.Contains(entry, "query bounds(ia)") {
		t.Errorf("do_iq@53 ran the privatization test:\n%s", entry)
	}
	if got := res.PropertyStats.Queries; got != 3 {
		t.Errorf("property queries = %d, want 3", got)
	}
}

// TestMetricsDocument asserts the metrics JSON carries the phase breakdown
// and all five property counters.
func TestMetricsDocument(t *testing.T) {
	res := compileKernel(t, "trfd", obs.New())
	m := res.Metrics()
	if m.Schema != MetricsSchema {
		t.Errorf("schema = %q, want %q", m.Schema, MetricsSchema)
	}
	phases := map[string]bool{}
	for _, ph := range m.Phases {
		phases[ph.Name] = true
	}
	for _, want := range []string{"parse", "sem", "scalar-1", "parallelize"} {
		if !phases[want] {
			t.Errorf("metrics missing phase %q (have %v)", want, m.Phases)
		}
	}
	for _, want := range []string{
		"property.queries", "property.nodes_visited", "property.loop_summaries",
		"property.gather_hits", "property.pattern_hits",
	} {
		if _, ok := m.Counters[want]; !ok {
			t.Errorf("metrics missing counter %q", want)
		}
	}
	if len(m.Loops) == 0 {
		t.Error("metrics has no loop verdicts")
	}
	if _, err := res.SummaryJSON(); err != nil {
		t.Errorf("SummaryJSON: %v", err)
	}
}
