package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/kernels"
	"repro/internal/pipeline"
)

// The metrics documents must be deterministic across worker-pool sizes:
// identical verdicts, counters, event counts and histogram sample counts
// whether the batch ran on one worker or eight. Wall-clock fields are
// normalized away; everything else must be byte-identical.
func TestMetricsDeterministicAcrossJobs(t *testing.T) {
	one, err := CompileMetrics(kernels.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := CompileMetrics(kernels.Small, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(eight) {
		t.Fatalf("kernel sets differ: %d vs %d", len(one), len(eight))
	}
	for name, m1 := range one {
		m8, ok := eight[name]
		if !ok {
			t.Errorf("%s missing from -jobs 8 run", name)
			continue
		}
		b1, b8 := canonicalMetrics(t, m1), canonicalMetrics(t, m8)
		if !bytes.Equal(b1, b8) {
			t.Errorf("%s: metrics differ between -jobs 1 and -jobs 8:\n%s\n---\n%s", name, b1, b8)
		}
	}
}

// canonicalMetrics strips the wall-clock fields (durations, histogram sums
// and quantiles) and marshals the rest, which Go does with sorted map keys.
func canonicalMetrics(t *testing.T, m *pipeline.Metrics) []byte {
	t.Helper()
	c := *m
	c.CompileNs, c.PropertyNs = 0, 0
	c.Phases = append([]pipeline.PhaseMetric(nil), m.Phases...)
	for i := range c.Phases {
		c.Phases[i].Ns = 0
	}
	c.Histograms = append([]pipeline.HistogramMetric(nil), m.Histograms...)
	for i := range c.Histograms {
		h := &c.Histograms[i]
		h.SumNs, h.P50Ns, h.P90Ns, h.P99Ns = 0, 0, 0, 0
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
