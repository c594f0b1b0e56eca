package obs

import (
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	cases := []struct {
		in     string
		base   string
		labels string // rendered form
	}{
		{"property.queries", "property_queries", ""},
		{"irrd_requests_total", "irrd_requests_total", ""},
		{"irrd_request_duration:endpoint=compile", "irrd_request_duration", `{endpoint="compile"}`},
		{"irrd_errors_total:kind=parse", "irrd_errors_total", `{kind="parse"}`},
		{"irrgw_requests_total:backend=127.0.0.1:9001,outcome=ok", "irrgw_requests_total",
			`{backend="127.0.0.1:9001",outcome="ok"}`}, // multi-label
		{"9starts.with.digit", "_9starts_with_digit", ""},
		{"", "_", ""},
	}
	for _, c := range cases {
		base, pairs := promName(c.in)
		if labels := renderLabels(pairs); base != c.base || labels != c.labels {
			t.Errorf("promName(%q) = (%q, %q), want (%q, %q)",
				c.in, base, labels, c.base, c.labels)
		}
	}
}

// Multi-label counters ("name:k1=v1,k2=v2") render as one series with both
// labels and survive the exposition round trip.
func TestPrometheusMultiLabel(t *testing.T) {
	r := New()
	r.Count("irrgw_requests_total:backend=b1,outcome=ok", 3)
	r.Count("irrgw_requests_total:backend=b2,outcome=network_error", 1)
	r.Observe("irrgw_route_duration:endpoint=compile,outcome=ok", 5*time.Millisecond)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(sb.String())
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, sb.String())
	}
	found := false
	for _, s := range samples {
		if s.Name == "irrgw_requests_total" && s.Labels["backend"] == "b1" {
			found = true
			if s.Labels["outcome"] != "ok" || s.Value != 3 {
				t.Errorf("sample = %+v", s)
			}
		}
		if s.Name == "irrgw_route_duration_seconds_bucket" && s.Labels["endpoint"] == "compile" {
			if s.Labels["outcome"] != "ok" || s.Labels["le"] == "" {
				t.Errorf("histogram bucket labels = %v", s.Labels)
			}
		}
	}
	if !found {
		t.Errorf("no multi-label counter sample in:\n%s", sb.String())
	}
}

// WritePrometheus output must parse with ParsePrometheus (the same check
// CI runs against the live /metrics endpoint) and carry the samples put in.
func TestPrometheusRoundTrip(t *testing.T) {
	r := New()
	r.Count("irrd_requests_total", 7)
	r.Count("irrd_requests_total:endpoint=compile", 4)
	r.Count("irrd_requests_total:endpoint=lint", 3)
	r.Count("irrd_inflight", 2)
	r.Observe("irrd_request_duration:endpoint=compile", 1500*time.Microsecond)
	r.Observe("irrd_request_duration:endpoint=compile", 3*time.Millisecond)
	r.Event("just.to.get.event.stats")

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	samples, err := ParsePrometheus(text)
	if err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, text)
	}
	get := func(name string, labels map[string]string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match && len(s.Labels) == len(labels) {
				return s.Value, true
			}
		}
		return 0, false
	}

	if v, ok := get("irrd_requests_total", nil); !ok || v != 7 {
		t.Errorf("irrd_requests_total = %v (ok=%v)", v, ok)
	}
	if v, ok := get("irrd_requests_total", map[string]string{"endpoint": "compile"}); !ok || v != 4 {
		t.Errorf("irrd_requests_total{endpoint=compile} = %v (ok=%v)", v, ok)
	}
	if v, ok := get("obs_events_emitted", nil); !ok || v != 1 {
		t.Errorf("obs_events_emitted = %v (ok=%v)", v, ok)
	}
	// Histogram: _count and _sum in seconds, cumulative buckets ending +Inf.
	lbl := map[string]string{"endpoint": "compile"}
	if v, ok := get("irrd_request_duration_seconds_count", lbl); !ok || v != 2 {
		t.Errorf("_count = %v (ok=%v)", v, ok)
	}
	if v, ok := get("irrd_request_duration_seconds_sum", lbl); !ok || v != 0.0045 {
		t.Errorf("_sum = %v (ok=%v)", v, ok)
	}
	if v, ok := get("irrd_request_duration_seconds_bucket",
		map[string]string{"endpoint": "compile", "le": "+Inf"}); !ok || v != 2 {
		t.Errorf("+Inf bucket = %v (ok=%v)", v, ok)
	}
	// 1500µs lands in le=0.002; the 3ms sample joins at le=0.005.
	if v, ok := get("irrd_request_duration_seconds_bucket",
		map[string]string{"endpoint": "compile", "le": "0.002"}); !ok || v != 1 {
		t.Errorf("le=0.002 bucket = %v (ok=%v)", v, ok)
	}
	if v, ok := get("irrd_request_duration_seconds_bucket",
		map[string]string{"endpoint": "compile", "le": "0.005"}); !ok || v != 2 {
		t.Errorf("le=0.005 bucket = %v (ok=%v)", v, ok)
	}

	// TYPE lines: counter for _total, gauge otherwise, histogram families.
	for _, want := range []string{
		"# TYPE irrd_requests_total counter",
		"# TYPE irrd_inflight gauge",
		"# TYPE irrd_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}

	// Bucket series must be in ascending-bound order with +Inf last.
	var lastBucket string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "irrd_request_duration_seconds_bucket") {
			lastBucket = line
		}
	}
	if !strings.Contains(lastBucket, `le="+Inf"`) {
		t.Errorf("last bucket line is not +Inf: %q", lastBucket)
	}
}

// Determinism: two renders of the same recorder are byte-identical.
func TestPrometheusDeterministic(t *testing.T) {
	r := New()
	for i, name := range []string{"z_total", "a_gauge", "m:kind=x", "m:kind=y"} {
		r.Count(name, int64(i+1))
	}
	r.Observe("lat:endpoint=a", time.Millisecond)
	r.Observe("lat:endpoint=b", time.Millisecond)
	var one, two strings.Builder
	if err := WritePrometheus(&one, r); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&two, r); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Errorf("renders differ:\n%s\n---\n%s", one.String(), two.String())
	}
}

// WritePrometheus on a nil recorder writes nothing; the parser rejects the
// malformed lines a naive renderer could produce.
func TestPrometheusEdges(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, nil); err != nil || sb.Len() != 0 {
		t.Errorf("nil recorder: err=%v out=%q", err, sb.String())
	}
	for _, bad := range []string{
		"{no_name} 1",
		"metric_without_value",
		"metric{unterminated 1",
		`metric{k=unquoted} 1`,
		"metric not_a_number",
	} {
		if _, err := ParsePrometheus(bad); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted malformed input", bad)
		}
	}
	// Escaped label values survive the round trip.
	samples, err := ParsePrometheus(`m{k="a\"b\\c"} 1`)
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].Labels["k"] != `a"b\c` {
		t.Errorf("unescaped label = %q", samples[0].Labels["k"])
	}
}
