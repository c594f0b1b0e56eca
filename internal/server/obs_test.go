package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// A client-supplied X-Request-Id is echoed on the response, returned in the
// compile body, and logged on the structured request line; a request
// without one gets a generated ID.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})

	body := `{"kernel":"trfd"}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compile", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(api.RequestIDHeader); got != "test-req-42" {
		t.Errorf("echoed %s = %q, want test-req-42", api.RequestIDHeader, got)
	}
	var out api.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "test-req-42" {
		t.Errorf("response request_id = %q", out.RequestID)
	}

	// The structured log line carries the ID, endpoint and status.
	var line struct {
		Msg      string `json:"msg"`
		ID       string `json:"id"`
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
	}
	found := false
	for _, raw := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, raw)
		}
		if line.ID == "test-req-42" {
			found = true
			if line.Msg != "request" || line.Endpoint != "compile" || line.Status != 200 {
				t.Errorf("log line = %+v", line)
			}
		}
	}
	if !found {
		t.Errorf("no log line with the request ID:\n%s", logBuf.String())
	}

	// Without a client ID the server generates a 16-hex-digit one.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get(api.RequestIDHeader); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated ID %q is not 16 hex digits", id)
	}
}

// /debug/pprof is absent unless the operator opts in.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag: status = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with flag: status = %d, want 200", resp.StatusCode)
	}
}

// trace:true in a compile request returns a Chrome trace-event JSON array
// with the pipeline phase spans.
func TestCompileTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out api.CompileResponse
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Kernel: "trfd", Trace: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Trace) == 0 {
		t.Fatal("trace requested but absent")
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(out.Trace, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	phases := map[string]bool{}
	for _, e := range events {
		if e.Ph == "B" {
			phases[e.Name] = true
		}
	}
	if !phases["phase"] && !phases["parallelize"] && !phases["pipeline"] {
		t.Errorf("trace has no phase spans: %v", phases)
	}

	// Without trace:true the field stays empty (no debug-level cost).
	out = api.CompileResponse{}
	post(t, ts, "/v1/compile", api.CompileRequest{Kernel: "trfd"}, &out)
	if len(out.Trace) != 0 {
		t.Errorf("unrequested trace present: %s", out.Trace)
	}
}

// Finished compilations are absorbed into the process recorder: /metrics
// aggregates per-phase latency histograms across requests. Cache off, so
// every request really compiles (a cache hit compiles nothing and has
// nothing to absorb — that path is covered in cache_test.go).
func TestMetricsAggregateAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: -1})
	for i := 0; i < 2; i++ {
		if resp := post(t, ts, "/v1/compile", api.CompileRequest{Kernel: "trfd"}, nil); resp.StatusCode != 200 {
			t.Fatalf("compile %d: status %d", i, resp.StatusCode)
		}
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, s.rec); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	var phaseCount, endpointCount float64
	for _, sm := range samples {
		switch sm.Name {
		case "phase_duration_seconds_count":
			if sm.Labels["phase"] == "parallelize" {
				phaseCount = sm.Value
			}
		case "irrd_request_duration_seconds_count":
			if sm.Labels["endpoint"] == "compile" {
				endpointCount = sm.Value
			}
		}
	}
	if phaseCount < 2 {
		t.Errorf("parallelize phase histogram count = %v, want >= 2 (absorbed per request)", phaseCount)
	}
	if endpointCount < 2 {
		t.Errorf("compile endpoint histogram count = %v, want >= 2", endpointCount)
	}
}

// TestAdmissionQueueDepthGauge is the regression test for the queue-depth
// gauge counting every admitted request: an instantly-admitted request
// must not touch the gauge at all (the counter name stays absent from the
// snapshot), and a parked request registers exactly while it waits.
func TestAdmissionQueueDepthGauge(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1, AdmitTimeout: 5 * time.Second})

	// Fast path: capacity is free, so admission is immediate and the gauge
	// is never written — Counters only snapshots touched names.
	release, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, present := s.rec.Counters()["irrd_admission_queue_depth"]; present {
		t.Error("uncontended admit touched irrd_admission_queue_depth")
	}

	// Slow path: with the semaphore held, a second admit must park and the
	// gauge must read 1 exactly while it does.
	admitted := make(chan error, 1)
	go func() {
		r2, err := s.admit(context.Background(), 1)
		if err == nil {
			r2()
		}
		admitted <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.rec.Counter("irrd_admission_queue_depth") != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gauge = %d while a request is parked, want 1",
				s.rec.Counter("irrd_admission_queue_depth"))
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-admitted; err != nil {
		t.Fatalf("parked admit failed: %v", err)
	}
	if got := s.rec.Counter("irrd_admission_queue_depth"); got != 0 {
		t.Errorf("gauge = %d after the queue drained, want 0", got)
	}
}
