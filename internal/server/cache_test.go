package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	irregular "repro"
	"repro/internal/api"
)

// rawPost sends a compile body with a fixed request ID and returns the
// raw response bytes plus the X-Irrd-Cache outcome header.
func rawPost(t *testing.T, url, path, body, reqID string) ([]byte, string, int) {
	t.Helper()
	req, err := http.NewRequest("POST", url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.Header.Get(cacheHeader), resp.StatusCode
}

// TestCacheHitByteIdentical: for every bundled kernel, the second
// identical request is a hit and its response is byte-identical to the
// first (the cached snapshot IS the first compilation, frozen). The
// deterministic portion of the document also matches a fresh
// library-level compile.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, kernel := range irregular.Kernels() {
		body := `{"kernel":"` + kernel + `"}`
		first, out1, code1 := rawPost(t, ts.URL, "/v1/compile", body, "det-1")
		second, out2, code2 := rawPost(t, ts.URL, "/v1/compile", body, "det-1")
		if code1 != 200 || code2 != 200 {
			t.Fatalf("%s: statuses %d, %d", kernel, code1, code2)
		}
		if out1 != "miss" || out2 != "hit" {
			t.Errorf("%s: outcomes %q, %q, want miss, hit", kernel, out1, out2)
		}
		if string(first) != string(second) {
			t.Errorf("%s: cached response differs from the original:\n%s\n---\n%s", kernel, first, second)
		}

		// Deterministic fields must equal a fresh compile's document.
		var resp api.CompileResponse
		if err := json.Unmarshal(first, &resp); err != nil {
			t.Fatal(err)
		}
		src, err := irregular.KernelSource(kernel)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := irregular.Compile(src, irregular.Options{Telemetry: true, RequestID: "det-1"})
		if err != nil {
			t.Fatal(err)
		}
		freshJSON, err := fresh.SummaryJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, want := normalizeMetrics(t, resp.Metrics), normalizeMetrics(t, freshJSON)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cached metrics diverge from a fresh compile\ncached: %v\nfresh:  %v", kernel, got, want)
		}
	}
}

// TestCompileIndependentOfLintHistory: a /v1/compile response carries the
// same irr-metrics counters and loop verdicts on a cold server as on one
// that first served /v1/lint of the same source. The lint caches under its
// own key, so the compile misses on both servers; no analysis state below
// the response cache may carry the lint's work into the compile.
func TestCompileIndependentOfLintHistory(t *testing.T) {
	_, cold := newTestServer(t, Config{})
	_, linted := newTestServer(t, Config{})
	for _, kernel := range irregular.Kernels() {
		body := `{"kernel":"` + kernel + `"}`
		if _, _, code := rawPost(t, linted.URL, "/v1/lint", body, "hist"); code != 200 {
			t.Fatalf("%s: lint status %d", kernel, code)
		}
		var docs [2]map[string]any
		for i, url := range []string{cold.URL, linted.URL} {
			raw, out, code := rawPost(t, url, "/v1/compile", body, "hist")
			if code != 200 || out != "miss" {
				t.Fatalf("%s: compile status %d, outcome %q, want 200 miss", kernel, code, out)
			}
			var resp api.CompileResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			docs[i] = normalizeMetrics(t, resp.Metrics)
		}
		for _, field := range []string{"counters", "loops"} {
			if got, want := docs[1][field], docs[0][field]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s differ after a lint of the same source\ncold:   %v\nlinted: %v", kernel, field, want, got)
			}
		}
	}
}

// normalizeMetrics strips the wall-clock fields (ns durations, latency
// histograms) that legitimately differ between timed runs of identical
// compilations; everything else must match exactly.
func normalizeMetrics(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "compile_ns")
	delete(m, "property_ns")
	delete(m, "histograms")
	if phases, ok := m["phases"].([]any); ok {
		for _, p := range phases {
			delete(p.(map[string]any), "ns")
		}
	}
	return m
}

// TestCacheSingleFlight parks concurrent identical requests on one
// in-flight compile: exactly one compilation runs, the rest coalesce or
// hit. Run with -race.
func TestCacheSingleFlight(t *testing.T) {
	const followers = 15
	s, ts := newTestServer(t, Config{MaxConcurrent: 4})
	var compiles atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	real := s.compile
	s.compile = func(ctx context.Context, src string, opts irregular.Options) (*irregular.Result, error) {
		compiles.Add(1)
		once.Do(func() { close(entered) })
		<-release
		return real(ctx, src, opts)
	}

	leaderDone := make(chan int, 1)
	go func() {
		_, _, code := rawPost(t, ts.URL, "/v1/compile", `{"kernel":"trfd"}`, "sf-leader")
		leaderDone <- code
	}()
	<-entered

	var wg sync.WaitGroup
	codes := make([]int, followers)
	outcomes := make([]string, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, out, code := rawPost(t, ts.URL, "/v1/compile", `{"kernel":"trfd"}`, "sf-follower")
			codes[i], outcomes[i] = code, out
		}()
	}
	// Release only once every follower is parked on the flight, so the
	// coalescing (not just the warm hit) is exercised deterministically.
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.Stats().Waiting != followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers parked on the flight", s.cache.Stats().Waiting, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if code := <-leaderDone; code != 200 {
		t.Fatalf("leader status = %d", code)
	}
	for i := range codes {
		if codes[i] != 200 {
			t.Errorf("follower %d status = %d", i, codes[i])
		}
		if outcomes[i] != "coalesced" {
			t.Errorf("follower %d outcome = %q, want coalesced", i, outcomes[i])
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Errorf("%d compilations for %d identical requests, want 1", got, followers+1)
	}
	st := s.cache.Stats()
	if st.Coalesced != followers || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want coalesced=%d misses=1", st, followers)
	}
	if got := s.rec.Counter("rescache_coalesced_total"); got != followers {
		t.Errorf("rescache_coalesced_total = %d, want %d", got, followers)
	}
}

// TestCacheEviction: a budget that holds one compilation at a time forces
// LRU eviction, visible on the counters, and an evicted key recompiles.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 1})
	// Two distinct sources; each snapshot costs far more than 1 byte, so
	// inserting the second evicts the first (a single oversized entry is
	// kept by design).
	a := `{"src":` + mustJSON(demoSrc) + `}`
	b := `{"src":` + mustJSON(demoSrc+"! variant\n") + `}`
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", a, "ev"); out != "miss" {
		t.Fatalf("first A = %q", out)
	}
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", a, "ev"); out != "hit" {
		t.Fatalf("second A = %q", out)
	}
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", b, "ev"); out != "miss" {
		t.Fatalf("first B = %q", out)
	}
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", a, "ev"); out != "miss" {
		t.Fatalf("A after eviction = %q, want miss", out)
	}
	if got := s.rec.Counter("rescache_evictions_total"); got < 1 {
		t.Errorf("rescache_evictions_total = %d, want >= 1", got)
	}
	if st := s.cache.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (budget holds one oversized entry)", st.Entries)
	}
}

func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestCacheBypassForDebugRequests: explain/trace responses embed
// per-request event streams and must neither consult nor fill the cache.
func TestCacheBypassForDebugRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		_, out, code := rawPost(t, ts.URL, "/v1/compile", `{"kernel":"trfd","trace":true}`, "byp")
		if code != 200 || out != "bypass" {
			t.Fatalf("trace request %d: status %d, outcome %q", i, code, out)
		}
	}
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", `{"kernel":"trfd","explain":true}`, "byp"); out != "bypass" {
		t.Errorf("explain outcome = %q, want bypass", out)
	}
	if st := s.cache.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("debug requests touched the cache: %+v", st)
	}
	// A plain request afterwards is a genuine miss, then a hit.
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", `{"kernel":"trfd"}`, "byp"); out != "miss" {
		t.Errorf("plain after bypass = %q, want miss", out)
	}
}

// TestRunUsesCacheAndStaysDeterministic: the compile half of /v1/run is
// served from the cache on the second request; the simulated time is
// identical because each run executes on its own clone of the snapshot.
func TestRunUsesCacheAndStaysDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"kernel":"tree","processors":4}`
	first, out1, code1 := rawPost(t, ts.URL, "/v1/run", body, "run")
	second, out2, code2 := rawPost(t, ts.URL, "/v1/run", body, "run")
	if code1 != 200 || code2 != 200 {
		t.Fatalf("statuses %d, %d\n%s", code1, code2, first)
	}
	if out1 != "miss" || out2 != "hit" {
		t.Errorf("outcomes %q, %q, want miss, hit", out1, out2)
	}
	if string(first) != string(second) {
		t.Errorf("cached run response differs:\n%s\n---\n%s", first, second)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(first, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Time == 0 {
		t.Error("zero simulated time")
	}
}

// TestCompileTelemetrySurvivesRunError is the regression test for the
// lost-telemetry bug: a request that compiles successfully but fails at
// run time must still land the compilation's phase histograms on
// /metrics. Exercised with the cache off (the direct path) and on (the
// compute path absorbs).
func TestCompileTelemetrySurvivesRunError(t *testing.T) {
	for _, cacheBytes := range []int64{-1, 0} {
		s, ts := newTestServer(t, Config{CacheBytes: cacheBytes})
		var env errEnvelope
		resp := post(t, ts, "/v1/run", api.RunRequest{
			CompileRequest: api.CompileRequest{Kernel: "trfd"},
			MaxSteps:       1, // the run exceeds this immediately
		}, &env)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("cacheBytes=%d: status = %d, want 413 (%v)", cacheBytes, resp.StatusCode, env.Error)
		}
		h, ok := s.rec.Histogram("phase.duration:phase=parallelize")
		if !ok || h.Count < 1 {
			t.Errorf("cacheBytes=%d: compile phase histogram missing after run error (ok=%v)", cacheBytes, ok)
		}
		if got := s.rec.Counter("property.queries"); got < 1 {
			t.Errorf("cacheBytes=%d: property.queries = %d, want >= 1 (compile counters lost)", cacheBytes, got)
		}
	}
}

// TestLintUsesCache: lint compilations cache under their own key —
// distinct from the plain compile of the same source.
func TestLintUsesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"src":` + mustJSON(demoSrc) + `}`
	if _, out, _ := rawPost(t, ts.URL, "/v1/compile", body, "lint"); out != "miss" {
		t.Fatalf("compile = %q", out)
	}
	first, out1, code1 := rawPost(t, ts.URL, "/v1/lint", body, "lint")
	second, out2, code2 := rawPost(t, ts.URL, "/v1/lint", body, "lint")
	if code1 != 200 || code2 != 200 {
		t.Fatalf("lint statuses %d, %d", code1, code2)
	}
	if out1 != "miss" || out2 != "hit" {
		t.Errorf("lint outcomes %q, %q, want miss, hit (lint keys separately)", out1, out2)
	}
	if string(first) != string(second) {
		t.Errorf("cached lint response differs:\n%s\n---\n%s", first, second)
	}
	if st := s.cache.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (compile + lint)", st.Entries)
	}
}

// TestConcurrentCachedRuns hammers /v1/run for one cached compilation
// from many goroutines; run with -race — the point is that clones of a
// shared snapshot never race.
func TestConcurrentCachedRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 8})
	body := `{"kernel":"tree","processors":4,"bounds_check_elim":true}`
	if _, _, code := rawPost(t, ts.URL, "/v1/run", body, "prime"); code != 200 {
		t.Fatalf("priming run failed: %d", code)
	}
	var wg sync.WaitGroup
	times := make([]uint64, 12)
	for i := 0; i < len(times); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _, code := rawPost(t, ts.URL, "/v1/run", body, "conc")
			if code != 200 {
				t.Errorf("run %d: status %d: %s", i, code, data)
				return
			}
			var rr api.RunResponse
			if err := json.Unmarshal(data, &rr); err != nil {
				t.Error(err)
				return
			}
			times[i] = rr.Time
		}()
	}
	wg.Wait()
	for i := 1; i < len(times); i++ {
		if times[i] != times[0] {
			t.Fatalf("nondeterministic cached run: times[%d]=%d, times[0]=%d", i, times[i], times[0])
		}
	}
}
