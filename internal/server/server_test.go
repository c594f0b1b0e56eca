package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	irregular "repro"
	"repro/internal/api"
	"repro/internal/comperr"
	"repro/internal/obs"
)

const demoSrc = `
program demo
  param n = 64
  real a(n), b(n)
  integer i
  real total
  do i = 1, n
    b(i) = real(mod(i * 3, 7))
  end do
  total = 0.0
  do i = 1, n
    a(i) = b(i) * 2.0
    total = total + a(i)
  end do
  print "total", total
end
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the JSON response. It always reads
// the body to EOF: the handler's deferred bookkeeping (the request
// duration histogram) has run once the response's last bytes are sent,
// but not necessarily when its headers arrive.
func post(t *testing.T, ts *httptest.Server, path string, body any, into any) *http.Response {
	t.Helper()
	return postID(t, ts, path, "", body, into)
}

// postID is post with the request ID id sent as X-Request-Id (none when
// id is "").
func postID(t *testing.T, ts *httptest.Server, path, id string, body any, into any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(api.RequestIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("%s: reading response: %v", path, err)
	}
	return resp
}

// errEnvelope aliases the unified envelope with the field named Error,
// so existing assertions read naturally.
type errEnvelope struct {
	Error api.ErrorBody `json:"error"`
}

func TestCompileRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out api.CompileResponse
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc, Explain: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(out.Summary, "PARALLEL") {
		t.Errorf("summary lacks a parallel loop:\n%s", out.Summary)
	}
	var metrics struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(out.Metrics, &metrics); err != nil {
		t.Fatalf("metrics document: %v", err)
	}
	if metrics.Schema != "irr-metrics/1" {
		t.Errorf("metrics schema = %q, want irr-metrics/1", metrics.Schema)
	}
	if out.Explain == "" {
		t.Error("explain requested but empty")
	}
}

func TestCompileKernel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out api.CompileResponse
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Kernel: "trfd"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Summary == "" {
		t.Error("empty summary for kernel compile")
	}
}

func TestRunRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out api.RunResponse
	resp := post(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Src: demoSrc},
		Processors:     4,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Time == 0 {
		t.Error("zero simulated time")
	}
	if !strings.Contains(out.Output, "total") {
		t.Errorf("PRINT output missing: %q", out.Output)
	}
}

// errorCases are requests the service must answer with an error envelope;
// TestErrorStatuses checks their statuses and kinds, and
// TestServiceGolden pins their bodies.
var errorCases = []struct {
	name   string
	path   string // "" means /v1/compile
	body   any
	status int
	kind   string
	msg    string // "" skips the message check
}{
	{"parse error", "", api.CompileRequest{Src: "program p\n  this is not f-lite\nend\n"}, http.StatusBadRequest, "parse", ""},
	{"bad json", "", "not json", http.StatusBadRequest, "parse", ""},
	{"missing src", "", api.CompileRequest{}, http.StatusBadRequest, "parse", ""},
	{"src and kernel", "", api.CompileRequest{Src: "x", Kernel: "trfd"}, http.StatusBadRequest, "parse", ""},
	{"unknown kernel", "", api.CompileRequest{Kernel: "nope"}, http.StatusBadRequest, "parse", ""},
	{"unknown mode", "", api.CompileRequest{Src: demoSrc, Mode: "turbo"}, http.StatusBadRequest, "parse", ""},
	{"unknown profile", "/v1/run", api.RunRequest{CompileRequest: api.CompileRequest{Src: demoSrc}, Profile: "bogus"},
		http.StatusBadRequest, "parse", `unknown machine profile "bogus"`},
	{"oversized source", "", api.CompileRequest{Src: demoSrc + strings.Repeat("! padding\n", 200)}, http.StatusRequestEntityTooLarge, "resource_limit", ""},
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: 512})
	for i, tc := range errorCases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/v1/compile"
			}
			var env errEnvelope
			id := fmt.Sprintf("err-%d", i)
			resp := postID(t, ts, path, id, tc.body, &env)
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d (%v)", resp.StatusCode, tc.status, env.Error)
			}
			if env.Error.Kind != tc.kind {
				t.Errorf("kind = %q, want %q", env.Error.Kind, tc.kind)
			}
			if tc.msg != "" && env.Error.Message != tc.msg {
				t.Errorf("message = %q, want %q", env.Error.Message, tc.msg)
			}
			// The envelope names the request the client sent.
			if env.Error.RequestID != id {
				t.Errorf("envelope request_id = %q, want %q", env.Error.RequestID, id)
			}
		})
	}
}

// TestQueryStepLimit drives a real compilation into the propagation
// budget. The trfd kernel exercises the property analysis (demoSrc is
// affine-only and issues no queries).
func TestQueryStepLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQuerySteps: 1})
	var env errEnvelope
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Kernel: "trfd"}, &env)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", resp.StatusCode, env.Error)
	}
	if env.Error.Kind != "resource_limit" {
		t.Errorf("kind = %q, want resource_limit", env.Error.Kind)
	}
}

// TestPanicIsolation injects a panicking compile function and checks the
// request gets a structured 500 while the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	real := s.compile
	s.compile = func(ctx context.Context, src string, opts irregular.Options) (*irregular.Result, error) {
		panic("injected failure")
	}
	var env errEnvelope
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc}, &env)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if env.Error.Kind != "internal" || !strings.Contains(env.Error.Message, "injected failure") {
		t.Errorf("envelope = %+v", env.Error)
	}
	if got := s.rec.Counter("irrd_panics_total"); got != 1 {
		t.Errorf("irrd_panics_total = %d, want 1", got)
	}
	// The semaphore slot must have been released: the server still serves.
	s.compile = real
	var out api.CompileResponse
	resp = post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: status = %d", resp.StatusCode)
	}
}

// TestAdmissionControl saturates a 1-slot server with a blocked compile and
// checks the next request is rejected 429 (AdmitTimeout<0: fail fast).
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, AdmitTimeout: -1})
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	real := s.compile
	s.compile = func(ctx context.Context, src string, opts irregular.Options) (*irregular.Result, error) {
		once.Do(func() { close(entered) })
		<-block
		return real(ctx, src, opts)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc}, nil)
	}()
	<-entered

	// A *different* source, so the request contends for admission instead
	// of coalescing onto the blocked compile's flight.
	other := demoSrc + "! distinct cache key\n"
	var env errEnvelope
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Src: other}, &env)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if env.Error.Kind != "over_capacity" {
		t.Errorf("kind = %q, want over_capacity", env.Error.Kind)
	}
	close(block)
	wg.Wait()

	// With the slot free again the same request is admitted.
	var out api.CompileResponse
	if resp := post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200", resp.StatusCode)
	}
}

// TestRequestTimeout gives requests a 1ms deadline: a compilation that
// honors its context must come back 504 promptly instead of wedging the
// worker slot. The injected compile blocks until ctx fires, as the real
// pipeline's cancellation checkpoints do.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Millisecond})
	s.compile = func(ctx context.Context, src string, opts irregular.Options) (*irregular.Result, error) {
		<-ctx.Done()
		return nil, comperr.Canceled(ctx.Err())
	}
	var env errEnvelope
	start := time.Now()
	resp := post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc}, &env)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", resp.StatusCode, env.Error)
	}
	if env.Error.Kind != "canceled" {
		t.Errorf("kind = %q, want canceled", env.Error.Kind)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, want prompt", elapsed)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", health, err)
	}

	post(t, ts, "/v1/compile", api.CompileRequest{Src: demoSrc}, nil)

	// The default /metrics response is the Prometheus text format.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	samples, err := obs.ParsePrometheus(string(body))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, body)
	}
	byName := map[string]float64{}
	for _, sm := range samples {
		byName[sm.Name] += sm.Value
	}
	if byName["irrd_compile_total"] < 1 || byName["irrd_requests_total"] < 1 {
		t.Errorf("prometheus samples missing request counters:\n%s", body)
	}

	// Accept: application/json selects the JSON document.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	jresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var m struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != "irrd-metrics/2" {
		t.Errorf("schema = %q", m.Schema)
	}
	if m.Counters["irrd_compile_total"] < 1 || m.Counters["irrd_requests_total"] < 1 {
		t.Errorf("counters = %v", m.Counters)
	}
}

func TestKernelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Kernels []struct {
			Name  string `json:"name"`
			Bytes int    `json:"bytes"`
		} `json:"kernels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Kernels) == 0 {
		t.Fatal("no kernels listed")
	}
	for _, k := range out.Kernels {
		if k.Name == "" || k.Bytes == 0 {
			t.Errorf("bad kernel entry %+v", k)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile status = %d, want 405", resp.StatusCode)
	}
}

// --- semaphore unit tests ---

func TestWeightedFIFO(t *testing.T) {
	s := newWeighted(2)
	if err := s.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 2 {
				<-start // enforce 1 queues before 2
			}
			if err := s.Acquire(context.Background(), int64(i)); err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			order <- i
			s.Release(int64(i))
		}()
	}
	// Let goroutine 1 (weight 1) queue first, then 2 (weight 2).
	for s.waiters() != 1 {
		time.Sleep(time.Millisecond)
	}
	close(start)
	for s.waiters() != 2 {
		time.Sleep(time.Millisecond)
	}
	s.Release(2)
	wg.Wait()
	if first := <-order; first != 1 {
		t.Errorf("first grant = %d, want FIFO order 1", first)
	}
}

// waiters reports the queue length (test helper).
func (s *weighted) waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wait.Len()
}

func TestWeightedAcquireCanceled(t *testing.T) {
	s := newWeighted(1)
	if !s.TryAcquire(1) {
		t.Fatal("TryAcquire on empty semaphore failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Acquire(ctx, 1); err == nil {
		t.Fatal("Acquire succeeded on a full semaphore")
	}
	s.Release(1)
	// The canceled waiter must have left the queue: a fresh acquire works.
	if err := s.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("post-cancel acquire: %v", err)
	}
	s.Release(1)
}

func TestWeightedClampsOversized(t *testing.T) {
	s := newWeighted(2)
	if !s.TryAcquire(5) { // clamped to 2
		t.Fatal("oversized TryAcquire failed on empty semaphore")
	}
	if s.TryAcquire(1) {
		t.Fatal("semaphore not saturated by clamped acquire")
	}
	s.Release(5) // symmetric clamp
	if !s.TryAcquire(2) {
		t.Fatal("release did not restore capacity")
	}
}

func TestLimitedBuffer(t *testing.T) {
	var b limitedBuffer
	b.max = 5
	fmt.Fprint(&b, "hello world")
	if b.String() != "hello" || !b.truncated {
		t.Errorf("buf = %q truncated=%v", b.String(), b.truncated)
	}
}

func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A clean program: 200 with an empty (but present) diags array.
	var out api.LintResponse
	resp := post(t, ts, "/v1/lint", api.CompileRequest{Src: demoSrc}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Diags == nil || len(out.Diags) != 0 {
		t.Errorf("clean program diags = %v, want []", out.Diags)
	}
	if out.Rendered != "" {
		t.Errorf("rendered = %q, want empty", out.Rendered)
	}

	// A defective program: findings come back structured and rendered.
	bad := `
program bad
  param n = 8
  real a(n)
  integer i, u
  a(n + 1) = real(u)
  do i = 1, n
    a(i) = 1.0
  end do
end
`
	out = api.LintResponse{}
	resp = post(t, ts, "/v1/lint", api.CompileRequest{Src: bad}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (findings are not transport errors)", resp.StatusCode)
	}
	codes := map[string]bool{}
	for _, d := range out.Diags {
		codes[d.Code] = true
	}
	if !codes["IRR3002"] || !codes["IRR1001"] {
		t.Errorf("want IRR3002 and IRR1001, got %v", out.Diags)
	}
	if out.Counts.Errors == 0 || out.Counts.Warnings == 0 {
		t.Errorf("counts = %+v", out.Counts)
	}
	if !strings.Contains(out.Rendered, "[IRR3002]") {
		t.Errorf("rendered output missing code tag:\n%s", out.Rendered)
	}

	// A program that does not parse is still a transport-level error.
	var env errEnvelope
	resp = post(t, ts, "/v1/lint", api.CompileRequest{Src: "not f-lite"}, &env)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse failure status = %d, want 400", resp.StatusCode)
	}
}

// TestRunTooManyProcessorsIsResourceLimit asks for one simulated processor
// more than the interpreter's bound: the run answers 413 with kind
// resource_limit.
func TestRunTooManyProcessorsIsResourceLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var env errEnvelope
	resp := post(t, ts, "/v1/run", api.RunRequest{CompileRequest: api.CompileRequest{Kernel: "tree"}, Processors: 1025}, &env)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Kind != "resource_limit" {
		t.Fatalf("status = %d, kind = %q, want 413 resource_limit (%v)", resp.StatusCode, env.Error.Kind, env.Error)
	}
}

// TestRunHugeArrayIsResourceLimit runs a program whose declared array is
// far over the interpreter's storage bound: the run answers 413 with kind
// resource_limit instead of exhausting memory, and the server stays up.
func TestRunHugeArrayIsResourceLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "program p\n  real a(4000000000)\n  a(1) = 1.0\n  print \"a\", a(1)\nend\n"
	var env errEnvelope
	resp := post(t, ts, "/v1/run", api.RunRequest{CompileRequest: api.CompileRequest{Src: src}}, &env)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Kind != "resource_limit" {
		t.Fatalf("status = %d, kind = %q, want 413 resource_limit (%v)", resp.StatusCode, env.Error.Kind, env.Error)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d after the run", health.StatusCode)
	}
}
