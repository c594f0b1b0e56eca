package api

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		name    string
		req     CompileRequest
		wantErr string // substring; "" means success
	}{
		{"src only", CompileRequest{Src: "program p\nend\n"}, ""},
		{"kernel only", CompileRequest{Kernel: "trfd"}, ""},
		{"both", CompileRequest{Src: "x", Kernel: "trfd"}, "mutually exclusive"},
		{"neither", CompileRequest{}, "required"},
		{"unknown kernel", CompileRequest{Kernel: "nope"}, `unknown kernel "nope"`},
		{"unknown mode", CompileRequest{Src: "x", Mode: "turbo"}, `unknown mode "turbo"`},
		{"known mode", CompileRequest{Src: "x", Mode: "NoIAA"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Normalize()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Normalize: %v", err)
				}
				if tc.req.Src == "" {
					t.Error("normalized request has no source")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestAffinityDigest(t *testing.T) {
	base := CompileRequest{Src: "program p\nend\n"}
	d := base.AffinityDigest(false)
	if len(d) != 64 {
		t.Fatalf("digest %q is not hex sha256", d)
	}
	if base.AffinityDigest(false) != d {
		t.Error("digest is not deterministic")
	}
	// The default mode spells identically whether implicit or explicit.
	full := base
	full.Mode = "Full"
	if full.AffinityDigest(false) != d {
		t.Error("mode \"Full\" and \"\" digest differently")
	}
	// Every artifact-changing field moves the digest.
	variants := []CompileRequest{
		{Src: "program q\nend\n"},
		{Src: base.Src, Mode: "noiaa"},
		{Src: base.Src, Intraprocedural: true},
		{Src: base.Src, Interchange: true},
	}
	seen := map[string]bool{d: true, base.AffinityDigest(true): true}
	if len(seen) != 2 {
		t.Error("lint phase does not move the digest")
	}
	for i, v := range variants {
		vd := v.AffinityDigest(false)
		if seen[vd] {
			t.Errorf("variant %d collides", i)
		}
		seen[vd] = true
	}
	// Explain/trace are telemetry-only: the compiled artifact is the same.
	dbg := base
	dbg.Explain, dbg.Trace = true, true
	if dbg.AffinityDigest(false) != d {
		t.Error("explain/trace changed the affinity digest")
	}
}

func TestDigestPartsBoundaries(t *testing.T) {
	if DigestParts("ab", "c") == DigestParts("a", "bc") {
		t.Error("part boundaries are ambiguous")
	}
	if DigestParts("x") != DigestParts("x") {
		t.Error("digest is not deterministic")
	}
	if DigestParts("x") == DigestParts("y") {
		t.Error("distinct inputs collide")
	}
}

func TestStatusForKind(t *testing.T) {
	want := map[string]int{
		KindParse:         http.StatusBadRequest,
		KindAnalysis:      http.StatusUnprocessableEntity,
		KindResourceLimit: http.StatusRequestEntityTooLarge,
		KindOverCapacity:  http.StatusTooManyRequests,
		KindCanceled:      http.StatusGatewayTimeout,
		KindUnavailable:   http.StatusServiceUnavailable,
		KindInternal:      http.StatusInternalServerError,
		"anything else":   http.StatusInternalServerError,
	}
	for kind, status := range want {
		if got := StatusForKind(kind); got != status {
			t.Errorf("StatusForKind(%q) = %d, want %d", kind, got, status)
		}
	}
}

func TestWriteErrorEnvelope(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteError(rr, KindParse, "bad program", "req-7")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rr.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Kind != KindParse || env.Err.Message != "bad program" || env.Err.RequestID != "req-7" {
		t.Errorf("envelope = %+v", env.Err)
	}
	// The wire field names are the contract.
	var raw map[string]map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if raw["error"]["kind"] != "parse" || raw["error"]["request_id"] != "req-7" {
		t.Errorf("wire shape = %v", raw)
	}
}

func TestRequestID(t *testing.T) {
	// An incoming ID is kept and echoed.
	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set(RequestIDHeader, "client-7")
	w := httptest.NewRecorder()
	if id := RequestID(w, r); id != "client-7" {
		t.Errorf("RequestID = %q, want the client's client-7", id)
	}
	if got := w.Header().Get(RequestIDHeader); got != "client-7" {
		t.Errorf("echoed ID = %q, want client-7", got)
	}

	// A missing ID is generated as 16 hex digits, left on r.Header for
	// the handlers and echoed.
	r = httptest.NewRequest("GET", "/healthz", nil)
	w = httptest.NewRecorder()
	id := RequestID(w, r)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated ID %q is not 16 hex digits", id)
	}
	if got := r.Header.Get(RequestIDHeader); got != id {
		t.Errorf("request header ID = %q, want %q", got, id)
	}
	if got := w.Header().Get(RequestIDHeader); got != id {
		t.Errorf("echoed ID = %q, want %q", got, id)
	}
}

// Serve exits 1 when it cannot listen, and on SIGTERM drains the request
// in flight before it exits 0.
func TestServeExitCodes(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if code := Serve("test", addr, http.NotFoundHandler(), time.Second); code != 1 {
		t.Errorf("Serve on a taken address = %d, want 1", code)
	}
	l.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained") //nolint:errcheck // the client checks the body
	})
	done := make(chan int, 1)
	go func() { done <- Serve("test", addr, h, 5*time.Second) }()
	body := make(chan string, 1)
	go func() {
		for {
			resp, err := http.Get("http://" + addr + "/")
			if err != nil {
				time.Sleep(10 * time.Millisecond) // not listening yet
				continue
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body <- string(data)
			return
		}
	}()
	select {
	case <-entered: // listening, so the signal handler is installed
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never served the request")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		t.Fatalf("Serve returned %d with a request in flight", code)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-body; got != "drained" {
		t.Errorf("in-flight response = %q, want drained", got)
	}
	if code := <-done; code != 0 {
		t.Errorf("Serve after a full drain = %d, want 0", code)
	}
}
