package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	irregular "repro"
	"repro/internal/api"
)

var update = flag.Bool("update", false, "rewrite testdata/service.golden")

// goldenMaxSource is the golden server's source limit: every bundled
// kernel fits under it, and the oversized source of errorCases does not.
const goldenMaxSource = 2048

// TestServiceGolden pins irrd's response bodies. One server answers, for
// each bundled kernel, a compile, a lint, a run on 8 processors and a
// repeated compile that the cache serves, and then every request of
// errorCases. Per request it records the path, the status, X-Irrd-Cache
// and the body. Only durations are masked: the embedded irr-metrics/1
// compile_ns, property_ns, each phase's ns and the histograms, and the
// time tokens of the summaries. Lint bodies and run cycles are compared
// as served. Regenerate with:
//
//	go test ./internal/server -run TestServiceGolden -update
//
// and say in CHANGES.md why the bodies changed.
func TestServiceGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: goldenMaxSource})
	var sb strings.Builder
	n := 0
	record := func(label, path string, body any) {
		n++
		status, cache, got := postRaw(t, ts, path, fmt.Sprintf("golden-%d", n), body)
		if cache == "" {
			cache = "-"
		}
		fmt.Fprintf(&sb, "== %s %s\nstatus %d\ncache %s\n%s", path, label, status, cache, maskDurations(got))
	}
	for _, k := range irregular.Kernels() {
		req := api.CompileRequest{Kernel: k}
		record(k, "/v1/compile", req)
		record(k, "/v1/lint", req)
		record(k+" P=8", "/v1/run", api.RunRequest{CompileRequest: req, Processors: 8})
		record(k+" again", "/v1/compile", req)
	}
	for _, tc := range errorCases {
		path := tc.path
		if path == "" {
			path = "/v1/compile"
		}
		record(tc.name, path, tc.body)
	}
	got := sb.String()

	const golden = "testdata/service.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("response bodies drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("response bodies drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// postRaw sends a JSON body under the request ID id and returns the
// status, the X-Irrd-Cache header and the body as served.
func postRaw(t *testing.T, ts *httptest.Server, path, id string, body any) (int, string, string) {
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
	req.Header.Set(api.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading response: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get(api.CacheHeader), string(got)
}

var (
	// nsField is a wall-clock field of the embedded metrics document.
	nsField = regexp.MustCompile(`^(\s*"(?:compile_ns|property_ns|ns)": )\d+`)
	// histStart opens the metrics document's histograms array.
	histStart = regexp.MustCompile(`^(\s*)"histograms": \[$`)
	// summaryTimes are the durations and the property share on the first
	// two lines of a compile summary.
	summaryTimes = regexp.MustCompile(`(?:[0-9]+(?:\.[0-9]+)?(?:ns|µs|ms|h|m|s))+|[0-9]+\.[0-9]%`)
	// summaryHead is the timed part of a summary: the "compiled ..." line
	// and the "phases:" line, up to the first loop.
	summaryHead = regexp.MustCompile(`"summary": "compiled [^\\]*\\n(?:  phases: [^\\]*\\n)?`)
)

// maskDurations zeroes the wall-clock numbers of an indented response body
// and drops the histograms array, leaving every other byte as served.
func maskDurations(body string) string {
	var sb strings.Builder
	lines := strings.SplitAfter(body, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if m := histStart.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil {
			end := m[1] + "]"
			for i < len(lines) && strings.TrimRight(lines[i], ",\n") != end {
				i++
			}
			sb.WriteString(m[1] + `"histograms": "masked"` + strings.TrimPrefix(lines[i], end))
			continue
		}
		line = nsField.ReplaceAllString(line, "${1}0")
		line = summaryHead.ReplaceAllStringFunc(line, func(head string) string {
			return summaryTimes.ReplaceAllString(head, "<t>")
		})
		sb.WriteString(line)
	}
	return sb.String()
}
