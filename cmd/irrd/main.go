// Command irrd serves the F-lite parallelizing compiler over HTTP/JSON: a
// long-running, resource-bounded compilation service on the library's
// cancellation layer. See package repro/internal/server for the endpoints
// and the error envelope.
//
// Usage:
//
//	irrd [-addr :8080] [-max-concurrent N] [-max-source-bytes N]
//	     [-max-query-steps N] [-max-run-steps N]
//	     [-request-timeout 60s] [-admit-timeout 10s]
//	     [-cache-bytes N] [-drain-timeout 30s]
//	     [-pprof] [-log-text]
//
// Compile a bundled kernel:
//
//	curl -s localhost:8080/v1/compile -d '{"kernel":"trfd"}'
//
// Identical sources are served from the cross-request compilation cache
// (-cache-bytes budget, default 256MiB; -cache-bytes -1 disables it), and
// identical in-flight requests coalesce onto one compilation. The
// X-Irrd-Cache response header reports hit, miss, coalesced or bypass.
//
// Scrape the always-on telemetry (Prometheus text exposition; per-endpoint
// latency histograms, per-phase and per-query-kind compile latency
// aggregated across requests):
//
//	curl -s localhost:8080/metrics
//
// Every request gets an X-Request-Id (client-supplied or generated),
// echoed on the response and on the per-request JSON log line. -pprof
// mounts /debug/pprof for live profiling; it is off by default.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// in-flight compilations drain (their contexts stay live until
// -drain-timeout), then the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission weight of concurrent compilations (0: GOMAXPROCS)")
	maxSourceBytes := flag.Int("max-source-bytes", 0, "per-request source size limit (0: 1MiB)")
	maxQuerySteps := flag.Int("max-query-steps", 0, "per-request query-propagation budget (0: 50M, <0: unlimited)")
	maxRunSteps := flag.Uint64("max-run-steps", 0, "simulated-machine step cap for /v1/run (0: 2G)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request compile/run deadline (0: 60s, <0: none)")
	admitTimeout := flag.Duration("admit-timeout", 0, "max queueing time before 429 (0: 10s, <0: reject immediately)")
	cacheBytes := flag.Int64("cache-bytes", 0, "compilation cache budget in bytes (0: 256MiB, <0: cache off)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain limit")
	pprofFlag := flag.Bool("pprof", false, "mount /debug/pprof (off by default; exposes runtime internals)")
	logText := flag.Bool("log-text", false, "per-request logs as text instead of JSON lines")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: irrd [flags]; see -h")
		os.Exit(2)
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxSourceBytes: *maxSourceBytes,
		MaxQuerySteps:  *maxQuerySteps,
		MaxRunSteps:    *maxRunSteps,
		RequestTimeout: *requestTimeout,
		AdmitTimeout:   *admitTimeout,
		CacheBytes:     *cacheBytes,
		EnablePprof:    *pprofFlag,
		Logger:         api.NewLogger(*logText),
	})
	os.Exit(api.Serve("irrd", *addr, srv, *drainTimeout))
}
