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
//	     [-cache-bytes N] [-cache-off]
//	     [-pprof] [-log-json]
//
// Compile a bundled kernel:
//
//	curl -s localhost:8080/v1/compile -d '{"kernel":"trfd"}'
//
// Identical sources are served from the cross-request compilation cache
// (-cache-bytes budget, default 256MiB; -cache-off disables it), and
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
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

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
	cacheBytes := flag.Int64("cache-bytes", 0, "compilation cache budget in bytes (0: 256MiB)")
	cacheOff := flag.Bool("cache-off", false, "disable the cross-request compilation cache")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain limit")
	pprofFlag := flag.Bool("pprof", false, "mount /debug/pprof (off by default; exposes runtime internals)")
	logText := flag.Bool("log-text", false, "per-request logs as text instead of JSON lines")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: irrd [flags]; see -h")
		os.Exit(2)
	}

	cb := *cacheBytes
	if *cacheOff {
		cb = -1
	}
	var handler slog.Handler = slog.NewJSONHandler(os.Stderr, nil)
	if *logText {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxSourceBytes: *maxSourceBytes,
		MaxQuerySteps:  *maxQuerySteps,
		MaxRunSteps:    *maxRunSteps,
		RequestTimeout: *requestTimeout,
		AdmitTimeout:   *admitTimeout,
		CacheBytes:     cb,
		EnablePprof:    *pprofFlag,
		Logger:         slog.New(handler),
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("irrd: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("irrd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining

	log.Printf("irrd: shutting down, draining in-flight requests (limit %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("irrd: drain incomplete: %v", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("irrd: %v", err)
		os.Exit(1)
	}
	log.Printf("irrd: drained, exiting")
}
