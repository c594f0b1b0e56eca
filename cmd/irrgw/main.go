// Command irrgw is the consistent-hash gateway over a fleet of irrd
// backends: it routes each request by the same content-addressed digest
// irrd keys its response cache with, so identical compiles always land on
// the same (cache-warm) backend, and the fleet scales horizontally
// without giving up irrd's cross-request cache hit rate.
//
// Usage:
//
//	irrgw -backends http://127.0.0.1:8081,http://127.0.0.1:8082 [-addr :8080]
//	      [-probe-interval 1s] [-probe-timeout 2s]
//	      [-fail-threshold 2] [-pass-threshold 2]
//	      [-max-attempts 3] [-retry-base 25ms] [-retry-max 500ms]
//	      [-max-body-bytes N] [-log-text]
//
// The gateway exposes irrd's own surface — POST /v1/compile, /v1/run,
// /v1/lint, GET /v1/kernels — plus its own GET /healthz (fleet view:
// ok / degraded / down with per-backend detail) and GET /metrics
// (Prometheus; irrgw_requests_total{backend,outcome}, routing-latency
// histograms, per-backend up/inflight gauges, ejection/readmission
// counters). Responses are relayed byte-for-byte from the backend and
// carry X-Irrd-Backend naming the backend that served them.
//
// Reliability: every backend's /healthz is probed on -probe-interval;
// -fail-threshold consecutive failures eject it from routing and
// -pass-threshold successes readmit it. Requests that hit a connect
// failure or upstream 5xx retry on the key's next-preferred backend with
// jittered exponential backoff (-retry-base doubling up to -retry-max,
// at most -max-attempts distinct backends), so losing one backend under
// load does not surface as a client error.
//
// SIGINT/SIGTERM drain gracefully as irrd does.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated irrd base URLs (required)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health-check period per backend")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "health-check probe deadline")
	failThreshold := flag.Int("fail-threshold", 2, "consecutive probe failures that eject a backend")
	passThreshold := flag.Int("pass-threshold", 2, "consecutive probe successes that readmit a backend")
	maxAttempts := flag.Int("max-attempts", 3, "max distinct backends tried per request")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "first retry backoff (doubles per retry, jittered)")
	retryMax := flag.Duration("retry-max", 500*time.Millisecond, "retry backoff cap")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "proxied request body limit (0: 2MiB)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain limit")
	logText := flag.Bool("log-text", false, "per-request logs as text instead of JSON lines")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: irrgw -backends URL[,URL...] [flags]; see -h")
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "irrgw: -backends is required (comma-separated irrd base URLs)")
		os.Exit(2)
	}

	g, err := gateway.New(gateway.Config{
		Backends:      urls,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailThreshold: *failThreshold,
		PassThreshold: *passThreshold,
		MaxAttempts:   *maxAttempts,
		RetryBase:     *retryBase,
		RetryMax:      *retryMax,
		MaxBodyBytes:  *maxBodyBytes,
		Logger:        api.NewLogger(*logText),
	})
	if err != nil {
		log.Fatalf("irrgw: %v", err)
	}
	g.Start()
	code := api.Serve("irrgw", *addr, g, *drainTimeout)
	g.Close()
	os.Exit(code)
}
