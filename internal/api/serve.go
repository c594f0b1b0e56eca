package api

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// This file is the shell irrd and irrgw share around their handlers:
// request IDs, the /metrics responder, the request logger and the
// serve-and-drain loop of the binaries.

// RequestID returns the request's correlation ID: the client's
// X-Request-Id, or a generated 16-hex-digit one when it sent none. The ID
// is left on r.Header for the handlers and echoed on the response. It
// only needs to be unique enough to correlate log lines and traces, not
// unguessable.
func RequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = fmt.Sprintf("%016x", rand.Uint64())
		r.Header.Set(RequestIDHeader, id)
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// WriteMetrics answers a /metrics scrape of rec: the Prometheus text
// exposition by default, or under "Accept: application/json" the JSON
// document {schema, counters, histograms}, whose histogram entries add
// the derived quantiles.
func WriteMetrics(w http.ResponseWriter, r *http.Request, rec *obs.Recorder, schema string) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		WriteJSON(w, http.StatusOK, map[string]any{
			"schema":     schema,
			"counters":   rec.Counters(),
			"histograms": rec.HistogramEntries(),
		})
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	obs.WritePrometheus(w, rec) //nolint:errcheck // the response is already committed
}

// NewLogger builds a service's per-request logger on standard error: JSON
// lines, or text lines when text is set (the -log-text flag).
func NewLogger(text bool) *slog.Logger {
	if text {
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, nil))
}

// Serve serves handler on addr until SIGINT or SIGTERM, then closes the
// listener and waits up to drain for in-flight requests to finish; a
// second signal kills the process at once. It returns the process exit
// code: 0 after a full drain, 1 when listening fails or the drain does
// not finish in time.
func Serve(name, addr string, handler http.Handler, drain time.Duration) int {
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("%s: listening on %s", name, addr)

	select {
	case err := <-errc:
		log.Printf("%s: %v", name, err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining

	log.Printf("%s: shutting down, draining in-flight requests (limit %s)", name, drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("%s: %v", name, err)
		return 1
	}
	log.Printf("%s: drained, exiting", name)
	return 0
}
