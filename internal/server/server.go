// Package server implements irrd, the long-running compilation service: an
// HTTP/JSON front end over the public irregular API with the robustness
// layer a shared service needs — cooperative cancellation (every request
// compiles under its own deadline-carrying context), admission control (a
// weighted FIFO semaphore bounds concurrent compilations; per-request
// limits bound source bytes, query-propagation steps and simulated-machine
// steps), and isolation (a panic inside one request's compilation becomes
// that request's 500 without taking down the server).
//
// The compiler is deterministic, so the server keeps a cross-request
// compilation cache (internal/rescache): responses for identical
// (source, mode, options) requests come from a frozen snapshot of the
// first compilation, concurrent identical requests coalesce onto one
// compile (single-flight), and an LRU byte budget bounds the resident
// set. Every response carries an X-Irrd-Cache header (hit / miss /
// coalesced / bypass); debug-level explain/trace requests bypass the
// cache because their responses embed per-request event streams. Cache
// traffic is visible on /metrics as rescache_hits_total,
// rescache_misses_total, rescache_coalesced_total,
// rescache_evictions_total and the rescache_bytes / rescache_entries
// gauges.
//
// Endpoints:
//
//	POST /v1/compile  compile a program; the response embeds the
//	                  irr-metrics/1 document of the compilation
//	POST /v1/run      compile and execute on the simulated machine
//	POST /v1/lint     compile with the diagnostics phase: source lints
//	                  plus the parallelization verdict audit
//	GET  /v1/kernels  list the bundled benchmark kernels
//	GET  /healthz     liveness: "ok" plus in-flight count
//	GET  /metrics     the server's telemetry: Prometheus text exposition by
//	                  default (counters, gauges, per-endpoint / per-phase /
//	                  per-query-kind latency histograms), or the JSON
//	                  document under "Accept: application/json"
//	GET  /debug/pprof/...  the runtime profiles, only when Config.EnablePprof
//
// Every request carries a request ID: the X-Request-Id header is accepted
// from the client (or generated), echoed on the response, logged on the
// structured per-request log line, and stamped into the compilation's
// telemetry recorder. Each finished compilation's counters and latency
// histograms are absorbed into the server's process-wide recorder, so
// /metrics aggregates per-phase and per-query-kind latency across requests.
//
// The wire contract — request/response DTOs, the unified error envelope
// {"error":{"kind","message","request_id"}}, and the kind→status table
// (parse 400, analysis 422, resource limit 413, over capacity 429,
// canceled/deadline 504, internal 500) — is defined once in internal/api
// and shared with the irrgw gateway.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	irregular "repro"
	"repro/internal/api"
	"repro/internal/comperr"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rescache"
)

// Config bounds the service; the zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent caps the total admission weight of in-flight
	// compilations (default GOMAXPROCS). A compile runs on one goroutine
	// and weighs 1; a lint weighs 2 (the audit replays the program); a run
	// admits per stage — 1 for the compile (skipped on a cache hit) and 1
	// for the simulated execution — so cached runs only consume execution
	// capacity. An execution still weighs 1, although a parallel region
	// whose work estimate reaches 2^18 simulated cycles may run on up to
	// GOMAXPROCS goroutines for its duration; the small programs a service
	// typically runs stay below it.
	MaxConcurrent int
	// MaxSourceBytes rejects larger programs with 413 (default 1 MiB).
	// It also bounds the accepted request body.
	MaxSourceBytes int
	// MaxQuerySteps bounds property-query propagation per compilation
	// (default 50M; <0 disables the bound).
	MaxQuerySteps int
	// MaxRunSteps caps the simulated-machine steps of /v1/run; client
	// requests are clamped to it (default 2G, the interpreter's own cap).
	MaxRunSteps uint64
	// RequestTimeout is the per-request compile/run deadline
	// (default 60s; <0 disables it).
	RequestTimeout time.Duration
	// AdmitTimeout is how long a request may queue for admission before
	// 429 (default 10s; <0 rejects immediately when at capacity).
	AdmitTimeout time.Duration
	// CacheBytes is the byte budget of the cross-request compilation
	// cache (default 256 MiB; <0 disables the cache). The compiler is
	// deterministic, so identical (source, mode, options) requests are
	// answered from a frozen snapshot of the first compilation;
	// concurrent identical requests coalesce onto a single compile.
	// Debug-level requests (explain/trace) always bypass it.
	CacheBytes int64
	// EnablePprof mounts the runtime profiling handlers under
	// /debug/pprof/. Off by default: the profiles expose internals, so the
	// operator opts in (irrd -pprof).
	EnablePprof bool
	// Logger receives one structured line per request (request id, method,
	// path, endpoint, status, duration). nil discards the log — pass
	// slog.New(slog.NewJSONHandler(os.Stderr, nil)) or similar to keep it.
	Logger *slog.Logger
}

// withDefaults resolves the zero value to the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxSourceBytes == 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxQuerySteps == 0 {
		c.MaxQuerySteps = 50_000_000
	} else if c.MaxQuerySteps < 0 {
		c.MaxQuerySteps = 0
	}
	if c.MaxRunSteps == 0 {
		c.MaxRunSteps = 2_000_000_000
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	} else if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.AdmitTimeout == 0 {
		c.AdmitTimeout = 10 * time.Second
	} else if c.AdmitTimeout < 0 {
		c.AdmitTimeout = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	} else if c.CacheBytes < 0 {
		c.CacheBytes = 0
	}
	return c
}

// Server is the irrd service. Construct with New; it is an http.Handler.
type Server struct {
	cfg   Config
	sem   *weighted
	rec   *obs.Recorder                        // process-wide telemetry: counters + histograms, shared across requests
	cache *rescache.Cache[*irregular.Snapshot] // cross-request compilation cache; nil when disabled
	log   *slog.Logger
	mux   *http.ServeMux

	// compile is the compilation entry point, a field so tests can inject
	// failure modes (panics, hangs) without crafting pathological source.
	compile func(ctx context.Context, src string, opts irregular.Options) (*irregular.Result, error)
}

// New builds the service with cfg resolved to its defaults.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		rec:     obs.New(),
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		compile: irregular.CompileContext,
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.sem = newWeighted(int64(s.cfg.MaxConcurrent))
	if s.cfg.CacheBytes > 0 {
		s.cache = rescache.New(rescache.Config[*irregular.Snapshot]{
			MaxBytes: s.cfg.CacheBytes,
			Cost:     func(snap *irregular.Snapshot) int64 { return snap.Cost() },
			Rec:      s.rec,
		})
	}
	s.mux.HandleFunc("POST /v1/compile", s.guard("compile", s.handleCompile))
	s.mux.HandleFunc("POST /v1/run", s.guard("run", s.handleRun))
	s.mux.HandleFunc("POST /v1/lint", s.guard("lint", s.handleLint))
	s.mux.HandleFunc("GET /v1/kernels", s.guard("kernels", s.handleKernels))
	s.mux.HandleFunc("GET /healthz", s.guard("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.guard("metrics", func(w http.ResponseWriter, r *http.Request) {
		api.WriteMetrics(w, r, s.rec, "irrd-metrics/2")
	}))
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errCapacity marks an admission-control rejection; it is
// ErrResourceLimit-classified but maps to 429, not 413.
var errCapacity = errors.New("server at capacity")

// maxOutputBytes truncates a run's PRINT output in the response.
const maxOutputBytes = 64 << 10

// statusWriter captures the response status for the request log line and
// the per-endpoint metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// guard wraps every handler with the request-scoped observability and
// isolation layer:
//
//   - the request ID is accepted from X-Request-Id (or generated), echoed
//     on the response, and left on r.Header for the handler to propagate
//     into the compilation's recorder;
//   - the request is counted, timed into the per-endpoint latency
//     histogram, and logged as one structured line;
//   - panics inside the request (including inside compilation worker
//     pools, which re-panic on the dispatching goroutine) are recovered
//     into a 500 envelope, counted, and the server keeps serving.
func (s *Server) guard(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := api.RequestID(w, r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.rec.Count("irrd_requests_total", 1)
		s.rec.Count("irrd_requests_total:endpoint="+endpoint, 1)
		defer func() {
			if rec := recover(); rec != nil {
				s.rec.Count("irrd_panics_total", 1)
				s.rec.Count("irrd_errors_total:kind=internal", 1)
				api.WriteError(sw, api.KindInternal,
					fmt.Sprintf("internal error: %v", rec), id)
			}
			d := time.Since(start)
			s.rec.Observe("irrd_request_duration:endpoint="+endpoint, d)
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("duration", d))
		}()
		h(sw, r)
	}
}

// admit takes weight units of the concurrency semaphore, waiting at most
// AdmitTimeout; the returned release function must be called exactly once.
func (s *Server) admit(ctx context.Context, weight int64) (release func(), err error) {
	if s.cfg.AdmitTimeout <= 0 {
		if !s.sem.TryAcquire(weight) {
			return nil, errCapacity
		}
	} else if !s.sem.TryAcquire(weight) {
		// Slow path only: the request actually has to park. The
		// queue-depth gauge covers just the parked wait, so a scrape
		// under light load reports zero instead of phantom queueing from
		// instantly-admitted requests.
		actx, cancel := context.WithTimeout(ctx, s.cfg.AdmitTimeout)
		defer cancel()
		s.rec.Count("irrd_admission_queue_depth", 1)
		defer s.rec.Count("irrd_admission_queue_depth", -1)
		if err := s.sem.Acquire(actx, weight); err != nil {
			// The admission deadline firing means capacity, not a client
			// cancellation — unless the request context itself is done.
			if ctx.Err() != nil {
				return nil, comperr.Canceled(ctx.Err())
			}
			return nil, errCapacity
		}
	}
	s.rec.Count("irrd_inflight", 1)
	return func() {
		s.rec.Count("irrd_inflight", -1)
		s.sem.Release(weight)
	}, nil
}

// requestContext derives the per-request compile context: the client
// disconnect already cancels r.Context(); RequestTimeout adds the deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// decodeCompileRequest reads, validates and normalizes the request body
// (api.CompileRequest.Normalize resolves kernel references and checks the
// mode); the source size limit applies to the body as a whole and to the
// resolved source.
func (s *Server) decodeCompileRequest(w http.ResponseWriter, r *http.Request, into any, req *api.CompileRequest) error {
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+4096)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return comperr.Limitf("request body exceeds %d bytes", s.cfg.MaxSourceBytes)
		}
		return comperr.Parsef("invalid request body: %v", err)
	}
	return req.Normalize()
}

// options maps the request to public compile options under the server's
// limits. Telemetry is always on: the response's irr-metrics/1 document
// and the decision log need the recorder, and the server absorbs every
// compilation's counters and histograms into its /metrics aggregates.
// An Explain or Trace request raises the recorder to debug level.
func (s *Server) options(req *api.CompileRequest, requestID string) irregular.Options {
	mode, _ := parallel.ParseMode(req.Mode) // Normalize rejected unknown modes
	return irregular.Options{
		Mode:            mode,
		Intraprocedural: req.Intraprocedural,
		Interchange:     req.Interchange,
		Telemetry:       true,
		Trace:           req.Explain || req.Trace,
		RequestID:       requestID,
		Limits: irregular.Limits{
			MaxQuerySteps:  s.cfg.MaxQuerySteps,
			MaxSourceBytes: s.cfg.MaxSourceBytes,
		},
	}
}

// cacheKey derives the content-addressed key of a compilation from the
// request's affinity digest — the hex SHA-256 over the resolved source
// and every option that changes the compiled output (api.AffinityDigest;
// the same digest the irrgw gateway routes by, so requests land on the
// backend already holding their cache entry) — plus the response schema
// and the server's query-step budget (a different budget can turn a
// success into a 413). Telemetry level, request IDs and run options are
// deliberately excluded — they never change what the compiler produces
// (debug-level requests bypass the cache entirely).
func (s *Server) cacheKey(req *api.CompileRequest, lint bool) rescache.Key {
	return rescache.Key(api.DigestParts(
		"irr-metrics/1", // response-schema guard: bump-safe across deploys
		req.AffinityDigest(lint),
		strconv.Itoa(s.cfg.MaxQuerySteps),
	))
}

// compileSnapshot resolves a compile request to an immutable snapshot,
// through the cross-request cache when it applies. Admission happens
// inside the compute path, so a cache hit is admission-free and coalesced
// waiters do not hold semaphore slots while parked (which could deadlock
// a leader waiting for admission against followers holding every slot).
// The compilation's telemetry is absorbed into the process recorder on
// every path where the compile itself succeeded — including when a later
// stage (snapshotting, the caller's run) fails.
func (s *Server) compileSnapshot(ctx context.Context, req *api.CompileRequest, opts irregular.Options, weight int64) (*irregular.Snapshot, string, error) {
	compute := func() (*irregular.Snapshot, error) {
		release, err := s.admit(ctx, weight)
		if err != nil {
			return nil, err
		}
		defer release()
		res, err := s.compile(ctx, req.Src, opts)
		if err != nil {
			return nil, err
		}
		// The compilation did real analysis work: its phase histograms
		// and counters reach /metrics even if snapshotting fails.
		s.rec.Absorb(res.Recorder)
		return res.Snapshot()
	}
	if s.cache == nil || opts.Trace {
		snap, err := compute()
		return snap, "bypass", err
	}
	// A waiter abandoning a flight on its own context returns a bare
	// context error; comperr.KindOf classifies those as ErrCanceled, so
	// statusOf maps them to 504 like any pre-typed compute error.
	snap, out, err := s.cache.Do(ctx, s.cacheKey(req, opts.Lint), compute)
	return snap, out.String(), err
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.rec.Count("irrd_compile_total", 1)
	var req api.CompileRequest
	if err := s.decodeCompileRequest(w, r, &req, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	opts := s.options(&req, r.Header.Get(api.RequestIDHeader))
	ctx, cancel := s.requestContext(r)
	defer cancel()

	if req.Explain || req.Trace {
		// Debug-level compile: the response embeds the recorder's event
		// stream, which is per-request by nature — bypass the cache.
		release, err := s.admit(ctx, 1)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		defer release()
		res, err := s.compile(ctx, req.Src, opts)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		// Absorbed before the response is built, so the compilation's
		// telemetry survives a SummaryJSON failure.
		s.rec.Absorb(res.Recorder)
		metrics, err := res.SummaryJSON()
		if err != nil {
			s.fail(w, r, err)
			return
		}
		resp := api.CompileResponse{
			Summary:   res.Summary(),
			Metrics:   metrics,
			RequestID: r.Header.Get(api.RequestIDHeader),
		}
		if req.Explain {
			resp.Explain = res.Explain()
		}
		if req.Trace {
			var buf bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, res.Recorder.Events()); err != nil {
				s.fail(w, r, err)
				return
			}
			resp.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		}
		w.Header().Set(api.CacheHeader, "bypass")
		api.WriteJSON(w, http.StatusOK, resp)
		return
	}

	snap, outcome, err := s.compileSnapshot(ctx, &req, opts, 1)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set(api.CacheHeader, outcome)
	api.WriteJSON(w, http.StatusOK, api.CompileResponse{
		Summary:   snap.Summary(),
		Metrics:   snap.MetricsJSON(),
		RequestID: r.Header.Get(api.RequestIDHeader),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.rec.Count("irrd_run_total", 1)
	var req api.RunRequest
	if err := s.decodeCompileRequest(w, r, &req, &req.CompileRequest); err != nil {
		s.fail(w, r, err)
		return
	}
	opts := s.options(&req.CompileRequest, r.Header.Get(api.RequestIDHeader))
	if err := irregular.MachineProfile(req.Profile).Validate(); err != nil {
		s.fail(w, r, err)
		return
	}
	maxSteps := req.MaxSteps
	if maxSteps == 0 || maxSteps > s.cfg.MaxRunSteps {
		maxSteps = s.cfg.MaxRunSteps
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	// The compilation half goes through the cross-request cache: a warm
	// run skips straight to execution. The run half is always per-request
	// — it admits its own weight and executes on a Clone of the immutable
	// snapshot with a fresh recorder, so concurrent runs of one cached
	// compilation never share mutable state.
	snap, outcome, err := s.compileSnapshot(ctx, &req.CompileRequest, opts, 1)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set(api.CacheHeader, outcome)
	release, err := s.admit(ctx, 1)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	defer release()

	res := snap.Clone()
	res.Recorder = obs.New()
	// Absorbed on success and on run failure alike: the run did simulated
	// work either way, and the compile's own telemetry was already
	// absorbed when it actually compiled (not on cache hits).
	defer s.rec.Absorb(res.Recorder)
	var out limitedBuffer
	out.max = maxOutputBytes
	rr, err := res.RunContext(ctx, irregular.RunOptions{
		Processors:            req.Processors,
		Profile:               irregular.MachineProfile(req.Profile),
		Out:                   &out,
		MaxSteps:              maxSteps,
		EliminateBoundsChecks: req.BoundsCheckElim,
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.RunResponse{
		Time:            rr.Time,
		ParallelRegions: rr.ParallelRegions,
		Output:          out.String(),
		OutputTruncated: out.truncated,
		Summary:         snap.Summary(),
	})
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.rec.Count("irrd_lint_total", 1)
	var req api.CompileRequest
	if err := s.decodeCompileRequest(w, r, &req, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	opts := s.options(&req, r.Header.Get(api.RequestIDHeader))
	opts.Lint = true
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// Weight 2, like a cold /v1/run: the audit replays the program on the
	// simulated machine. Lint compilations cache under their own key
	// (opts.Lint is part of the derivation).
	snap, outcome, err := s.compileSnapshot(ctx, &req, opts, 2)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set(api.CacheHeader, outcome)
	diags := snap.Diags()
	if diags == nil {
		diags = []irregular.Diag{}
	}
	api.WriteJSON(w, http.StatusOK, api.LintResponse{
		Diags:    diags,
		Counts:   lint.Count(diags),
		Rendered: irregular.RenderDiags(diags),
	})
}

func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request) {
	var out api.KernelsResponse
	for _, name := range irregular.Kernels() {
		src, err := irregular.KernelSource(name)
		if err != nil {
			continue
		}
		out.Kernels = append(out.Kernels, api.KernelInfo{Name: name, Bytes: len(src)})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := api.Healthz{
		Status:   "ok",
		Inflight: s.rec.Counter("irrd_inflight"),
	}
	if s.cache != nil {
		st := s.cache.Stats()
		body.CacheEntries = int64(st.Entries)
		body.CacheBytes = st.Bytes
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// fail writes the unified error envelope (kind, message, request ID; the
// status is the api kind→status table's) and counts the failure by kind.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	kind := errorKind(err)
	s.rec.Count("irrd_errors_total:kind="+kind, 1)
	if errors.Is(err, errCapacity) {
		s.rec.Count("irrd_rejected_capacity_total", 1)
	}
	api.WriteError(w, kind, err.Error(), r.Header.Get(api.RequestIDHeader))
}

// errorKind classifies err for the envelope: admission rejections are
// "over_capacity" (429, not the resource-limit 413), everything else maps
// through the comperr taxonomy ("internal" when unclassified).
func errorKind(err error) string {
	if errors.Is(err, errCapacity) {
		return api.KindOverCapacity
	}
	return comperr.KindString(err)
}

// limitedBuffer keeps the first max bytes and drops (but notes) the rest —
// a simulated program's PRINT output must not grow the response unbounded.
type limitedBuffer struct {
	buf       []byte
	max       int
	truncated bool
}

func (b *limitedBuffer) Write(p []byte) (int, error) {
	if room := b.max - len(b.buf); room > 0 {
		if len(p) > room {
			b.buf = append(b.buf, p[:room]...)
			b.truncated = true
		} else {
			b.buf = append(b.buf, p...)
		}
	} else if len(p) > 0 {
		b.truncated = true
	}
	return len(p), nil
}

func (b *limitedBuffer) String() string { return string(b.buf) }
