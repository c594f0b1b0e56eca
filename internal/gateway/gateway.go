// Package gateway implements irrgw, the consistent-hash reverse proxy
// that scales irrd horizontally: requests fan out across M irrd backends,
// routed by the same content-addressed affinity digest irrd derives its
// cross-request cache key from (internal/api.AffinityDigest). The
// compiler is deterministic, so identical compiles are interchangeable —
// sending them to the same backend compounds that backend's response
// cache, and the fleet behaves like one big cache sharded by request
// content.
//
// Reliability layer:
//
//   - An active health-check loop probes every backend's /healthz on a
//     configurable interval; FailThreshold consecutive failures eject the
//     backend from routing, PassThreshold consecutive successes readmit
//     it. Ejection is advisory: with every backend ejected the gateway
//     still tries them (stale health info must not turn a recovered
//     fleet away).
//   - Requests retry across the key's rendezvous preference order with
//     jittered exponential backoff on connect failures and upstream 5xx,
//     so a single backend loss is absorbed, never surfaced. Compiles are
//     deterministic and side-effect free, which is what makes POST retry
//     safe here.
//   - Every response carries X-Irrd-Backend naming the backend that
//     served it, and the gateway's own /metrics exposes
//     irrgw_requests_total{backend,outcome}, per-endpoint routing
//     latency histograms, per-backend up/inflight gauges and
//     ejection/readmission counters.
//
// Proxied bodies are relayed byte-for-byte (no re-encoding), so a gateway
// response is byte-identical to the backend's — the CI smoke and the
// gateway tests assert exactly that.
package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Config describes the fleet and the gateway's reliability policy; the
// zero value of every field except Backends gets a sensible default.
type Config struct {
	// Backends are the irrd base URLs (e.g. "http://127.0.0.1:8080").
	// At least one is required. Order is irrelevant: routing depends
	// only on the set.
	Backends []string
	// ProbeInterval is the health-check period per backend (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe failures that eject a
	// backend (default 2).
	FailThreshold int
	// PassThreshold is the consecutive probe successes that readmit an
	// ejected backend (default 2).
	PassThreshold int
	// MaxAttempts bounds how many distinct backends one request may try
	// (default 3, clamped to the backend count).
	MaxAttempts int
	// RetryBase is the first retry's backoff; each further retry doubles
	// it, and every wait is jittered ±50% (default 25ms).
	RetryBase time.Duration
	// RetryMax caps the backoff (default 500ms).
	RetryMax time.Duration
	// MaxBodyBytes bounds a proxied request body (default 2MiB — irrd's
	// own source limit plus envelope headroom).
	MaxBodyBytes int64
	// Logger receives one structured line per proxied request and per
	// health transition. nil discards the log.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.PassThreshold <= 0 {
		c.PassThreshold = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 2 << 20
	}
	return c
}

// backend is one irrd instance behind the gateway.
type backend struct {
	name string // host:port — the metrics label and X-Irrd-Backend value
	url  string

	up         atomic.Bool
	inflight   atomic.Int64
	consecFail atomic.Int64
	consecPass atomic.Int64
}

// Gateway is the irrgw service. Construct with New, launch the health
// loops with Start, and serve it as an http.Handler.
type Gateway struct {
	cfg      Config
	rec      *obs.Recorder
	log      *slog.Logger
	hc       *http.Client // one connection pool for every backend, sized for concurrent fan-out
	backends []*backend
	names    []string // canonical backend names, parallel to backends
	mux      *http.ServeMux

	startOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds the gateway over the configured backend set.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	g := &Gateway{
		cfg: cfg,
		rec: obs.New(),
		log: cfg.Logger,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}},
		mux:  http.NewServeMux(),
		stop: make(chan struct{}),
	}
	if g.log == nil {
		g.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		base := strings.TrimRight(raw, "/")
		u, err := url.Parse(base)
		if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return nil, fmt.Errorf("gateway: bad backend URL %q", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", u.Host)
		}
		seen[u.Host] = true
		b := &backend{name: u.Host, url: base}
		// Optimistically live: traffic flows before the first probe and
		// the health loop corrects within one interval.
		b.up.Store(true)
		g.backends = append(g.backends, b)
		g.names = append(g.names, b.name)
		g.rec.Count("irrgw_backend_up:backend="+b.name, 1)
	}
	g.mux.HandleFunc("POST /v1/compile", g.proxy("compile", false))
	g.mux.HandleFunc("POST /v1/run", g.proxy("run", false))
	g.mux.HandleFunc("POST /v1/lint", g.proxy("lint", true))
	g.mux.HandleFunc("GET /v1/kernels", g.handleKernels)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		api.WriteMetrics(w, r, g.rec, "irrgw-metrics/1")
	})
	return g, nil
}

// Start launches the per-backend health-check loops (idempotent).
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		for _, b := range g.backends {
			g.wg.Add(1)
			go g.healthLoop(b)
		}
	})
}

// Close stops the health loops and waits for them to exit.
func (g *Gateway) Close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.wg.Wait()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Live reports how many backends are currently admitted to routing.
func (g *Gateway) Live() int {
	n := 0
	for _, b := range g.backends {
		if b.up.Load() {
			n++
		}
	}
	return n
}

// affinityKey derives the routing key of a proxied body: the same
// content-addressed digest irrd keys its response cache with, so a key's
// rendezvous winner is also the backend whose cache is warm for it. A
// body that does not decode (the backend will reject it with the
// canonical 400) digests raw — still deterministic, so even garbage is
// routed consistently.
func affinityKey(body []byte, lintPhase bool) string {
	var req api.CompileRequest
	if err := json.Unmarshal(body, &req); err == nil {
		if err := req.Normalize(); err == nil {
			return req.AffinityDigest(lintPhase)
		}
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// candidates is the attempt order for key: every backend in rendezvous
// preference order, live ones first. Ejected backends stay in the tail —
// if the whole fleet looks down, stale health info must not reject a
// request that a recovered backend could serve.
func (g *Gateway) candidates(key string) []*backend {
	order := rank(g.names, key)
	live := make([]*backend, 0, len(order))
	var down []*backend
	for _, i := range order {
		if b := g.backends[i]; b.up.Load() {
			live = append(live, b)
		} else {
			down = append(down, b)
		}
	}
	return append(live, down...)
}

// proxy builds the handler for one POST endpoint. lintPhase folds the
// endpoint's diagnostics phase into the affinity digest, mirroring the
// backend's cache-key derivation.
func (g *Gateway) proxy(endpoint string, lintPhase bool) http.HandlerFunc {
	path := "/v1/" + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		id := api.RequestID(w, r)
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				api.WriteError(w, api.KindResourceLimit,
					fmt.Sprintf("request body exceeds %d bytes", g.cfg.MaxBodyBytes), id)
			} else {
				api.WriteError(w, api.KindInternal, "reading request body: "+err.Error(), id)
			}
			return
		}
		g.route(w, r, endpoint, path, body, affinityKey(body, lintPhase), id)
	}
}

// handleKernels proxies the kernel listing; the fixed key gives it a
// stable (but unimportant) home backend.
func (g *Gateway) handleKernels(w http.ResponseWriter, r *http.Request) {
	id := api.RequestID(w, r)
	g.route(w, r, "kernels", "/v1/kernels", nil, "/v1/kernels", id)
}

// upstreamResult is one buffered backend response.
type upstreamResult struct {
	backend *backend
	status  int
	header  http.Header
	body    []byte
}

// route relays the request along key's candidate order with bounded,
// jittered retry. Any response below 500 is authoritative (4xx are the
// contract's own verdicts, identical on every backend); connect failures
// and 5xx fall through to the next candidate. Only when every attempt
// fails does the client see an error: the last upstream 5xx if there was
// one, otherwise the gateway's own 503 unavailable envelope.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, endpoint, path string, body []byte, key, id string) {
	start := time.Now()
	cands := g.candidates(key)
	attempts := min(g.cfg.MaxAttempts, len(cands))
	method := r.Method

	var last *upstreamResult
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			g.rec.Count("irrgw_retries_total", 1)
			if !g.backoff(r.Context(), i) {
				break // client gone; no point burning another backend
			}
		}
		b := cands[i]
		res, err := g.attempt(r.Context(), b, method, path, body, r.Header)
		if err != nil {
			lastErr = err
			if r.Context().Err() == nil {
				// A connect failure counts like a failed probe, so a dead
				// backend is ejected without waiting for the next tick.
				g.noteFailure(b)
			}
			g.rec.Count("irrgw_requests_total:backend="+b.name+",outcome=network_error", 1)
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "upstream error",
				slog.String("id", id), slog.String("backend", b.name),
				slog.String("endpoint", endpoint), slog.String("error", err.Error()))
			continue
		}
		if res.status >= 500 {
			last = res
			g.rec.Count("irrgw_requests_total:backend="+b.name+",outcome=upstream_error", 1)
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "upstream 5xx",
				slog.String("id", id), slog.String("backend", b.name),
				slog.String("endpoint", endpoint), slog.Int("status", res.status))
			continue
		}
		g.noteSuccess(b)
		g.rec.Count("irrgw_requests_total:backend="+b.name+",outcome=ok", 1)
		g.finish(w, r, endpoint, id, res, start, "ok", i)
		return
	}

	if last != nil {
		// Every candidate failed and at least one answered: relay its 5xx
		// verbatim rather than masking it with a gateway-made envelope.
		g.finish(w, r, endpoint, id, last, start, "upstream_error", attempts-1)
		return
	}
	g.rec.Count("irrgw_unavailable_total", 1)
	msg := "no live backend"
	if lastErr != nil {
		msg = "no live backend: " + lastErr.Error()
	}
	api.WriteError(w, api.KindUnavailable, msg, id)
	g.observe(endpoint, "unavailable", time.Since(start))
}

// attempt relays the request to one backend and buffers the response
// (buffering is what makes 5xx retry possible — nothing is committed to
// the client until a verdict is chosen). The body goes upstream as the
// client sent it, with only the Content-Type, Accept and X-Request-Id
// headers copied; the response is never re-encoded, which is what keeps
// gateway responses byte-identical to the backend's.
func (g *Gateway) attempt(ctx context.Context, b *backend, method, path string, body []byte, hdr http.Header) (*upstreamResult, error) {
	b.inflight.Add(1)
	g.rec.Count("irrgw_backend_inflight:backend="+b.name, 1)
	t0 := time.Now()
	defer func() {
		g.rec.Count("irrgw_backend_inflight:backend="+b.name, -1)
		g.rec.Observe("irrgw_upstream_duration:backend="+b.name, time.Since(t0))
		b.inflight.Add(-1)
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", api.RequestIDHeader} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &upstreamResult{backend: b, status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// finish commits one upstream response to the client, byte-for-byte, and
// stamps X-Irrd-Backend.
func (g *Gateway) finish(w http.ResponseWriter, r *http.Request, endpoint, id string, res *upstreamResult, start time.Time, outcome string, attempt int) {
	for _, h := range []string{"Content-Type", api.CacheHeader} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(api.BackendHeader, res.backend.name)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // the response is already committed
	d := time.Since(start)
	g.observe(endpoint, outcome, d)
	g.log.LogAttrs(r.Context(), slog.LevelInfo, "proxied",
		slog.String("id", id),
		slog.String("endpoint", endpoint),
		slog.String("backend", res.backend.name),
		slog.Int("status", res.status),
		slog.Int("attempt", attempt+1),
		slog.Duration("duration", d))
}

func (g *Gateway) observe(endpoint, outcome string, d time.Duration) {
	g.rec.Count("irrgw_proxied_total", 1)
	g.rec.Observe("irrgw_route_duration:endpoint="+endpoint, d)
	g.rec.Count("irrgw_outcomes_total:outcome="+outcome, 1)
}

// backoff sleeps the jittered exponential delay before retry n (n ≥ 1),
// returning false if the client context fired first.
func (g *Gateway) backoff(ctx context.Context, n int) bool {
	d := g.cfg.RetryBase << (n - 1)
	if d > g.cfg.RetryMax {
		d = g.cfg.RetryMax
	}
	// ±50% jitter decorrelates concurrent retry storms.
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.RequestID(w, r)
	out := api.GatewayHealthz{Backends: make([]api.BackendHealth, 0, len(g.backends))}
	for _, b := range g.backends {
		up := b.up.Load()
		if up {
			out.Live++
		}
		out.Backends = append(out.Backends, api.BackendHealth{
			Name:                b.name,
			URL:                 b.url,
			Up:                  up,
			ConsecutiveFailures: int(b.consecFail.Load()),
			Inflight:            b.inflight.Load(),
		})
	}
	status := http.StatusOK
	switch {
	case out.Live == len(g.backends):
		out.Status = "ok"
	case out.Live > 0:
		out.Status = "degraded"
	default:
		out.Status = "down"
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, out)
}
