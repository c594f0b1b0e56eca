// Package api defines the irrd wire contract: the typed request/response
// DTOs of the /v1 endpoints, the unified error envelope, the HTTP headers
// the service family uses, the kind→status table, and the content-addressed
// affinity digest of a compile request.
//
// It is the one definition shared by every party that speaks the protocol —
// internal/server (irrd) implements it and internal/gateway (irrgw) routes
// by it — so the shape of a request lives in exactly one place. serve.go
// holds the plumbing the two services share: request IDs, the /metrics
// responder, the request logger and the serve-and-drain loop.
//
// # Error envelope
//
// Every failure, from every endpoint, is one JSON document:
//
//	{"error": {"kind": "...", "message": "...", "request_id": "..."}}
//
// Kind is drawn from the comperr taxonomy plus the transport-level kinds
// the services add (over_capacity, unavailable, internal), and maps to the
// HTTP status via StatusForKind — the table DESIGN.md documents.
package api

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/comperr"
	"repro/internal/kernels"
	"repro/internal/lint"
	"repro/internal/parallel"
)

// The protocol headers.
const (
	// RequestIDHeader carries the request correlation ID: accepted from
	// the client (or generated), echoed on the response, logged, and
	// stamped into the compilation's telemetry recorder.
	RequestIDHeader = "X-Request-Id"
	// CacheHeader reports how irrd's cross-request compilation cache
	// satisfied a request: "hit", "miss", "coalesced" or "bypass".
	CacheHeader = "X-Irrd-Cache"
	// BackendHeader is stamped by the irrgw gateway: the backend
	// (host:port) that actually served the proxied request.
	BackendHeader = "X-Irrd-Backend"
)

// CompileRequest is the body of POST /v1/compile and POST /v1/lint, and
// the compilation half of POST /v1/run. Exactly one of Src and Kernel
// must be set (Normalize enforces and resolves this).
type CompileRequest struct {
	// Src is F-lite source text.
	Src string `json:"src,omitempty"`
	// Kernel names a bundled benchmark to compile instead of Src.
	Kernel string `json:"kernel,omitempty"`
	// Mode is "full" (default), "noiaa" or "baseline".
	Mode string `json:"mode,omitempty"`
	// Intraprocedural restricts the property analysis to single units.
	Intraprocedural bool `json:"intraprocedural,omitempty"`
	// Interchange enables the loop-interchange companion pass.
	Interchange bool `json:"interchange,omitempty"`
	// Explain adds the per-loop decision log to the response.
	Explain bool `json:"explain,omitempty"`
	// Trace compiles at debug telemetry level and adds a Chrome
	// trace-event document (loadable in Perfetto) to the response.
	Trace bool `json:"trace,omitempty"`
}

// Normalize validates the request shape and resolves a Kernel reference to
// its source text: afterwards Src holds the program to compile. Errors are
// ErrParse-classified (the caller maps them to 400 via the status table).
func (r *CompileRequest) Normalize() error {
	switch {
	case r.Src != "" && r.Kernel != "":
		return comperr.Parsef(`"src" and "kernel" are mutually exclusive`)
	case r.Src == "" && r.Kernel == "":
		return comperr.Parsef(`one of "src" or "kernel" is required`)
	case r.Kernel != "":
		k, err := kernels.ByName(r.Kernel, kernels.Default)
		if err != nil {
			return comperr.Parsef("unknown kernel %q", r.Kernel)
		}
		r.Src = k.Source
	}
	if _, err := parallel.ParseMode(r.Mode); err != nil {
		return comperr.Wrap(comperr.ErrParse, err)
	}
	return nil
}

// ResolvedMode is the canonical lower-case mode name, with "" meaning
// "full".
func (r *CompileRequest) ResolvedMode() string {
	mode := strings.ToLower(r.Mode)
	if mode == "" {
		mode = "full"
	}
	return mode
}

// AffinityDigest is the content-addressed identity of the compiled
// artifact: a hex SHA-256 over the length-prefixed request fields that
// change what the compiler produces — the (Normalize-resolved) source
// text, the mode, the analysis switches, and whether the diagnostics
// phase runs. Telemetry level, request IDs and run options are excluded:
// they never change the compiled result.
//
// irrd derives its cross-request cache key from this digest, and irrgw
// routes by it, so identical compiles land on the backend whose caches
// are already warm for them.
func (r *CompileRequest) AffinityDigest(lintPhase bool) string {
	return DigestParts(
		r.Src,
		r.ResolvedMode(),
		strconv.FormatBool(r.Intraprocedural),
		strconv.FormatBool(r.Interchange),
		strconv.FormatBool(lintPhase),
	)
}

// DigestParts hashes parts into a hex digest with unambiguous boundaries
// (each part is length-prefixed, so ("ab","c") and ("a","bc") differ).
func DigestParts(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CompileResponse answers POST /v1/compile. Metrics is the irr-metrics/1
// document — the same schema irrc -metrics writes. Trace, when requested,
// is the Chrome trace-event JSON array.
type CompileResponse struct {
	Summary   string          `json:"summary"`
	Metrics   json.RawMessage `json:"metrics"`
	Explain   string          `json:"explain,omitempty"`
	Trace     json.RawMessage `json:"trace,omitempty"`
	RequestID string          `json:"request_id,omitempty"`
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	CompileRequest
	// Processors is the virtual processor count (default 1, at most
	// 1,024; more is a resource_limit error).
	Processors int `json:"processors,omitempty"`
	// Profile is "origin2000" (default) or "challenge".
	Profile string `json:"profile,omitempty"`
	// MaxSteps bounds the simulated execution; it is clamped to the
	// server's MaxRunSteps.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// BoundsCheckElim applies bounds-check elimination before running.
	BoundsCheckElim bool `json:"bounds_check_elim,omitempty"`
}

// RunResponse answers POST /v1/run.
type RunResponse struct {
	Time            uint64 `json:"time"`
	ParallelRegions int    `json:"parallel_regions"`
	Output          string `json:"output,omitempty"`
	OutputTruncated bool   `json:"output_truncated,omitempty"`
	Summary         string `json:"summary"`
}

// LintResponse answers POST /v1/lint. Diags is the full structured finding
// list (IRRxxxx codes, severities, spans, related notes, fix hints);
// Rendered is the same in the canonical text format.
type LintResponse struct {
	Diags    []lint.Diag `json:"diags"`
	Counts   lint.Counts `json:"counts"`
	Rendered string      `json:"rendered"`
}

// KernelInfo is one bundled benchmark program.
type KernelInfo struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
}

// KernelsResponse answers GET /v1/kernels.
type KernelsResponse struct {
	Kernels []KernelInfo `json:"kernels"`
}

// Healthz answers irrd's GET /healthz. The cache gauges are omitted while
// zero (cache empty or disabled).
type Healthz struct {
	Status       string `json:"status"`
	Inflight     int64  `json:"inflight"`
	CacheEntries int64  `json:"cache_entries,omitempty"`
	CacheBytes   int64  `json:"cache_bytes,omitempty"`
}

// BackendHealth is one backend's state in the gateway's GET /healthz.
type BackendHealth struct {
	Name                string `json:"name"`
	URL                 string `json:"url"`
	Up                  bool   `json:"up"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	Inflight            int64  `json:"inflight"`
}

// GatewayHealthz answers irrgw's GET /healthz: "ok" with every backend
// live, "degraded" with some ejected, "down" (HTTP 503) with none live.
type GatewayHealthz struct {
	Status   string          `json:"status"`
	Live     int             `json:"live"`
	Backends []BackendHealth `json:"backends"`
}

// The error kinds of the envelope: the comperr taxonomy plus the
// transport-level kinds the services add.
const (
	KindParse         = "parse"          // 400: the request or program did not parse
	KindAnalysis      = "analysis"       // 422: semantic analysis / transformation failure
	KindResourceLimit = "resource_limit" // 413: a configured bound was exceeded
	KindOverCapacity  = "over_capacity"  // 429: admission control rejected the request
	KindCanceled      = "canceled"       // 504: context cancellation or deadline expiry
	KindUnavailable   = "unavailable"    // 503: the gateway found no live backend
	KindInternal      = "internal"       // 500: everything unclassified, incl. recovered panics
)

// StatusForKind maps an envelope kind to its HTTP status — the one table
// every /v1 endpoint (irrd and irrgw alike) answers failures from.
func StatusForKind(kind string) int {
	switch kind {
	case KindParse:
		return http.StatusBadRequest
	case KindAnalysis:
		return http.StatusUnprocessableEntity
	case KindResourceLimit:
		return http.StatusRequestEntityTooLarge
	case KindOverCapacity:
		return http.StatusTooManyRequests
	case KindCanceled:
		return http.StatusGatewayTimeout
	case KindUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ErrorBody is the payload of the unified error envelope.
type ErrorBody struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx /v1 response.
type ErrorEnvelope struct {
	Err ErrorBody `json:"error"`
}

// WriteJSON writes v as an indented JSON response. The encode error is
// deliberately dropped: the status line is already committed.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// WriteError writes the unified error envelope with the status of kind.
func WriteError(w http.ResponseWriter, kind, message, requestID string) {
	WriteJSON(w, StatusForKind(kind), ErrorEnvelope{Err: ErrorBody{
		Kind:      kind,
		Message:   message,
		RequestID: requestID,
	}})
}
