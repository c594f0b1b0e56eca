package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a small typed HTTP client for the /v1 wire contract. It is
// context-aware (every call takes a context; cancellation aborts the
// in-flight request) and request-ID propagating: an ID attached with
// WithRequestID travels on the X-Request-Id header of every call made
// under that context.
//
// The gateway's proxy and health paths use it instead of hand-rolled
// http.Post calls.
type Client struct {
	base string
	hc   *http.Client
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection
// pool, transport, timeouts). The default is a plain &http.Client{}.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// NewClient builds a client for the service at base (e.g.
// "http://127.0.0.1:8080"); a trailing slash is trimmed.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the service base URL the client targets.
func (c *Client) BaseURL() string { return c.base }

// ridKey carries the propagated request ID through a context.
type ridKey struct{}

// WithRequestID attaches a request correlation ID to ctx; every Client
// call under the returned context sends it as X-Request-Id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestIDFrom returns the ID attached with WithRequestID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// Meta carries the response metadata of a typed call: the HTTP status and
// the protocol headers (request ID echo, cache outcome, serving backend).
type Meta struct {
	Status    int
	RequestID string
	Cache     string
	Backend   string
}

// StatusError is a non-2xx response decoded from the unified error
// envelope. Status is the HTTP status; the embedded ErrorBody carries the
// kind, message and request ID.
type StatusError struct {
	Status int
	ErrorBody
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: %s (status %d)", e.Kind, e.Message, e.Status)
}

// do round-trips one JSON call. in == nil issues a GET; otherwise in is
// POSTed. A non-2xx response becomes a *StatusError; a 2xx response is
// decoded into out when out != nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (*Meta, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	meta := &Meta{
		Status:    resp.StatusCode,
		RequestID: resp.Header.Get(RequestIDHeader),
		Cache:     resp.Header.Get(CacheHeader),
		Backend:   resp.Header.Get(BackendHeader),
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return meta, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return meta, decodeStatusError(resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return meta, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return meta, nil
}

// decodeStatusError recovers the envelope from a failure body, falling
// back to a synthesized envelope when the body is not one (a proxy error
// page, a truncated response).
func decodeStatusError(status int, body []byte) *StatusError {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Err.Kind != "" {
		return &StatusError{Status: status, ErrorBody: env.Err}
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 256 {
		msg = msg[:256]
	}
	return &StatusError{Status: status, ErrorBody: ErrorBody{
		Kind:    KindInternal,
		Message: fmt.Sprintf("status %d: %s", status, msg),
	}}
}

// Compile posts a compile request.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, *Meta, error) {
	var out CompileResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/compile", req, &out)
	if err != nil {
		return nil, meta, err
	}
	return &out, meta, nil
}

// Run posts a compile-and-execute request.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, *Meta, error) {
	var out RunResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/run", req, &out)
	if err != nil {
		return nil, meta, err
	}
	return &out, meta, nil
}

// Lint posts a compile-with-diagnostics request.
func (c *Client) Lint(ctx context.Context, req CompileRequest) (*LintResponse, *Meta, error) {
	var out LintResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/lint", req, &out)
	if err != nil {
		return nil, meta, err
	}
	return &out, meta, nil
}

// Kernels lists the bundled benchmark kernels.
func (c *Client) Kernels(ctx context.Context) (*KernelsResponse, error) {
	var out KernelsResponse
	if _, err := c.do(ctx, http.MethodGet, "/v1/kernels", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes GET /healthz — the gateway's active health checks ride
// on this call. A non-200 comes back as a *StatusError.
func (c *Client) Healthz(ctx context.Context) (*Healthz, error) {
	var out Healthz
	if _, err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Counters scrapes the counter map of the JSON /metrics document
// (Accept: application/json).
func (c *Client) Counters(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, decodeStatusError(resp.StatusCode, body)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Counters, nil
}

// Forward relays a raw request body to path and returns the un-decoded
// response: the proxy path of the gateway, which must preserve backend
// responses byte-for-byte (re-encoding JSON would break the gateway's
// byte-identity guarantee). The Content-Type, Accept and X-Request-Id
// headers are copied from hdr; the caller owns resp.Body.
func (c *Client) Forward(ctx context.Context, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", RequestIDHeader} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return c.hc.Do(req)
}
