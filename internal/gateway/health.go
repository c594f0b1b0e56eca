package gateway

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/api"
)

// Active health checking: one loop per backend probes GET /healthz every
// ProbeInterval. FailThreshold consecutive probe failures eject the
// backend from routing (irrgw_ejections_total, irrgw_backend_up → 0);
// PassThreshold consecutive successes readmit it
// (irrgw_readmissions_total, irrgw_backend_up → 1). Request outcomes
// also feed the same counters — a connect failure during proxying counts
// like a failed probe, so a dead backend is usually ejected before the
// next probe tick fires.

func (g *Gateway) healthLoop(b *backend) {
	defer g.wg.Done()
	// Desynchronize the fleet's probes so M backends aren't all probed in
	// the same instant.
	jitter := time.Duration(rand.Int64N(int64(g.cfg.ProbeInterval)))
	select {
	case <-g.stop:
		return
	case <-time.After(jitter):
	}
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		g.probe(b)
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
	}
}

// probe runs one health check and feeds the verdict into the
// ejection/readmission state machine.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	ok := g.healthy(ctx, b)
	g.rec.Count("irrgw_probes_total:backend="+b.name, 1)
	if !ok {
		g.noteFailure(b)
		return
	}
	g.noteSuccess(b)
}

// healthy reports whether b's GET /healthz answers 200 with a body whose
// status is "ok". The body is read to the end so the connection returns
// to the pool.
func (g *Gateway) healthy(ctx context.Context, b *backend) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	var h api.Healthz
	return err == nil && resp.StatusCode == http.StatusOK &&
		json.Unmarshal(data, &h) == nil && h.Status == "ok"
}

// noteFailure records one failed probe (or failed proxied request) and
// ejects the backend once FailThreshold is reached.
func (g *Gateway) noteFailure(b *backend) {
	fails := b.consecFail.Add(1)
	b.consecPass.Store(0)
	if fails >= int64(g.cfg.FailThreshold) && b.up.Swap(false) {
		g.rec.Count("irrgw_ejections_total", 1)
		g.rec.Count("irrgw_backend_up:backend="+b.name, -1)
		g.log.LogAttrs(context.Background(), slog.LevelWarn, "backend ejected",
			slog.String("backend", b.name), slog.Int64("consecutive_failures", fails))
	}
}

// noteSuccess records one healthy probe and readmits an ejected backend
// once PassThreshold is reached.
func (g *Gateway) noteSuccess(b *backend) {
	b.consecFail.Store(0)
	passes := b.consecPass.Add(1)
	if passes >= int64(g.cfg.PassThreshold) && !b.up.Swap(true) {
		g.rec.Count("irrgw_readmissions_total", 1)
		g.rec.Count("irrgw_backend_up:backend="+b.name, 1)
		g.log.LogAttrs(context.Background(), slog.LevelInfo, "backend readmitted",
			slog.String("backend", b.name), slog.Int64("consecutive_passes", passes))
	}
}
