package main

// The serve-mix workload: a seeded request mix sent over HTTP, from two
// closed-loop connections, to the shipped irrgw binary fronting two irrd
// subprocesses.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	irregular "repro"
	"repro/internal/api"
	"repro/internal/kernels"
	"repro/internal/progen"
)

const (
	serveConns  = 2  // closed-loop connections (the host has 2 CPUs)
	hotPrograms = 16 // progen programs in the hot set, besides the 8 kernels
	// cacheBytes is each irrd's rescache budget: small enough that the
	// fresh programs of a run overflow it, so evictions are part of the
	// workload and the fleet's memory stops growing with throughput.
	cacheBytes = 32 << 20
)

// The request mix, in percent of requests. A hot compile is a rescache
// hit; a fresh compile misses and fills rescache and the shared memo; a
// lint of a program compiled earlier in the window is a new response key
// that reuses shared-memo verdicts and runs the audit replays; a run of a
// small kernel clones a cached snapshot and interprets it.
const (
	pctHot   = 40
	pctFresh = 25
	pctLint  = 15
	pctRun   = 20
)

type opKind int

const (
	opHot opKind = iota
	opFresh
	opLint
	opRun
)

var opNames = [...]string{"hot-compile", "fresh-compile", "lint", "run"}

// program is one source the mix sends, with its library references.
type program struct {
	name     string
	src      string
	verdicts string // library verdict lines
	lint     string // library lint codes
	target   string // run kernels: Table 3 loop
	ref      *execution

	// first response bodies (request ID masked), set during warm-up
	firstCompile, firstLint, firstRun []byte
	regions                           int
}

// request is one drawn op.
type request struct {
	kind opKind
	prog *program
}

// deferredCheck is a response whose oracle runs after the window (it
// needs a library compile of a program first seen in the window).
type deferredCheck struct {
	kind opKind
	prog *program
	body []byte
}

// mixer draws the seeded request sequence; it is shared by the
// connections.
type mixer struct {
	mu        sync.Mutex
	rng       *rand.Rand
	hot       []*program
	runs      []*program
	fresh     int
	lintQueue []*program // fresh programs compiled, awaiting a lint
}

func (m *mixer) next() request {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.rng.Intn(100)
	switch {
	case p < pctHot:
		return request{opHot, m.hot[m.rng.Intn(len(m.hot))]}
	case p < pctHot+pctFresh:
		m.fresh++
		pc := progen.Config{N: 16 + m.rng.Intn(33), MaxBlocks: 4 + m.rng.Intn(9), Subroutines: m.rng.Intn(3) == 0}
		src := progen.Generate(m.rng, pc)
		return request{opFresh, &program{name: fmt.Sprintf("fresh-%d", m.fresh), src: src}}
	case p < pctHot+pctFresh+pctLint:
		if len(m.lintQueue) > 0 {
			prog := m.lintQueue[0]
			m.lintQueue = m.lintQueue[1:]
			return request{opLint, prog}
		}
		return request{opLint, m.hot[m.rng.Intn(len(m.hot))]}
	default:
		return request{opRun, m.runs[m.rng.Intn(len(m.runs))]}
	}
}

// compiled queues a fresh program for a later lint.
func (m *mixer) compiled(p *program) {
	m.mu.Lock()
	m.lintQueue = append(m.lintQueue, p)
	m.mu.Unlock()
}

// serveWorkload is a running fleet plus the mix and its references.
type serveWorkload struct {
	fl    *fleet
	mix   *mixer
	runs  []*program
	reqID int64
	idMu  sync.Mutex
	simP8 float64 // sim_speedup_p8_geomean of the run kernels
}

func setupServeMix(ctx context.Context, c *config) (workload, error) {
	rng := rand.New(rand.NewSource(c.seed))
	w := &serveWorkload{}
	var hot []*program
	for _, it := range bundledKernels(kernels.Default) {
		hot = append(hot, &program{name: it.name, src: it.src})
	}
	for i := 0; i < hotPrograms; i++ {
		pc := progen.Config{N: 16 + rng.Intn(33), MaxBlocks: 4 + rng.Intn(9), Subroutines: rng.Intn(3) == 0}
		hot = append(hot, &program{name: fmt.Sprintf("hot-%d", i), src: progen.Generate(rng, pc)})
	}
	for _, it := range bundledKernels(kernels.Small) {
		w.runs = append(w.runs, &program{name: it.name, src: it.src, target: it.target})
	}

	// Library references: verdict lines and lint codes of the hot set;
	// verdict lines and the serial reference execution of the run kernels.
	for _, p := range hot {
		if err := libraryReference(ctx, p, true); err != nil {
			return nil, err
		}
	}
	var speedups []float64
	for _, p := range w.runs {
		if err := libraryReference(ctx, p, false); err != nil {
			return nil, err
		}
		ref, err := reference(ctx, p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		p.ref = ref
	}

	fl, err := startFleet(ctx, c.binDir)
	if err != nil {
		return nil, err
	}
	w.fl = fl

	// Warm-up: prime every hot compile, hot lint and run key, checking
	// each first response in full.
	for _, p := range hot {
		for _, kind := range []opKind{opHot, opLint} {
			if _, err := w.warm(ctx, kind, p); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	for _, p := range w.runs {
		rr, err := w.warm(ctx, opRun, p)
		if err != nil {
			w.close()
			return nil, err
		}
		speedups = append(speedups, float64(p.ref.cycles)/float64(rr.Time))
	}
	w.simP8 = geomean(speedups)
	w.mix = &mixer{rng: rand.New(rand.NewSource(c.seed + 1)), hot: hot, runs: w.runs}
	return w, nil
}

// libraryReference compiles p with the library for its verdict lines (and,
// with lint, its lint codes).
func libraryReference(ctx context.Context, p *program, lint bool) error {
	res, err := irregular.CompileContext(ctx, p.src, compileOpts)
	if err != nil {
		return fmt.Errorf("%s: library compile: %w", p.name, err)
	}
	p.verdicts = verdictLines(res.Summary())
	if p.target != "" {
		if err := checkTargetParallel(p.verdicts, p.target); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	if lint {
		diags, err := irregular.LintContext(ctx, p.src, compileOpts)
		if err != nil {
			return fmt.Errorf("%s: library lint: %w", p.name, err)
		}
		p.lint = lintCodes(diags)
	}
	return nil
}

func lintCodes(diags []irregular.Diag) string {
	codes := make([]string, len(diags))
	for i, d := range diags {
		codes[i] = d.Code
	}
	return strings.Join(codes, ",")
}

// warm sends kind for p once and checks the response in full; the body
// becomes the byte-identity reference for later hits.
func (w *serveWorkload) warm(ctx context.Context, kind opKind, p *program) (*api.RunResponse, error) {
	_, body, err := w.send(ctx, kind, p)
	if err == nil {
		err = checkResponse(kind, p, body)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up %s %s: %w", opNames[kind], p.name, err)
	}
	var rr api.RunResponse
	switch kind {
	case opHot:
		p.firstCompile = body
	case opLint:
		p.firstLint = body
	case opRun:
		p.firstRun = body
		if err := json.Unmarshal(body, &rr); err != nil {
			return nil, err
		}
		p.regions = rr.ParallelRegions
	}
	return &rr, nil
}

// checkResponse is the full oracle of one response body: compile and run
// verdict lines equal the library's, run output equal to the serial
// reference within tolerance with the target loop parallel, lint codes
// equal to irregular.Lint's.
func checkResponse(kind opKind, p *program, body []byte) error {
	switch kind {
	case opHot, opFresh:
		var cr api.CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			return err
		}
		return checkVerdicts(p.verdicts, verdictLines(cr.Summary))
	case opLint:
		var lr api.LintResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return err
		}
		if got := lintCodes(lr.Diags); got != p.lint {
			return fmt.Errorf("lint codes %q, library %q", got, p.lint)
		}
		return nil
	default:
		var rr api.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return err
		}
		got := verdictLines(rr.Summary)
		if err := checkVerdicts(p.verdicts, got); err != nil {
			return err
		}
		if err := checkTargetParallel(got, p.target); err != nil {
			return err
		}
		return checkOutput(p.ref.output, rr.Output)
	}
}

// send posts one request through the gateway and returns the cache
// outcome and the body with the echoed request ID masked.
func (w *serveWorkload) send(ctx context.Context, kind opKind, p *program) (string, []byte, error) {
	var path string
	var payload any = api.CompileRequest{Src: p.src}
	switch kind {
	case opHot, opFresh:
		path = "/v1/compile"
	case opLint:
		path = "/v1/lint"
	case opRun:
		path = "/v1/run"
		payload = api.RunRequest{CompileRequest: api.CompileRequest{Src: p.src}, Processors: runProcs}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", nil, err
	}
	w.idMu.Lock()
	w.reqID++
	id := "perfbench-" + strconv.FormatInt(w.reqID, 10)
	w.idMu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.fl.gw+path, bytes.NewReader(data))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, id)
	resp, err := w.fl.hc.Do(req)
	if err != nil {
		return "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.Header.Get(api.CacheHeader), bytes.ReplaceAll(body, []byte(id), []byte("ID")), nil
}

func (w *serveWorkload) speedup() float64 { return w.simP8 }

func (w *serveWorkload) resetPeakRSS() error {
	for _, ch := range w.fl.procs {
		if err := resetPeakRSS(ch.cmd.Process.Pid); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.fl != nil {
		w.fl.stop()
		w.fl = nil
	}
}

// connResult is one connection's share of a window.
type connResult struct {
	win      window
	deferred []deferredCheck
	clientMS float64
	acc      layerSums // traced: loop verdicts and parallel regions of the responses
}

func (w *serveWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	before, err := w.fl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := w.fl.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	results := make([]*connResult, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		cr := &connResult{acc: layerSums{}}
		results[c] = cr
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				w.issue(ctx, conn, cr, tr)
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	win := &window{elapsed: time.Since(start)}
	cpu1, err := w.fl.cpu()
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0
	if win.rssMB, err = w.fl.peakRSS(); err != nil {
		return nil, err
	}
	after, err := w.fl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var clientMS float64
	var deferred []deferredCheck
	loops := layerSums{}
	for _, cr := range results {
		win.merge(&cr.win)
		clientMS += cr.clientMS
		deferred = append(deferred, cr.deferred...)
		for k, v := range cr.acc {
			loops[k] += v
		}
	}
	// The oracle of responses to programs first seen in the window: a
	// library compile (or lint) of each, after the window, on every CPU.
	errs := make([]error, len(deferred))
	next := make(chan int)
	var checkers sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			for i := range next {
				errs[i] = checkDeferred(ctx, deferred[i])
			}
		}()
	}
	for i := range deferred {
		next <- i
	}
	close(next)
	checkers.Wait()
	for i, dc := range deferred {
		if errs[i] != nil {
			win.fail(opNames[dc.kind]+" "+dc.prog.name, errs[i])
		}
		if dc.kind == opFresh {
			countLoops(loops, dc.prog.verdicts)
		}
	}
	if tr != nil {
		win.sums = after.minus(before)
		win.sums["client_ms"] = clientMS
		for k, v := range loops {
			win.sums[k] += v
		}
	}
	return win, nil
}

func (w *serveWorkload) layers(_ context.Context, sums layerSums, ops float64) (map[string]float64, error) {
	return serveLayers(sums, ops), nil
}

// checkDeferred builds the library reference of a fresh compile (verdict
// lines) or a lint (codes) and checks the response against it. A program
// both compiled and linted has its two references in distinct fields, so
// the two checks may run concurrently.
func checkDeferred(ctx context.Context, dc deferredCheck) error {
	if dc.kind == opFresh {
		if err := libraryReference(ctx, dc.prog, false); err != nil {
			return err
		}
	} else {
		diags, err := irregular.LintContext(ctx, dc.prog.src, compileOpts)
		if err != nil {
			return fmt.Errorf("library lint: %w", err)
		}
		dc.prog.lint = lintCodes(diags)
	}
	return checkResponse(dc.kind, dc.prog, dc.body)
}

// countLoops adds one program's verdict listing to acc.
func countLoops(acc layerSums, verdicts string) {
	acc["programs"]++
	for _, line := range strings.Split(verdicts, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			acc["loops"]++
			if f[0] == "PARALLEL" {
				acc["loops_parallel"]++
			}
		}
	}
}

// issue draws, sends and checks one request. Hits and runs are checked in
// the loop by byte identity with the first (fully checked) response;
// fresh compiles and lints are checked after the window.
func (w *serveWorkload) issue(ctx context.Context, conn int, cr *connResult, tr *tracer) {
	rq := w.mix.next()
	t0 := time.Now()
	outcome, body, err := w.send(ctx, rq.kind, rq.prog)
	lat := time.Since(t0)
	if ctx.Err() != nil {
		return
	}
	if err == nil {
		switch rq.kind {
		case opHot:
			err = sameBody(rq.prog.firstCompile, body)
		case opRun:
			err = sameBody(rq.prog.firstRun, body)
		case opLint:
			if rq.prog.firstLint != nil {
				err = sameBody(rq.prog.firstLint, body)
			} else {
				cr.deferred = append(cr.deferred, deferredCheck{opLint, rq.prog, body})
			}
		case opFresh:
			cr.deferred = append(cr.deferred, deferredCheck{opFresh, rq.prog, body})
			w.mix.compiled(rq.prog)
		}
	}
	cr.win.record(lat, err, opNames[rq.kind]+" "+rq.prog.name)
	cr.clientMS += ms(lat)
	if tr != nil {
		tr.add(conn, opNames[rq.kind], t0, lat, map[string]any{"program": rq.prog.name, "cache": outcome})
		switch rq.kind {
		case opHot:
			countLoops(cr.acc, rq.prog.verdicts)
		case opRun:
			countLoops(cr.acc, rq.prog.verdicts)
			cr.acc["parallel_regions"] += float64(rq.prog.regions)
		}
	}
}

// sameBody requires a repeated response to be byte-identical to the first.
func sameBody(first, got []byte) error {
	if !bytes.Equal(first, got) {
		return errors.New("response body differs from the first response")
	}
	return nil
}

// fleet is the running irrgw + irrd processes.
type fleet struct {
	procs []*child
	gw    string   // gateway base URL
	irrd  []string // backend base URLs
	hc    *http.Client
}

// child is one spawned process.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// startFleet spawns 2 irrd and an irrgw over them on free localhost ports
// and waits until the gateway sees every backend healthy.
func startFleet(ctx context.Context, binDir string) (*fleet, error) {
	fl := &fleet{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	var ports []int
	for i := 0; i < 3; i++ {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports = append(ports, p)
	}
	for _, p := range ports[:2] {
		url := fmt.Sprintf("http://127.0.0.1:%d", p)
		ch, err := spawn(filepath.Join(binDir, "irrd"), "-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-cache-bytes", strconv.Itoa(cacheBytes))
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.procs = append(fl.procs, ch)
		fl.irrd = append(fl.irrd, url)
	}
	ch, err := spawn(filepath.Join(binDir, "irrgw"), "-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-backends", strings.Join(fl.irrd, ","))
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.procs = append(fl.procs, ch)
	fl.gw = fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	if err := fl.waitHealthy(ctx); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts a service binary at GOMAXPROCS = nproc, its output
// discarded; it is killed if this process dies first.
func spawn(path string, args ...string) (*child, error) {
	cmd := exec.Command(path, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(path), err)
	}
	ch := &child{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped service is not a result
		close(ch.exited)
	}()
	return ch, nil
}

// stop sends SIGTERM (the services drain gracefully), escalating to
// SIGKILL after 10s, and waits for the process to end.
func (ch *child) stop() {
	select {
	case <-ch.exited:
		return
	default:
	}
	ch.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited meanwhile
	select {
	case <-ch.exited:
	case <-time.After(10 * time.Second):
		ch.cmd.Process.Kill() //nolint:errcheck // as above
		<-ch.exited
	}
}

func (fl *fleet) stop() {
	for i := len(fl.procs) - 1; i >= 0; i-- {
		fl.procs[i].stop()
	}
	fl.hc.CloseIdleConnections()
}

// waitHealthy polls every backend's and the gateway's /healthz until all
// report ok, failing if a process exits or 30s pass.
func (fl *fleet) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, ch := range fl.procs {
			select {
			case <-ch.exited:
				return fmt.Errorf("%s exited during start-up", filepath.Base(ch.cmd.Path))
			default:
			}
		}
		if fl.healthy(ctx) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("fleet not healthy after 30s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (fl *fleet) healthy(ctx context.Context) bool {
	for _, base := range fl.irrd {
		var h api.Healthz
		if fl.getJSON(ctx, base+"/healthz", &h) != nil || h.Status != "ok" {
			return false
		}
	}
	var g api.GatewayHealthz
	return fl.getJSON(ctx, fl.gw+"/healthz", &g) == nil && g.Status == "ok" && g.Live == len(fl.irrd)
}

func (fl *fleet) getJSON(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := fl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// cpu sums the user+system CPU of every fleet process.
func (fl *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, ch := range fl.procs {
		d, err := pidCPU(ch.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSS sums the peak RSS of every fleet process.
func (fl *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, ch := range fl.procs {
		mb, err := pidPeakRSSMB(ch.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// scrape reads the fleet's /metrics JSON (irrd-metrics/2 and the
// gateway's document) and sums it over the processes: counter c as "c:"+c,
// histogram h's count as "n:"+h and its sum in ms as "ms:"+h.
func (fl *fleet) scrape(ctx context.Context) (layerSums, error) {
	t := layerSums{}
	for _, base := range append(append([]string(nil), fl.irrd...), fl.gw) {
		var doc struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms []struct {
				Name  string `json:"name"`
				Count int64  `json:"count"`
				SumNs int64  `json:"sum_ns"`
			} `json:"histograms"`
		}
		if err := fl.getJSON(ctx, base+"/metrics", &doc); err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
		for k, v := range doc.Counters {
			t["c:"+k] += float64(v)
		}
		for _, h := range doc.Histograms {
			t["n:"+h.Name] += float64(h.Count)
			t["ms:"+h.Name] += float64(h.SumNs) / 1e6
		}
	}
	return t, nil
}

// minus returns the change from b to s.
func (s layerSums) minus(b layerSums) layerSums {
	d := layerSums{}
	for k, v := range s {
		d[k] = v - b[k]
	}
	return d
}

// sumPrefix sums the histogram sums (ms) or counts whose name starts with
// prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// serveLayers derives the per-layer metrics of serve-mix's traced slices
// from their sums: the fleet's telemetry deltas (see scrape), the client's
// own latency sum (client_ms) and the loop verdicts and parallel regions
// of the responses.
func serveLayers(s layerSums, ops float64) map[string]float64 {
	msOf := func(name string) float64 { return s["ms:"+name] }
	nOf := func(name string) float64 { return s["n:"+name] }
	c := func(name string) float64 { return s["c:"+name] }
	handler := func(ep string) string { return "irrd_request_duration:endpoint=" + ep }
	phase := func(name string) float64 { return msOf("phase.duration:phase=" + name) }
	handlerMS := msOf(handler("compile")) + msOf(handler("lint")) + msOf(handler("run"))
	routeMS := sumPrefix(s, "ms:irrgw_route_duration:")
	upstreamMS := sumPrefix(s, "ms:irrgw_upstream_duration:")
	propertyMS := sumPrefix(s, "ms:query.duration:")
	passesMS := phase("inline") + phase("ipcp") + phase("interchange") + phase("reduction") +
		sumPrefix(s, "ms:phase.duration:phase=scalar-")
	clientMS := s["client_ms"]
	m := map[string]float64{
		"lang.parse_ms":             phase("parse") / ops,
		"sem.check_ms":              phase("sem") / ops,
		"passes.ms":                 passesMS / ops,
		"passes.scalar_rounds":      ratio(sumPrefix(s, "n:phase.duration:phase=scalar-"), nOf("phase.duration:phase=parse")),
		"cfg.hcg_ms":                phase("hcg") / ops,
		"property.ms":               propertyMS / ops,
		"property.share":            ratio(propertyMS, msOf("compile.duration")),
		"property.queries":          c("property.queries") / ops,
		"property.nodes_visited":    c("property.nodes_visited") / ops,
		"property.cache_hit_ratio":  ratio(c("property.cache_hits"), c("property.cache_hits")+c("property.cache_misses")),
		"property.shared_hit_ratio": ratio(c("property.shared_hits"), c("property.shared_hits")+c("property.shared_misses")),
		"parallel.self_ms":          (phase("parallelize") - propertyMS) / ops,
		"parallel.loops_parallel":   ratio(s["loops_parallel"], s["programs"]),
		"parallel.parallel_ratio":   ratio(s["loops_parallel"], s["loops"]),
		"expr.intern_hit_ratio":     ratio(c("expr.intern.hits"), c("expr.intern.hits")+c("expr.intern.misses")),
		"lint.ms":                   phase("lint") / ops,
		// The run handler's time: its compile half is a rescache hit, so
		// this bounds the interpreter's share from above.
		"interp.ms":                msOf(handler("run")) / ops,
		"irrd.handler_ms.compile":  ratio(msOf(handler("compile")), nOf(handler("compile"))),
		"irrd.handler_ms.lint":     ratio(msOf(handler("lint")), nOf(handler("lint"))),
		"irrd.handler_ms.run":      ratio(msOf(handler("run")), nOf(handler("run"))),
		"irrd.compile_ms":          ratio(msOf("compile.duration"), nOf("compile.duration")),
		"irrd.rejected":            c("irrd_rejected_capacity_total"),
		"rescache.hit_ratio":       ratio(c("rescache_hits_total"), c("rescache_hits_total")+c("rescache_misses_total")+c("rescache_coalesced_total")),
		"rescache.coalesced":       c("rescache_coalesced_total"),
		"rescache.evictions":       c("rescache_evictions_total"),
		"irrgw.self_ms":            (routeMS - upstreamMS) / ops,
		"irrgw.hop_ms":             (upstreamMS - handlerMS) / ops,
		"irrgw.retries":            c("irrgw_retries_total"),
		"client.overhead_ms":       (clientMS - routeMS) / ops,
		"op.mean_ms":               clientMS / ops,
		"machine.parallel_regions": s["parallel_regions"] / ops,
	}
	m["op.unattributed_ms"] = m["op.mean_ms"] - attributed(m)
	return m
}
