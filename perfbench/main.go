// Command perfbench is the repository's benchmark: one command that runs a
// seeded workload against the compiler, its simulated execution or its
// HTTP service, checks every answer against an oracle that shares no code
// with the analysis, and prints the end-to-end metrics (or, traced, the
// per-layer metrics) by name with their units. The last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds the binaries
// first and runs this):
//
//	perfbench --workload compile-corpus|run-kernels|serve-mix --seed N
//	          --seconds S --trace 0|1
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one prepared workload: its inputs and references are built,
// and measure can run closed-loop windows against it.
type workload interface {
	// measure runs the closed loop for d. With tr non-nil it also records
	// spans and fills window.sums.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	// layers turns the sums of traced windows over ops ops into the
	// per-layer metrics.
	layers(ctx context.Context, sums layerSums, ops float64) (map[string]float64, error)
	// speedup is sim_speedup_p8_geomean over the programs the workload
	// executed.
	speedup() float64
	// resetPeakRSS starts a new peak-RSS period for every process doing
	// the work.
	resetPeakRSS() error
	// close stops everything the workload started and waits for it.
	close()
}

// workloadDef names a workload and how to prepare it from a seed.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, c *config) (workload, error)
}

var workloads = []workloadDef{
	{"compile-corpus", "one caller compiles the 8 kernels and 384 progen programs (1 in 8 seed-drawn) cold: every compile layer runs, the interpreter never does", setupCompileCorpus},
	{"run-kernels", "one caller compiles and runs the 8 kernels at P=8: execution dominates, so interpreter and machine changes show here and compile-only ones barely do", setupRunKernels},
	{"serve-mix", "2 connections send a seeded hit/miss/lint/run mix to irrgw over 2 irrd: the only workload reaching api, server, rescache, shared memo, lint and gateway", setupServeMix},
}

// slices is the number of equal parts each window is measured in.
const slices = 20

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 3

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: source digest
	binDir   string // irrd and irrgw binaries
	outDir   string // trace file
}

// window is the outcome of one measured closed-loop window.
type window struct {
	elapsed   time.Duration
	latMS     []float64 // every attempted op, failed ones included
	attempted int
	failed    int
	errs      []string
	cpu       time.Duration // CPU of every process doing the work
	rssMB     float64       // peak RSS of those processes
	sums      layerSums     // traced: per-layer sums
}

// record adds one op's latency and outcome.
func (w *window) record(lat time.Duration, err error, what string) {
	w.attempted++
	w.latMS = append(w.latMS, ms(lat))
	if err != nil {
		w.fail(what, err)
	}
}

// fail counts one failed op, keeping the first few reasons.
func (w *window) fail(what string, err error) {
	w.failed++
	if len(w.errs) < 8 {
		w.errs = append(w.errs, what+": "+err.Error())
	}
}

// merge folds o (another connection's share of the same window, or a later
// slice) into w. It leaves elapsed, cpu and rssMB to the caller.
func (w *window) merge(o *window) {
	w.latMS = append(w.latMS, o.latMS...)
	w.attempted += o.attempted
	w.failed += o.failed
	for _, e := range o.errs {
		if len(w.errs) < 8 {
			w.errs = append(w.errs, e)
		}
	}
	if o.sums != nil && w.sums == nil {
		w.sums = layerSums{}
	}
	for k, v := range o.sums {
		w.sums[k] += v
	}
}

func (w *window) throughput() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

func main() {
	if reps := os.Getenv(calEnv); reps != "" {
		os.Exit(calibrationChild(reps, os.Stdout))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == c.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", c.workload)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := measureWorkload(ctx, c, def)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "perfbench: failed op: %s\n", e)
	}
	if err := printResult(stdout, c, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	var trace int
	fs.StringVar(&c.workload, "workload", "", "compile-corpus, run-kernels or serve-mix")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of one measured window")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics of a traced run")
	fs.StringVar(&c.root, "root", ".", "repository root")
	fs.StringVar(&c.binDir, "bin", ".bench_build/bin", "directory holding the irrd and irrgw binaries")
	fs.StringVar(&c.outDir, "out", ".bench_build", "directory the trace file is written to")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return nil, errors.New("bad arguments")
	}
	c.trace = trace == 1
	return c, nil
}

// result is everything one invocation reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	errs      []string
	facts     map[string]any
}

// measureWorkload prepares the workload setupReps times (timing each; the
// last preparation is measured), then measures one untraced window and,
// in trace mode, one traced window after it, both as slices. The
// calibration kernel runs before the first set-up and after every set-up
// and every slice; each timing metric is scaled to the reference host
// speed by the calibrations on either side of the set-up or slice it was
// measured in.
func measureWorkload(ctx context.Context, c *config, def *workloadDef) (*result, error) {
	cal, err := calibrate()
	if err != nil {
		return nil, err
	}
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		t0 := time.Now()
		w, err = def.setup(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		dt := time.Since(t0).Seconds()
		next, err := calibrate()
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, dt)
		setups = append(setups, dt*hostScale(cal, next))
		cal = next
	}

	d := time.Duration(c.seconds * float64(time.Second))
	plain, err := measureSlices(ctx, w, d, nil, &cal)
	if err != nil {
		return nil, err
	}
	lat := plain.lat
	rawLat := append([]float64(nil), plain.win.latMS...)
	sort.Float64s(rawLat)
	p90 := quantile(lat, 0.9)
	res := &result{
		attempted: plain.win.attempted,
		failed:    plain.win.failed,
		errs:      plain.win.errs,
		metrics: map[string]float64{
			"throughput_ops_s":       median(plain.tput),
			"latency_p50_ms":         quantile(lat, 0.5),
			"latency_p90_ms":         p90,
			"cpu_ms_per_op":          median(plain.cpu),
			"peak_rss_mb":            median(plain.rss),
			"setup_s":                median(setups),
			"sim_speedup_p8_geomean": w.speedup(),
		},
		facts: map[string]any{
			"workload":          def.name,
			"why":               def.why,
			"seed":              c.seed,
			"gomaxprocs":        runtime.GOMAXPROCS(0),
			"nproc":             runtime.NumCPU(),
			"go":                runtime.Version(),
			"commit":            commit(),
			"source_digest":     sourceDigest(c.root),
			"window_s":          plain.win.elapsed.Seconds(),
			"slices":            slices,
			"slice_throughputs": plain.tput,
			"ops":               plain.win.attempted,
			"latency_samples":   len(lat),
			"beyond_p90":        len(lat) - sort.SearchFloat64s(lat, math.Nextafter(p90, math.Inf(1))),
			"setup_s_each":      setups,
			"host_scales":       plain.scales,
			"unscaled": map[string]float64{
				"throughput_ops_s": median(plain.rawTput),
				"latency_p50_ms":   quantile(rawLat, 0.5),
				"latency_p90_ms":   quantile(rawLat, 0.9),
				"cpu_ms_per_op":    median(plain.rawCPU),
				"setup_s":          median(rawSetups),
			},
			"failed_ratio": float64(plain.win.failed) / float64(plain.win.attempted),
		},
	}
	if !c.trace {
		return res, nil
	}

	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, err := measureSlices(ctx, w, d, tr, &cal)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	ops := float64(traced.win.attempted)
	layers, err := w.layers(ctx, traced.win.sums, ops)
	if err != nil {
		return nil, err
	}
	layers["runtime.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops
	layers["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	layers["runtime.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
	layers["trace.overhead_ratio"] = median(traced.tput) / median(plain.tput)
	res.metrics = map[string]float64{}
	for _, m := range perLayer {
		res.metrics[m.Name] = layers[m.Name] // absent: the workload never reaches the layer
	}
	res.attempted += traced.win.attempted
	res.failed += traced.win.failed
	res.errs = append(res.errs, traced.win.errs...)
	res.facts["traced_ops"] = traced.win.attempted
	res.facts["traced_window_s"] = traced.win.elapsed.Seconds()
	path := filepath.Join(c.outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", def.name, c.seed))
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path, res.facts); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.facts["trace_file"] = path
	return res, nil
}

// slicedWindow is a window measured as slices, each scaled to the
// reference host speed by the calibrations on either side of it.
type slicedWindow struct {
	win             *window   // every slice merged; latMS unscaled
	lat             []float64 // every op's latency, scaled, sorted
	tput, cpu, rss  []float64 // per slice: scaled throughput and CPU per op, peak RSS
	scales          []float64 // per slice: host scale
	rawTput, rawCPU []float64 // per slice, unscaled
}

// measureSlices measures a window of length d as equal slices, calibrating
// after each; *cal holds the calibration before the first slice on entry
// and after the last on return. Throughput and CPU per op are reported per
// slice, so their medians move less with a few seconds of a slowed host
// than whole-window figures would.
func measureSlices(ctx context.Context, w workload, d time.Duration, tr *tracer, cal *[]float64) (*slicedWindow, error) {
	sw := &slicedWindow{win: &window{}}
	for i := 0; i < slices; i++ {
		// Each slice has its own peak-RSS period, so neither the set-ups'
		// peaks nor one collection that happened to run late set the
		// metric: it is the median of the slices' peaks.
		if err := w.resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting peak RSS: %w", err)
		}
		s, err := w.measure(ctx, d/slices, tr)
		if err != nil {
			return nil, err
		}
		next, err := calibrate()
		if err != nil {
			return nil, err
		}
		sc := hostScale(*cal, next)
		*cal = next
		cpuPerOp := ms(s.cpu) / float64(s.attempted)
		sw.scales = append(sw.scales, sc)
		sw.rawTput = append(sw.rawTput, s.throughput())
		sw.rawCPU = append(sw.rawCPU, cpuPerOp)
		sw.tput = append(sw.tput, s.throughput()/sc)
		sw.cpu = append(sw.cpu, cpuPerOp*sc)
		sw.rss = append(sw.rss, s.rssMB)
		for _, l := range s.latMS {
			sw.lat = append(sw.lat, l*sc)
		}
		sw.win.merge(s)
		sw.win.elapsed += s.elapsed
	}
	sort.Float64s(sw.lat)
	return sw, nil
}

// printResult prints the facts, a table of the metrics with their units,
// and, last, the one-line JSON result.
func printResult(w io.Writer, c *config, res *result) error {
	facts, err := json.Marshal(res.facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "facts %s\n", facts)
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "failed_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (dot
// directories skipped), identifying the measured code when no VCS
// revision is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
