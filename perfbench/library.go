package main

// The two library workloads: compile-corpus and run-kernels. Both drive the
// public irregular API from one caller in a closed loop.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strings"
	"time"

	irregular "repro"
	"repro/internal/kernels"
	"repro/internal/progen"
)

// corpusPrograms is the size of compile-corpus's progen draw. Its sizes
// sit on a fixed grid over N 32–96 and MaxBlocks 6–40 (a third with a
// subroutine). One program in seededEvery has its contents drawn from the
// seed; the others come from corpusBaseSeed. Compile time per program is
// heavy-tailed, so a wholly seeded draw moved the corpus's throughput by
// 18% between the quartiles of 5 seeds; with the fixed base, seeds still
// change the inputs but barely the total work.
const (
	corpusPrograms = 384
	seededEvery    = 8
	corpusBaseSeed = 1
)

// runProcs is the simulated processor count of every measured execution.
const runProcs = 8

// libItem is one program of a library workload.
type libItem struct {
	name     string
	src      string
	verdicts string     // verdict lines of the setup compile
	target   string     // a kernel's Table 3 loop ("" for progen programs)
	ref      *execution // run-kernels: serial run of the untransformed program
	cycles   uint64     // run-kernels: simulated P=8 cycles of the setup run
}

// libWorkload is compile-corpus (run false) or run-kernels (run true).
type libWorkload struct {
	run      bool
	items    []*libItem
	order    *rand.Rand // seeded op order
	round    []int      // the current round: a seeded permutation of items
	next     int        // the position in round of the next op
	speedups []float64  // per program: serial reference cycles / compiled P=8 cycles
}

// compileOpts are the options of every library compile: Full mode,
// telemetry off, no shared cache.
var compileOpts = irregular.Options{Mode: irregular.Full}

// bundledKernels returns the eight bundled kernels at size as workload
// items.
func bundledKernels(size kernels.Size) []*libItem {
	var items []*libItem
	for _, k := range kernels.All(size) {
		items = append(items, &libItem{name: k.Name, src: k.Source, target: k.TargetLoop})
	}
	return items
}

// setupCompileCorpus builds the 8 kernels plus a seeded progen draw, and
// proves each progen program right with one differential run: compiled at
// P=8 against the untransformed program run serially.
func setupCompileCorpus(ctx context.Context, c *config) (workload, error) {
	seeded, base := rand.New(rand.NewSource(c.seed)), rand.New(rand.NewSource(corpusBaseSeed))
	w := &libWorkload{items: bundledKernels(kernels.Default), order: rand.New(rand.NewSource(c.seed + 1))}
	for i := 0; i < corpusPrograms; i++ {
		pc := progen.Config{N: 32 + i*37%65, MaxBlocks: 6 + i*11%35, Subroutines: i%3 == 0}
		rng := base
		if i%seededEvery == 0 {
			rng = seeded
		}
		w.items = append(w.items, &libItem{
			name: fmt.Sprintf("progen-%d-n%d-b%d", i, pc.N, pc.MaxBlocks),
			src:  progen.Generate(rng, pc),
		})
	}
	for _, it := range w.items {
		res, err := w.referenceCompile(ctx, it)
		if err != nil {
			return nil, err
		}
		if it.target != "" {
			continue
		}
		ref, err := reference(ctx, it.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		got, err := execute(ctx, res.Info, runProcs)
		if err != nil {
			return nil, fmt.Errorf("%s: compiled run: %w", it.name, err)
		}
		if err := checkSameMemory(ref, got); err != nil {
			return nil, fmt.Errorf("%s: differential run: %w", it.name, err)
		}
		w.speedups = append(w.speedups, float64(ref.cycles)/float64(got.cycles))
	}
	return w, nil
}

// setupRunKernels runs every kernel's untransformed program serially for
// the reference output and cycles, then compiles and runs each once
// (warm-up) and checks it.
func setupRunKernels(ctx context.Context, c *config) (workload, error) {
	w := &libWorkload{run: true, items: bundledKernels(kernels.Default), order: rand.New(rand.NewSource(c.seed))}
	for _, it := range w.items {
		ref, err := reference(ctx, it.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		it.ref = ref
		res, err := w.referenceCompile(ctx, it)
		if err != nil {
			return nil, err
		}
		var out strings.Builder
		rr, err := res.RunContext(ctx, irregular.RunOptions{Processors: runProcs, Profile: irregular.Origin2000, Out: &out})
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", it.name, err)
		}
		if err := checkOutput(ref.output, out.String()); err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		it.cycles = rr.Time
		w.speedups = append(w.speedups, float64(ref.cycles)/float64(rr.Time))
	}
	return w, nil
}

// referenceCompile compiles it once, records its verdict lines and checks
// a kernel's target loop is parallel.
func (w *libWorkload) referenceCompile(ctx context.Context, it *libItem) (*irregular.Result, error) {
	res, err := irregular.CompileContext(ctx, it.src, compileOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", it.name, err)
	}
	it.verdicts = verdictLines(res.Summary())
	if it.target != "" {
		if err := checkTargetParallel(it.verdicts, it.target); err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
	}
	return res, nil
}

func (w *libWorkload) speedup() float64 { return geomean(w.speedups) }

// resetPeakRSS first returns the heap's free pages to the OS, so that the
// new period's peak is set by the work done in it.
func (w *libWorkload) resetPeakRSS() error {
	debug.FreeOSMemory()
	return resetPeakRSS(os.Getpid())
}

func (w *libWorkload) close() {}

// check is the per-op oracle: verdict lines identical to the setup
// compile's, and for runs the PRINT output within tolerance of the serial
// reference and the simulated cycles identical to the setup run's.
func (w *libWorkload) check(it *libItem, res *irregular.Result, rr *irregular.RunResult, out string) error {
	if err := checkVerdicts(it.verdicts, verdictLines(res.Summary())); err != nil {
		return err
	}
	if !w.run {
		return nil
	}
	if err := checkOutput(it.ref.output, out); err != nil {
		return err
	}
	if rr.Time != it.cycles {
		return fmt.Errorf("simulated time %d cycles, setup run took %d", rr.Time, it.cycles)
	}
	return nil
}

// measure runs ops until d has passed, taking the items in rounds (each a
// seeded permutation of the items) that carry on from one call to the
// next. With tr set it also records spans and per-layer sums.
func (w *libWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	acc := layerSums{}
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w.next == len(w.round) {
			w.round, w.next = w.order.Perm(len(w.items)), 0
		}
		it := w.items[w.round[w.next]]
		w.next++
		var out strings.Builder
		var rr *irregular.RunResult
		t0 := time.Now()
		res, err := irregular.CompileContext(ctx, it.src, compileOpts)
		t1 := time.Now()
		if err == nil && w.run {
			rr, err = res.RunContext(ctx, irregular.RunOptions{Processors: runProcs, Profile: irregular.Origin2000, Out: &out})
		}
		t2 := time.Now()
		if err == nil {
			err = w.check(it, res, rr, out.String())
		}
		win.record(t2.Sub(t0), err, it.name)
		if tr != nil && res != nil {
			traceLibOp(tr, acc, it.name, res, rr, t0, t1, t2)
		}
	}
	win.elapsed = time.Since(start)
	win.cpu = selfCPU() - cpu0
	rss, err := pidPeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	win.rssMB = rss
	if tr != nil {
		win.sums = acc
	}
	return win, nil
}

func (w *libWorkload) layers(ctx context.Context, sums layerSums, ops float64) (map[string]float64, error) {
	m := libLayers(sums, ops)
	if w.run {
		mc, err := w.interpRate(ctx)
		if err != nil {
			return nil, err
		}
		m["interp.mcycles_per_s"] = mc
	}
	return m, nil
}

// interpRate runs each kernel once at P=1, where simulated cycles equal
// the work the interpreter executed, and returns simulated Mcycles per
// wall second.
func (w *libWorkload) interpRate(ctx context.Context) (float64, error) {
	var cycles uint64
	var wall time.Duration
	for _, it := range w.items {
		res, err := irregular.CompileContext(ctx, it.src, compileOpts)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rr, err := res.RunContext(ctx, irregular.RunOptions{Processors: 1, Profile: irregular.Origin2000})
		if err != nil {
			return 0, err
		}
		wall += time.Since(t0)
		cycles += rr.Time
	}
	return float64(cycles) / 1e6 / wall.Seconds(), nil
}

// layerSums accumulates per-layer totals over a traced window.
type layerSums map[string]float64

// phaseLayer maps a pipeline phase to its layer.
func phaseLayer(phase string) string {
	switch {
	case phase == "parse":
		return "lang.parse"
	case phase == "sem":
		return "sem.check"
	case phase == "hcg":
		return "cfg.hcg"
	case phase == "parallelize", phase == "lint":
		return phase
	default: // inline, ipcp, scalar-N, interchange, reduction
		return "passes"
	}
}

// traceLibOp records one library op as a span tree: the op, its compile
// and run calls, and under the compile the phases of Result.Phases laid
// end to end, with the property analysis (Result.PropertyTime) as a child
// of parallelize. It also adds the op's layer times and counters to acc.
func traceLibOp(tr *tracer, acc layerSums, name string, res *irregular.Result, rr *irregular.RunResult, t0, t1, t2 time.Time) {
	tr.add(0, "op", t0, t2.Sub(t0), map[string]any{"program": name})
	tr.add(0, "compile", t0, t1.Sub(t0), nil)
	at := t0
	for _, ph := range res.Phases {
		tr.add(0, ph.Name, at, ph.Duration, nil)
		layer := phaseLayer(ph.Name)
		if ph.Name == "parallelize" {
			tr.add(0, "property", at, res.PropertyTime, nil)
			acc["property"] += ms(res.PropertyTime)
			acc["parallel.self"] += ms(ph.Duration - res.PropertyTime)
		} else {
			acc[layer] += ms(ph.Duration)
		}
		if strings.HasPrefix(ph.Name, "scalar-") {
			acc["scalar_rounds"]++
		}
		at = at.Add(ph.Duration)
	}
	if rr != nil {
		tr.add(0, "run", t1, t2.Sub(t1), map[string]any{"cycles": rr.Time})
		acc["interp"] += ms(t2.Sub(t1))
		acc["parallel_regions"] += float64(rr.ParallelRegions)
	}
	acc["op"] += ms(t2.Sub(t0))
	acc["compile_wall"] += ms(t1.Sub(t0))
	acc["compile_time"] += ms(res.CompileTime)
	st := res.PropertyStats
	acc["queries"] += float64(st.Queries)
	acc["nodes_visited"] += float64(st.NodesVisited)
	acc["cache_hits"] += float64(st.CacheHits)
	acc["cache_lookups"] += float64(st.CacheHits + st.CacheMisses)
	acc["shared_hits"] += float64(st.SharedHits)
	acc["shared_lookups"] += float64(st.SharedHits + st.SharedMisses)
	acc["intern_hits"] += float64(res.InternStats.Hits)
	acc["intern_lookups"] += float64(res.InternStats.Hits + res.InternStats.Misses)
	acc["loops"] += float64(len(res.Reports))
	acc["loops_parallel"] += float64(len(res.ParallelLoops()))
}

// libLayers turns a library window's sums into the per-layer metrics.
func libLayers(acc layerSums, ops float64) map[string]float64 {
	m := map[string]float64{
		"lang.parse_ms":             acc["lang.parse"] / ops,
		"sem.check_ms":              acc["sem.check"] / ops,
		"passes.ms":                 acc["passes"] / ops,
		"passes.scalar_rounds":      acc["scalar_rounds"] / ops,
		"cfg.hcg_ms":                acc["cfg.hcg"] / ops,
		"property.ms":               acc["property"] / ops,
		"property.share":            ratio(acc["property"], acc["compile_time"]),
		"property.queries":          acc["queries"] / ops,
		"property.nodes_visited":    acc["nodes_visited"] / ops,
		"property.cache_hit_ratio":  ratio(acc["cache_hits"], acc["cache_lookups"]),
		"property.shared_hit_ratio": ratio(acc["shared_hits"], acc["shared_lookups"]),
		"parallel.self_ms":          acc["parallel.self"] / ops,
		"parallel.loops_parallel":   acc["loops_parallel"] / ops,
		"parallel.parallel_ratio":   ratio(acc["loops_parallel"], acc["loops"]),
		"expr.intern_hit_ratio":     ratio(acc["intern_hits"], acc["intern_lookups"]),
		"lint.ms":                   acc["lint"] / ops,
		"interp.ms":                 acc["interp"] / ops,
		"machine.parallel_regions":  acc["parallel_regions"] / ops,
		"op.mean_ms":                acc["op"] / ops,
	}
	if acc["interp"] > 0 {
		m["run.compile_share"] = ratio(acc["compile_wall"], acc["op"])
	}
	m["op.unattributed_ms"] = m["op.mean_ms"] - attributed(m)
	return m
}

// attributedLayers are the self times that partition an op's latency; what
// they leave over is reported as op.unattributed_ms.
var attributedLayers = []string{
	"client.overhead_ms", "irrgw.self_ms", "irrgw.hop_ms",
	"lang.parse_ms", "sem.check_ms", "passes.ms", "cfg.hcg_ms",
	"property.ms", "parallel.self_ms", "lint.ms", "interp.ms",
}

func attributed(m map[string]float64) float64 {
	var sum float64
	for _, name := range attributedLayers {
		sum += m[name]
	}
	return sum
}
