package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the benchmark's
// schema: BENCHMARK.json at the repository root lists the same names, units
// and directions (TestMetricNamesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the compiler or the service sees,
// printed by every untraced run.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_speedup_p8_geomean", "x", "higher"},
}

// perLayer are the metrics of single layers, printed by every traced run.
// Times are means per operation unless the README says otherwise; a layer a
// workload never reaches reads 0 there.
var perLayer = []metricDef{
	{"lang.parse_ms", "ms", "lower"},
	{"sem.check_ms", "ms", "lower"},
	{"passes.ms", "ms", "lower"},
	{"passes.scalar_rounds", "count", "lower"},
	{"cfg.hcg_ms", "ms", "lower"},
	{"property.ms", "ms", "lower"},
	{"property.share", "ratio", "lower"},
	{"property.queries", "count", "lower"},
	{"property.nodes_visited", "count", "lower"},
	{"property.cache_hit_ratio", "ratio", "higher"},
	{"property.shared_hit_ratio", "ratio", "higher"},
	{"parallel.self_ms", "ms", "lower"},
	{"parallel.loops_parallel", "count", "higher"},
	{"parallel.parallel_ratio", "ratio", "higher"},
	{"expr.intern_hit_ratio", "ratio", "higher"},
	{"lint.ms", "ms", "lower"},
	{"interp.ms", "ms", "lower"},
	{"interp.mcycles_per_s", "Mcycles/s", "higher"},
	{"machine.parallel_regions", "count", "higher"},
	{"run.compile_share", "ratio", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"irrd.handler_ms.compile", "ms", "lower"},
	{"irrd.handler_ms.lint", "ms", "lower"},
	{"irrd.handler_ms.run", "ms", "lower"},
	{"irrd.compile_ms", "ms", "lower"},
	{"irrd.rejected", "count", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.coalesced", "count", "higher"},
	{"rescache.evictions", "count", "lower"},
	{"irrgw.self_ms", "ms", "lower"},
	{"irrgw.hop_ms", "ms", "lower"},
	{"irrgw.retries", "count", "lower"},
	{"client.overhead_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"op.mean_ms", "ms", "lower"},
	{"op.unattributed_ms", "ms", "lower"},
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
