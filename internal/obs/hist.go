package obs

import (
	"slices"
	"sort"
)

// BucketBoundsNs are the fixed histogram bucket upper bounds in
// nanoseconds: a 1-2-5 sequence per decade from 1µs to 10s. Every
// histogram shares them, which keeps snapshots mergeable (Absorb) and the
// Prometheus exposition cumulative buckets trivially consistent. A final
// implicit +Inf bucket catches the overflow.
var BucketBoundsNs = []int64{
	1_000, 2_000, 5_000, // 1µs 2µs 5µs
	10_000, 20_000, 50_000, // 10µs 20µs 50µs
	100_000, 200_000, 500_000, // 100µs 200µs 500µs
	1_000_000, 2_000_000, 5_000_000, // 1ms 2ms 5ms
	10_000_000, 20_000_000, 50_000_000, // 10ms 20ms 50ms
	100_000_000, 200_000_000, 500_000_000, // 100ms 200ms 500ms
	1_000_000_000, 2_000_000_000, 5_000_000_000, // 1s 2s 5s
	10_000_000_000, // 10s
}

// numBuckets counts the fixed bounds plus the +Inf overflow bucket.
var numBuckets = len(BucketBoundsNs) + 1

// bucketIndex locates the first bucket whose upper bound admits ns.
func bucketIndex(ns int64) int {
	// Binary search over the 22 fixed bounds.
	lo, hi := 0, len(BucketBoundsNs)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= BucketBoundsNs[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == len(BucketBoundsNs) for the +Inf bucket
}

// HistSnapshot is one histogram's state: the recorder keeps one per name
// under its lock and hands out copies. Counts is per-bucket (not
// cumulative), aligned with BucketBoundsNs plus a final +Inf bucket.
type HistSnapshot struct {
	Name   string  `json:"name"`
	Counts []int64 `json:"counts"`
	SumNs  int64   `json:"sum_ns"`
	Count  int64   `json:"count"`
}

// Quantile derives the q-quantile (0 < q <= 1) in nanoseconds by linear
// interpolation within the owning bucket — the standard fixed-bucket
// estimate (what PromQL's histogram_quantile computes server-side).
// Samples in the +Inf bucket clamp to the largest finite bound. Returns 0
// on an empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(BucketBoundsNs) {
			return BucketBoundsNs[len(BucketBoundsNs)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = BucketBoundsNs[i-1]
		}
		hi := BucketBoundsNs[i]
		frac := (rank - prev) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return BucketBoundsNs[len(BucketBoundsNs)-1]
}

// P50, P90 and P99 are the quantiles the Stats surfaces report.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }
func (s HistSnapshot) P90() int64 { return s.Quantile(0.90) }
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }

// HistogramEntry is one histogram in the JSON documents (irr-metrics/1
// and the services' /metrics): its count, sum and derived quantiles, all
// in nanoseconds (the quantiles are Quantile's fixed-bucket estimates).
type HistogramEntry struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	SumNs int64  `json:"sum_ns"`
	P50Ns int64  `json:"p50_ns"`
	P90Ns int64  `json:"p90_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// hist returns the named histogram, creating it empty. r.mu must be held.
func (r *Recorder) hist(name string) *HistSnapshot {
	h := r.hists[name]
	if h == nil {
		if r.hists == nil {
			r.hists = map[string]*HistSnapshot{}
		}
		h = &HistSnapshot{Name: name, Counts: make([]int64, numBuckets)}
		r.hists[name] = h
	}
	return h
}

// histograms copies every histogram, sorted by name. r.mu must be held.
func (r *Recorder) histograms() []HistSnapshot {
	var out []HistSnapshot
	for _, h := range r.hists {
		out = append(out, h.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// observe records one sample; negative durations count as zero.
func (s *HistSnapshot) observe(ns int64) {
	ns = max(ns, 0)
	s.Counts[bucketIndex(ns)]++
	s.SumNs += ns
	s.Count++
}

// merge adds src's buckets, sum and count into s.
func (s *HistSnapshot) merge(src *HistSnapshot) {
	for i, c := range src.Counts {
		s.Counts[i] += c
	}
	s.SumNs += src.SumNs
	s.Count += src.Count
}

// clone copies s so it can leave the recorder's lock.
func (s *HistSnapshot) clone() HistSnapshot {
	c := *s
	c.Counts = slices.Clone(s.Counts)
	return c
}
