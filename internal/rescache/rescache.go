// Package rescache is the cross-request compilation cache of irrd: a
// content-addressed result cache with single-flight coalescing, LRU
// recency ordering and a byte-budget eviction policy.
//
// The compiler is deterministic — an unchanged program under unchanged
// options always yields the same verdicts and the same irr-metrics/1
// document — so a serving process that sees the same bundled kernels and
// repeated sparse workloads over and over can answer warm requests from a
// frozen snapshot of the first compilation instead of recompiling. The
// cache is generic over the cached value so it can be tested standalone;
// irrd instantiates it with immutable compilation snapshots
// (irregular.Snapshot).
//
// Coalescing: N identical in-flight requests share one compile. The first
// caller of Do for a key becomes the leader and runs compute; concurrent
// callers with the same key park on the leader's flight and adopt its
// outcome. A leader that fails with a context error (its own request was
// canceled or timed out) or a panic does not poison the key: waiters
// retry, and the next one becomes the new leader with its own context.
// Errors are never cached — a failed compilation is re-attempted by the
// next request.
//
// Telemetry: when constructed with a recorder, the cache counts
// rescache_hits_total, rescache_misses_total, rescache_coalesced_total and
// rescache_evictions_total, and maintains the rescache_bytes and
// rescache_entries gauges — all served on the irrd /metrics endpoint.
package rescache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/obs"
)

// Key identifies one cacheable compilation: the content hash of the
// source text and every compilation option that affects the output, as
// api.DigestParts derives it.
type Key string

// Outcome reports how Do satisfied a request.
type Outcome int

// Outcomes.
const (
	// Miss: this caller was the leader and ran compute.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: a concurrent leader's in-flight compute was shared.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "miss"
}

// errPanicked marks a flight whose compute panicked before settling. It
// is the flight's pre-set error: a panic unwinds past the settle without
// a normal return, and waiters must neither adopt a zero value nor treat
// the key as poisoned (they retry and re-compute).
var errPanicked = errors.New("rescache: compute panicked")

// Config sizes a cache.
type Config[V any] struct {
	// MaxBytes is the eviction budget: when the summed cost of the
	// entries exceeds it, least-recently-used entries are evicted. It
	// must be positive. A single entry costlier than the whole budget is
	// still cached (the cache would otherwise thrash on its key) and
	// evicted as soon as a second entry lands.
	MaxBytes int64
	// Cost estimates one value's retained bytes; values below 1 are
	// clamped to 1. Nil charges every entry 1 byte (a pure entry-count
	// budget).
	Cost func(V) int64
	// Rec, when non-nil, receives the rescache_* counters and gauges.
	Rec *obs.Recorder
}

// Cache is the content-addressed single-flight cache. Construct with New;
// all methods are safe for concurrent use.
type Cache[V any] struct {
	cost func(V) int64
	max  int64
	rec  *obs.Recorder

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // of *entry[V]; front = most recently used
	entries map[Key]*list.Element
	flights map[Key]*flight[V]
	waiting int // callers parked on a flight (test/stats visibility)
	stats   Stats
}

type entry[V any] struct {
	key  Key
	val  V
	cost int64
}

// flight is one in-progress compute. val and err are written exactly once
// (by the leader's settle) before done is closed.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache with the given configuration.
func New[V any](cfg Config[V]) *Cache[V] {
	if cfg.MaxBytes <= 0 {
		panic("rescache: MaxBytes must be positive")
	}
	cost := cfg.Cost
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	return &Cache[V]{
		cost:    cost,
		max:     cfg.MaxBytes,
		rec:     cfg.Rec,
		lru:     list.New(),
		entries: map[Key]*list.Element{},
		flights: map[Key]*flight[V]{},
	}
}

// Do returns the cached value for key, or computes it. Concurrent calls
// for the same key coalesce: one runs compute, the rest share its result.
// ctx bounds only this caller's wait on another leader's flight — a
// caller that becomes the leader runs compute to completion on its own
// terms (compute closures typically carry their own context).
//
// A successful compute is cached; errors are not. A waiter whose leader
// failed with a context error or a panic retries (becoming the next
// leader); any other leader error is shared, since a deterministic
// compiler fails identically on identical input.
func (c *Cache[V]) Do(ctx context.Context, key Key, compute func() (V, error)) (V, Outcome, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			v := el.Value.(*entry[V]).val
			c.stats.Hits++
			c.mu.Unlock()
			c.rec.Count("rescache_hits_total", 1)
			return v, Hit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.waiting++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				c.mu.Lock()
				c.waiting--
				c.mu.Unlock()
				return zero, Coalesced, ctx.Err()
			}
			c.mu.Lock()
			c.waiting--
			c.mu.Unlock()
			if retryable(f.err) {
				continue
			}
			c.mu.Lock()
			c.stats.Coalesced++
			c.mu.Unlock()
			c.rec.Count("rescache_coalesced_total", 1)
			return f.val, Coalesced, f.err
		}
		f := &flight[V]{done: make(chan struct{}), err: errPanicked}
		c.flights[key] = f
		c.stats.Misses++
		c.mu.Unlock()
		c.rec.Count("rescache_misses_total", 1)

		// settle runs even when compute panics: the flight is closed with
		// its pre-set errPanicked so waiters retry, and the panic keeps
		// unwinding to the caller (the irrd request guard turns it into
		// that one request's 500).
		func() {
			defer c.settle(key, f)
			f.val, f.err = compute()
		}()
		return f.val, Miss, f.err
	}
}

// retryable reports whether a leader's failure says nothing about the
// input itself — the leader's request was canceled, or its compute
// panicked — so a waiter should re-attempt instead of adopting it.
func retryable(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errPanicked)
}

// settle publishes the flight's outcome: the entry is inserted on
// success, the flight is removed either way, and waiters are released.
func (c *Cache[V]) settle(key Key, f *flight[V]) {
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
}

// insertLocked adds one entry at the LRU front and evicts from the back
// until the byte budget holds again. Callers hold c.mu.
func (c *Cache[V]) insertLocked(key Key, val V) {
	if el, ok := c.entries[key]; ok {
		// A retried leader can insert a key an earlier leader already
		// settled; keep the existing entry.
		c.lru.MoveToFront(el)
		return
	}
	cost := c.cost(val)
	if cost < 1 {
		cost = 1
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: val, cost: cost})
	c.bytes += cost
	c.rec.Count("rescache_bytes", cost)
	c.rec.Count("rescache_entries", 1)
	for c.bytes > c.max && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry[V])
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.cost
		c.stats.Evictions++
		c.rec.Count("rescache_bytes", -e.cost)
		c.rec.Count("rescache_entries", -1)
		c.rec.Count("rescache_evictions_total", 1)
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Entries and Bytes describe the current resident set.
	Entries int
	Bytes   int64
	// Hits, Misses, Coalesced and Evictions are lifetime totals.
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
	// Waiting is the number of callers currently parked on a flight.
	Waiting int
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Bytes = c.bytes
	st.Waiting = c.waiting
	return st
}
