package property

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
)

func TestVerifyCachedHitMiss(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	sec := sec1("ind", expr.One, expr.Var("q"))
	mk := func() Property { return NewInjective("ind") }

	p1, ok1 := w.an.VerifyCached(mk, use, sec)
	if !ok1 {
		t.Fatal("first query: ind[1:q] should be injective")
	}
	if w.an.Stats.CacheMisses != 1 || w.an.Stats.CacheHits != 0 {
		t.Fatalf("after miss: hits=%d misses=%d, want 0/1", w.an.Stats.CacheHits, w.an.Stats.CacheMisses)
	}
	queries := w.an.Stats.Queries

	p2, ok2 := w.an.VerifyCached(mk, use, sec)
	if !ok2 {
		t.Fatal("second query: cached verdict should replay true")
	}
	if p2 != p1 {
		t.Error("hit should return the originally derived property instance")
	}
	if w.an.Stats.CacheHits != 1 || w.an.Stats.CacheMisses != 1 {
		t.Fatalf("after hit: hits=%d misses=%d, want 1/1", w.an.Stats.CacheHits, w.an.Stats.CacheMisses)
	}
	if w.an.Stats.Queries != queries {
		t.Errorf("a cache hit must not re-run propagation: queries %d -> %d", queries, w.an.Stats.Queries)
	}
}

// TestVerifyCachedDistinguishesSections is the collision regression: the
// retired deptest cache keyed on Section.String plus the query statement
// pointer; two different ranges of the same array at the same site must
// get independent verdicts.
func TestVerifyCachedDistinguishesSections(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	mk := func() Property { return NewInjective("ind") }
	good := sec1("ind", expr.One, expr.Var("q"))
	bad := sec1("ind", expr.One, expr.Var("n"))

	if _, ok := w.an.VerifyCached(mk, use, good); !ok {
		t.Fatal("ind[1:q] should be injective")
	}
	if _, ok := w.an.VerifyCached(mk, use, bad); ok {
		t.Fatal("ind[1:n] must not inherit the verdict for ind[1:q]")
	}
	if w.an.Stats.CacheMisses != 2 {
		t.Fatalf("misses = %d, want 2 (distinct sections, distinct entries)", w.an.Stats.CacheMisses)
	}
	// Replaying both must preserve the per-range verdicts.
	if _, ok := w.an.VerifyCached(mk, use, good); !ok {
		t.Error("replayed ind[1:q] verdict flipped")
	}
	if _, ok := w.an.VerifyCached(mk, use, bad); ok {
		t.Error("replayed ind[1:n] verdict flipped")
	}
	if w.an.Stats.CacheHits != 2 {
		t.Errorf("hits = %d, want 2", w.an.Stats.CacheHits)
	}
}

func TestVerifyCachedDistinguishesProperties(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	sec := sec1("ind", expr.One, expr.Var("q"))

	if _, ok := w.an.VerifyCached(func() Property { return NewInjective("ind") }, use, sec); !ok {
		t.Fatal("injective should hold")
	}
	p, ok := w.an.VerifyCached(func() Property { return NewBounds("ind") }, use, sec)
	if !ok {
		t.Fatal("bounds should hold")
	}
	if _, isB := p.(*Bounds); !isB {
		t.Fatalf("bounds query returned %T from the injective entry", p)
	}
	if w.an.Stats.CacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (kinds key separately)", w.an.Stats.CacheMisses)
	}
}

func TestInvalidateCache(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	sec := sec1("ind", expr.One, expr.Var("q"))
	mk := func() Property { return NewInjective("ind") }

	w.an.VerifyCached(mk, use, sec)
	w.an.InvalidateCache()
	if w.an.Stats.CacheInvalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", w.an.Stats.CacheInvalidations)
	}
	w.an.VerifyCached(mk, use, sec)
	if w.an.Stats.CacheMisses != 2 || w.an.Stats.CacheHits != 0 {
		t.Errorf("after invalidate: hits=%d misses=%d, want 0/2", w.an.Stats.CacheHits, w.an.Stats.CacheMisses)
	}
	// Invalidating an empty table is not an event.
	w.an.InvalidateCache()
	w.an.InvalidateCache()
	if w.an.Stats.CacheInvalidations != 2 {
		t.Errorf("invalidations = %d, want 2 (empty drop is free)", w.an.Stats.CacheInvalidations)
	}
}

// TestVerifyCachedNoCache checks the uncached reference path: Verify
// re-propagates on every call and never touches the memo counters, and
// VerifyCached replays the verdict Verify proves.
func TestVerifyCachedNoCache(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	sec := sec1("ind", expr.One, expr.Var("q"))

	for i := 0; i < 2; i++ {
		if !w.an.Verify(NewInjective("ind"), use, sec) {
			t.Fatalf("Verify %d: ind[1:q] should be injective", i)
		}
	}
	if w.an.Stats.CacheHits != 0 || w.an.Stats.CacheMisses != 0 {
		t.Errorf("Verify: hits=%d misses=%d, want 0/0", w.an.Stats.CacheHits, w.an.Stats.CacheMisses)
	}
	if w.an.Stats.Queries != 2 {
		t.Errorf("Verify: queries = %d, want 2", w.an.Stats.Queries)
	}
	if _, ok := w.an.VerifyCached(func() Property { return NewInjective("ind") }, use, sec); !ok {
		t.Error("VerifyCached disagrees with Verify")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Queries: 1, NodesVisited: 2, LoopSummaries: 3, GatherHits: 4, PatternHits: 5, CacheHits: 6, CacheMisses: 7, CacheInvalidations: 8, Elapsed: 9}
	b := Stats{Queries: 10, NodesVisited: 20, LoopSummaries: 30, GatherHits: 40, PatternHits: 50, CacheHits: 60, CacheMisses: 70, CacheInvalidations: 80, Elapsed: 90}
	a.Add(b)
	want := Stats{Queries: 11, NodesVisited: 22, LoopSummaries: 33, GatherHits: 44, PatternHits: 55, CacheHits: 66, CacheMisses: 77, CacheInvalidations: 88, Elapsed: 99}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

// TestReplayLeavesStatsAndRec replays a query the memo already holds: the
// replay traces its propagation steps into the recorder it is given, and
// leaves the analysis's Stats and Rec as they were before it.
func TestReplayLeavesStatsAndRec(t *testing.T) {
	w := build(t, gatherSrc)
	use := w.assignTo("gather", "jj")
	sec := sec1("ind", expr.One, expr.Var("q"))
	own := obs.New()
	w.an.Rec = own
	if _, ok := w.an.VerifyCached(func() Property { return NewInjective("ind") }, use, sec); !ok {
		t.Fatal("ind[1:q] should be injective")
	}
	before := w.an.Stats

	rec := obs.NewDebug()
	if !w.an.Replay(rec, NewInjective("ind"), use, sec) {
		t.Fatal("replay: ind[1:q] should be injective")
	}
	if w.an.Stats != before {
		t.Errorf("Stats after the replay = %+v, want %+v", w.an.Stats, before)
	}
	if w.an.Rec != own {
		t.Error("the replay left Rec pointing elsewhere")
	}
	steps := 0
	for _, e := range rec.Events() {
		if e.Kind == "query.step" {
			steps++
		}
	}
	if steps == 0 {
		t.Error("the replay traced no propagation step into its recorder")
	}
}
