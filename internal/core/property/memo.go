package property

import (
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/section"
)

// The memo table caches query propagation: the demand-driven analysis is
// deterministic for an unchanged program, and the dependence tests repeat
// identical queries across the reference pairs of one loop and across loops
// sharing index arrays. A query is identified by (HCG node of the use site,
// property kind + target array, canonical section bounds) — the key the
// paper's framework implies, since those are exactly the inputs of a query.
//
// The table belongs to one Analysis and, like the Analysis itself, is not
// safe for concurrent use; concurrent compilations each build their own
// Analysis. Cached Property instances are shared between callers and must
// be treated as immutable after verification.

// memoKey identifies one property query within one program epoch.
type memoKey struct {
	// node is the HCG node of the use site (nil when the statement is not
	// mapped; Verify fails such queries, and the failure is cached too).
	node *cfg.HNode
	// id is the property identity: Kind and target array.
	id string
	// sec is the unambiguous section identity (Section.Key, which — unlike
	// Section.String — never collapses lo==hi dimensions).
	sec string
	// epoch is the program generation the verdict was proved under;
	// InvalidateCache bumps the generation instead of flushing the table,
	// leaving stale entries unreachable.
	epoch int
}

type memoEntry struct {
	ok   bool
	prop Property
}

// VerifyCached runs (or replays) a property verification through the memo
// table. mk builds the fresh property instance; on a hit the previously
// derived instance is returned instead, carrying its derived facts
// (bounds, closed forms). Hits cost no propagation and do not increment
// Stats.Queries. Verify is the uncached path.
func (a *Analysis) VerifyCached(mk func() Property, at lang.Stmt, sec *section.Section) (Property, bool) {
	prop := mk()
	key := memoKey{node: a.HP.StmtNode(at), id: prop.Kind() + "|" + prop.TargetArray(), sec: sec.Key(), epoch: a.epoch}
	if e, hit := a.memo[key]; hit {
		a.Stats.CacheHits++
		if a.Rec.DebugEnabled() {
			a.Rec.Event("query.cache",
				obs.F("prop", e.prop.String()),
				obs.F("section", sec.String()),
				obs.Fb("ok", e.ok))
		}
		return e.prop, e.ok
	}
	a.Stats.CacheMisses++
	ok := a.Verify(prop, at, sec)
	if a.memo == nil {
		a.memo = map[memoKey]memoEntry{}
	}
	a.memo[key] = memoEntry{ok: ok, prop: prop}
	a.memoLive++
	return prop, ok
}

// InvalidateCache retires every memoized verdict by advancing the program
// epoch — an O(1) generation bump that leaves other epochs' entries
// unreachable instead of flushing them. Callers that mutate the program between queries (the loop-interchange
// pass) must invalidate: entries are keyed by HCG nodes and section
// bounds of the pre-mutation program and would otherwise replay stale
// verdicts. Invalidating an empty table is free and not counted.
func (a *Analysis) InvalidateCache() {
	if a.memoLive == 0 {
		return
	}
	a.epoch++
	a.memoLive = 0
	a.Stats.CacheInvalidations++
}
