package expr

import "repro/internal/lang"

// Interner hash-conses canonical expressions for one compilation: each
// distinct canonical form is represented by a single *Expr whose canonical
// key (the String rendering) is computed once, at intern time. Interned
// expressions make Equal a pointer or key comparison, String a field read,
// and FromAST a map lookup for AST nodes already converted.
//
// An Interner is confined to one compilation and is not safe for concurrent
// use: batch compilations each build their own, which is also why interning
// cannot change output across -jobs values. A nil *Interner is valid
// everywhere and disables all caching, so call sites need no guards.
//
// Correctness rests on the package's immutability invariant: no Expr
// slice is written after construction, so a representative handed to two
// call sites can never be changed by either. Interning therefore only
// deduplicates values; it never changes them.
type Interner struct {
	byKey map[string]*Expr
	// byNode memoizes FromAST per AST node. Entries are valid only while
	// the AST is unchanged; passes that mutate the program in place must
	// call InvalidateAST (the canonical-key table is unaffected — keys
	// identify values, not syntax trees).
	byNode map[lang.Expr]*Expr
	stats  InternStats
}

// InternStats counts interner traffic for the metrics document.
//
// Concurrency: an InternStats value is goroutine-confined — each Interner
// owns one and each batch item folds its interner's stats into the
// aggregate exactly once, at compile end, on the aggregating goroutine.
type InternStats struct {
	// Hits / Misses count canonical-key lookups that found / installed a
	// representative.
	Hits   int64
	Misses int64
	// NodeHits / NodeMisses count the per-AST-node FromAST memo.
	NodeHits   int64
	NodeMisses int64
}

// Add accumulates o into s.
func (s *InternStats) Add(o InternStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.NodeHits += o.NodeHits
	s.NodeMisses += o.NodeMisses
}

// NewInterner builds an empty interner.
func NewInterner() *Interner {
	return &Interner{byKey: map[string]*Expr{}, byNode: map[lang.Expr]*Expr{}}
}

// FromAST converts an AST expression to canonical form through the
// per-node memo, interning the result (and every subexpression). Use it
// only for AST nodes that outlive the call unchanged — program syntax, not
// freshly built throwaway nodes, which would bloat the memo; canonicalize
// those with plain FromAST plus Intern. A nil receiver degrades to the
// plain conversion.
func (in *Interner) FromAST(e lang.Expr) *Expr { return fromASTIn(in, e) }

// Intern returns the canonical representative of e: the first expression
// seen with e's canonical key. The representative's key is cached, so its
// String and Equal never re-render. A nil receiver (or nil e) returns e
// unchanged.
func (in *Interner) Intern(e *Expr) *Expr {
	if in == nil || e == nil {
		return e
	}
	k := e.String()
	if r, ok := in.byKey[k]; ok {
		in.stats.Hits++
		return r
	}
	if e.ckey == "" {
		e.ckey = k
	}
	in.byKey[k] = e
	in.stats.Misses++
	return e
}

// lookupKey returns the representative with canonical key k, or nil
// (nil-safe). It counts nothing: the caller's result still goes through
// Intern.
func (in *Interner) lookupKey(k string) *Expr {
	if in == nil {
		return nil
	}
	return in.byKey[k]
}

// lookupNode consults the per-AST-node memo (nil-safe).
func (in *Interner) lookupNode(e lang.Expr) *Expr {
	if in == nil {
		return nil
	}
	if r, ok := in.byNode[e]; ok {
		in.stats.NodeHits++
		return r
	}
	return nil
}

// storeNode interns r and memoizes it for node e (nil-safe).
func (in *Interner) storeNode(e lang.Expr, r *Expr) *Expr {
	if in == nil {
		return r
	}
	r = in.Intern(r)
	in.byNode[e] = r
	in.stats.NodeMisses++
	return r
}

// InvalidateAST drops the per-node memo. Passes that mutate the program
// between conversions (loop interchange) must call it: node entries
// describe pre-mutation syntax. Canonical-key entries survive — a key
// identifies a value regardless of which syntax produced it.
func (in *Interner) InvalidateAST() {
	if in == nil || len(in.byNode) == 0 {
		return
	}
	in.byNode = map[lang.Expr]*Expr{}
}

// Stats returns the interner counters (zero for a nil interner).
func (in *Interner) Stats() InternStats {
	if in == nil {
		return InternStats{}
	}
	return in.stats
}
