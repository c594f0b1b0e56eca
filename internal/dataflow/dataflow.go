// Package dataflow provides the scalar data-flow facts the analyses and
// transformations share: per-statement def/use extraction, interprocedural
// modified-variable summaries, scalar reaching definitions and definite
// assignment on the flat CFG, and loop-invariance tests. One Context per
// compilation carries the facts to every pass and analysis.
package dataflow

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/sem"
)

// Ref is one array reference occurrence.
type Ref struct {
	Array string
	Slot  int32 // the array's symbol slot (lang.ArrayRef.Slot)
	Args  []lang.Expr
	Store bool // write (left-hand side) or read
	Stmt  lang.Stmt
}

// StmtFacts lists the variables one statement reads and writes, at
// statement granularity (not descending into nested bodies). A scalar is
// listed by the node that names it, which carries its symbol's slot.
type StmtFacts struct {
	ScalarReads  []*lang.Ident
	ScalarWrites []*lang.Ident
	ArrayReads   []Ref
	ArrayWrites  []Ref
	Calls        []string
}

// Facts extracts the def/use facts of a single statement. Loop headers
// contribute their bound expressions as reads and the loop variable as a
// write; an IF contributes the reads of every condition, its ELSEIF arms'
// included (CondFacts gives one condition's).
func Facts(s lang.Stmt) StmtFacts {
	var f StmtFacts
	addExprReads := func(e lang.Expr) {
		lang.WalkExpr(e, func(x lang.Expr) bool {
			switch x := x.(type) {
			case *lang.Ident:
				f.ScalarReads = append(f.ScalarReads, x)
			case *lang.ArrayRef:
				if !x.Intrinsic {
					f.ArrayReads = append(f.ArrayReads, Ref{Array: x.Name, Slot: x.Slot, Args: x.Args, Stmt: s})
				}
			}
			return true
		})
	}
	switch s := s.(type) {
	case *lang.AssignStmt:
		switch lhs := s.Lhs.(type) {
		case *lang.Ident:
			f.ScalarWrites = append(f.ScalarWrites, lhs)
		case *lang.ArrayRef:
			f.ArrayWrites = append(f.ArrayWrites, Ref{Array: lhs.Name, Slot: lhs.Slot, Args: lhs.Args, Store: true, Stmt: s})
			for _, a := range lhs.Args {
				addExprReads(a)
			}
		}
		addExprReads(s.Rhs)
	case *lang.IfStmt:
		addExprReads(s.Cond)
		for _, arm := range s.Elifs {
			addExprReads(arm.Cond)
		}
	case *lang.DoStmt:
		f.ScalarWrites = append(f.ScalarWrites, s.Var)
		addExprReads(s.Lo)
		addExprReads(s.Hi)
		if s.Step != nil {
			addExprReads(s.Step)
		}
	case *lang.WhileStmt:
		addExprReads(s.Cond)
	case *lang.CallStmt:
		f.Calls = append(f.Calls, s.Name)
	case *lang.PrintStmt:
		for _, a := range s.Args {
			addExprReads(a)
		}
	}
	return f
}

// CondFacts extracts the reads of one condition of an IF node (the main
// condition or an ELSEIF arm), matching cfg.NIfCond granularity.
func CondFacts(ifs *lang.IfStmt, condIndex int) StmtFacts {
	var f StmtFacts
	cond := ifs.Cond
	if condIndex >= 0 && condIndex < len(ifs.Elifs) {
		cond = ifs.Elifs[condIndex].Cond
	}
	lang.WalkExpr(cond, func(x lang.Expr) bool {
		switch x := x.(type) {
		case *lang.Ident:
			f.ScalarReads = append(f.ScalarReads, x)
		case *lang.ArrayRef:
			if !x.Intrinsic {
				f.ArrayReads = append(f.ArrayReads, Ref{Array: x.Name, Slot: x.Slot, Args: x.Args, Stmt: ifs})
			}
		}
		return true
	})
	return f
}

// Context holds the program facts of one compilation: the units'
// interprocedural modification summaries, computed when the Context is
// built, and, built on first use, each unit's flat CFG, whose dominators
// and loops are computed once, each statement's and IF arm's def/use facts,
// and each statement list's modification set. One compilation owns a
// Context and it is never locked, so no two goroutines may share one; the
// facts it returns are read-only.
//
// The Context finds what it holds by statement number (lang.Stmt.ID): the
// facts of a statement and the conditions of an IF by its own, the write
// set of a statement list by its first statement's and its length. Those
// numbers are the ones the sem.Check the Context was built from wrote,
// so a recheck of the program is followed by a fresh Context. A statement
// without one of them (0, or beyond Info.NumStmts) has its facts and write
// sets built anew on every call.
//
// The passes share the Context with the analyses, and what a pass reads
// stays exact while it runs: induction-variable substitution and forward
// propagation (constant propagation and forward substitution in one walk)
// read only what statements write, write sets and summaries, and rewrite
// expressions but never an assignment target, a DO variable, a CALL or a
// statement list; the other passes read their facts before they change
// anything. A pass that rewrites expressions or deletes assignments
// reports what it changed, and Patch brings the Context up to date; one
// that restructures statement lists (inlining, control simplification) is
// followed by a fresh Context. A pass that changes the AST and goes on
// analyzing it (loop interchange) must call Invalidate.
type Context struct {
	Info   *sem.Info
	Mod    *ModInfo
	graphs map[*lang.Unit]*cfg.Graph
	// facts and conds hold, by statement number, the facts of each
	// statement and, for an IF, of each of its conditions, the main one
	// first; mods holds the write sets of the lists each statement starts.
	facts []*StmtFacts
	conds [][]StmtFacts
	mods  []writeSets
}

// writeSets are the write sets of the statement lists that start with one
// statement: the one-statement list and one longer list, of length n. A
// list is a run of one of the program's statement lists, so its first
// statement and its length tell it apart. The slot of number 0, which no
// statement has, holds the empty list's.
type writeSets struct {
	one  *ModSet
	list *ModSet
	n    int
}

// NewContext returns the Context of a checked program, with the
// modification summaries of its units computed.
func NewContext(info *sem.Info) *Context {
	n := info.NumStmts() + 1
	c := &Context{
		Info:   info,
		graphs: map[*lang.Unit]*cfg.Graph{},
		facts:  make([]*StmtFacts, n),
		conds:  make([][]StmtFacts, n),
		mods:   make([]writeSets, n),
	}
	c.Mod = c.computeMod()
	return c
}

// Invalidate drops every graph, fact and modification set built so far.
// The units' summaries stay: a change that keeps what each unit writes
// (a loop interchange) leaves them exact.
func (c *Context) Invalidate() {
	clear(c.graphs)
	clear(c.facts)
	clear(c.conds)
	clear(c.mods)
}

// Changes is what a pass reports to Patch: the statements whose own
// expressions it rewrote and the statements it deleted, each with its
// unit. A pass that changed nothing reports none.
type Changes struct {
	Rewritten []Change
	Deleted   []Change
}

// Change names one statement of one unit.
type Change struct {
	Unit *lang.Unit
	Stmt lang.Stmt
}

// Any reports whether ch records a change.
func (ch Changes) Any() bool { return len(ch.Rewritten)+len(ch.Deleted) > 0 }

// Rewrote records that the expressions of s, a statement of u, changed.
func (ch *Changes) Rewrote(u *lang.Unit, s lang.Stmt) {
	ch.Rewritten = append(ch.Rewritten, Change{u, s})
}

// Delete records that s, a statement of u, was deleted.
func (ch *Changes) Delete(u *lang.Unit, s lang.Stmt) {
	ch.Deleted = append(ch.Deleted, Change{u, s})
}

// Add appends the changes o records to ch.
func (ch *Changes) Add(o Changes) {
	ch.Rewritten = append(ch.Rewritten, o.Rewritten...)
	ch.Deleted = append(ch.Deleted, o.Deleted...)
}

// Patch brings the Context up to date after a pass that reported ch, in
// place of a fresh sem.Check and Context, and returns what sem finds wrong
// in the rewritten statements.
//
// A rewrite changes a statement's own expressions, never a write target, a
// DO variable, a CALL or a statement list, and a statement's facts depend
// on its own expressions alone. So Patch clears the slot of each rewritten
// statement (its facts, and an IF's condition facts), keeps every write
// set, graph and summary, and has sem check the statement's expressions
// against its unit's scope. A deletion removes unlabelled scalar
// assignments: the other statements' facts stay, while every write set,
// the graph of each unit that lost a statement and the summaries are
// rebuilt. No statement is numbered anew: the remaining ones keep theirs.
func (c *Context) Patch(ch Changes) error {
	for _, r := range ch.Rewritten {
		c.drop(r.Stmt)
		if err := c.Info.CheckStmt(r.Unit, r.Stmt); err != nil {
			return err
		}
	}
	if len(ch.Deleted) == 0 {
		return nil
	}
	for _, d := range ch.Deleted {
		c.drop(d.Stmt)
		delete(c.graphs, d.Unit)
	}
	clear(c.mods)
	c.Mod = c.computeMod()
	return nil
}

// drop clears the slot of statement s: its facts and, for an IF, those of
// each of its conditions.
func (c *Context) drop(s lang.Stmt) {
	if id := s.ID(); id < len(c.facts) {
		c.facts[id], c.conds[id] = nil, nil
	}
}

// Graph returns the flat CFG of unit u.
func (c *Context) Graph(u *lang.Unit) *cfg.Graph {
	if c.graphs[u] == nil {
		c.graphs[u] = cfg.Build(u)
	}
	return c.graphs[u]
}

// Stmt returns Facts(s).
func (c *Context) Stmt(s lang.Stmt) *StmtFacts {
	id := s.ID()
	if id == 0 || id >= len(c.facts) {
		f := Facts(s)
		return &f
	}
	f := c.facts[id]
	if f == nil {
		f = new(StmtFacts)
		*f = Facts(s)
		c.facts[id] = f
	}
	return f
}

// Cond returns CondFacts(ifs, arm): the facts of the CFG node that tests
// that one condition.
func (c *Context) Cond(ifs *lang.IfStmt, arm int) *StmtFacts {
	id := ifs.ID()
	if id == 0 || id >= len(c.conds) {
		f := CondFacts(ifs, arm)
		return &f
	}
	fs := c.conds[id]
	if fs == nil {
		fs = make([]StmtFacts, len(ifs.Elifs)+1)
		for i := range fs {
			fs[i] = CondFacts(ifs, i-1)
		}
		c.conds[id] = fs
	}
	if arm < 0 || arm >= len(ifs.Elifs) {
		return &fs[0]
	}
	return &fs[arm+1]
}

// StmtsMod returns the modification set of a statement list: the
// variables its statements write, with calls followed through the units'
// summaries. It is built once per list; the set is shared, so callers must
// not modify it.
func (c *Context) StmtsMod(stmts []lang.Stmt) *ModSet {
	id := 0
	if len(stmts) > 0 {
		if id = stmts[0].ID(); id == 0 || id >= len(c.mods) {
			return c.writeSet(stmts)
		}
	}
	w := &c.mods[id]
	if len(stmts) <= 1 {
		if w.one == nil {
			w.one = c.writeSet(stmts)
		}
		return w.one
	}
	if w.list == nil || w.n != len(stmts) {
		w.list, w.n = c.writeSet(stmts), len(stmts)
	}
	return w.list
}

// writeSet builds the modification set of a statement list.
func (c *Context) writeSet(stmts []lang.Stmt) *ModSet {
	m := c.NewModSet()
	lang.WalkStmts(stmts, func(s lang.Stmt) bool {
		if slot, call := written(s); call != nil {
			if cm := c.Mod.byUnit[c.Info.Program.Unit(call.Name)]; cm != nil {
				m.Union(cm)
			}
		} else {
			m.Add(slot)
		}
		return true
	})
	return m
}

// written returns the slot of the one variable statement s itself writes,
// not counting its nested statements, as Facts(s) lists it: an
// assignment's scalar or array or a DO loop's variable; or, for a CALL,
// the call. The slot is 0 for the other statements.
func written(s lang.Stmt) (slot int32, call *lang.CallStmt) {
	switch s := s.(type) {
	case *lang.AssignStmt:
		switch lhs := s.Lhs.(type) {
		case *lang.Ident:
			return lhs.Slot, nil
		case *lang.ArrayRef:
			return lhs.Slot, nil
		}
	case *lang.DoStmt:
		return s.Var.Slot, nil
	case *lang.CallStmt:
		return 0, s
	}
	return 0, nil
}

// Node returns the facts of one CFG node: those of its IF condition arm
// or statement, and none for the entry and exit nodes.
func (c *Context) Node(n *cfg.Node) *StmtFacts {
	switch {
	case n.Kind == cfg.NIfCond:
		return c.Cond(n.Stmt.(*lang.IfStmt), n.CondIndex)
	case n.Stmt == nil:
		return &noFacts
	}
	return c.Stmt(n.Stmt)
}

// noFacts are the facts of the entry and exit nodes.
var noFacts StmtFacts

// ---------------------------------------------------------------------------
// Interprocedural modified-variable summaries

// ModSet is the set of variables a piece of code may modify: bit k for
// the symbol of slot k (sem.Symbol.Slot), whose Kind tells a scalar from
// an array. A local and a global of one name are two symbols. The sets of
// one Context have one length, so a union is one OR per word. The zero
// ModSet is empty.
type ModSet struct {
	info *sem.Info
	bits []uint64
}

// NewModSet returns an empty ModSet over the symbols of c's program.
func (c *Context) NewModSet() *ModSet {
	return &ModSet{info: c.Info, bits: make([]uint64, c.Info.NumSymbols()/64+1)}
}

// Has reports whether m holds the symbol of slot; it never holds slot 0.
func (m *ModSet) Has(slot int32) bool {
	w := int(slot / 64)
	return w < len(m.bits) && m.bits[w]&(1<<(slot%64)) != 0
}

// Add adds the symbol of slot to m; slot 0 adds nothing.
func (m *ModSet) Add(slot int32) {
	if slot != 0 {
		m.bits[slot/64] |= 1 << (slot % 64)
	}
}

// Union adds every symbol of o to m.
func (m *ModSet) Union(o *ModSet) {
	for i, w := range o.bits {
		m.bits[i] |= w
	}
}

// Each calls fn with every symbol m holds, in slot order.
func (m *ModSet) Each(fn func(*sem.Symbol)) {
	for i, w := range m.bits {
		for ; w != 0; w &= w - 1 {
			fn(m.info.Symbol(int32(i*64 + bits.TrailingZeros64(w))))
		}
	}
}

// HasName reports whether m holds a symbol called name, of any unit: the
// name-keyed test, for a name no one scope resolves.
func (m *ModSet) HasName(name string) (has bool) {
	m.Each(func(s *sem.Symbol) { has = has || s.Name == name })
	return has
}

// SortedScalars returns the names of the scalars m holds, in name order.
func (m *ModSet) SortedScalars() []string { return m.sorted(sem.ScalarSym) }

// SortedArrays returns the names of the arrays m holds, in name order.
func (m *ModSet) SortedArrays() []string { return m.sorted(sem.ArraySym) }

func (m *ModSet) sorted(kind sem.SymbolKind) []string {
	out := []string{}
	m.Each(func(s *sem.Symbol) {
		if s.Kind == kind {
			out = append(out, s.Name)
		}
	})
	sort.Strings(out)
	return slices.Compact(out)
}

// ModInfo holds, for every unit, the set of global variables the unit may
// modify (directly or through calls). Locals are excluded from the summary
// because they are invisible to callers.
type ModInfo struct {
	byUnit map[*lang.Unit]*ModSet
}

// computeMod builds the summaries of all units, visiting callees before
// callers (the call graph is acyclic; sem rejects recursion).
func (c *Context) computeMod() *ModInfo {
	mi := &ModInfo{byUnit: map[*lang.Unit]*ModSet{}}
	for _, u := range c.Info.CalleeOrder() {
		global := c.NewModSet()
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			if slot, call := written(s); call != nil {
				if cm := mi.byUnit[c.Info.Program.Unit(call.Name)]; cm != nil {
					global.Union(cm)
				}
			} else if sym := c.Info.Symbol(slot); sym != nil && sym.Global {
				global.Add(slot)
			}
			return true
		})
		mi.byUnit[u] = global
	}
	return mi
}

// GlobalsModifiedBy returns the globals the unit may modify, transitively.
func (mi *ModInfo) GlobalsModifiedBy(u *lang.Unit) *ModSet { return mi.byUnit[u] }

// ---------------------------------------------------------------------------
// Scalar reaching definitions

// DefSite is one definition of a scalar, by slot: the CFG node performing
// it.
type DefSite struct {
	Var  int32
	Node *cfg.Node
}

// ReachingDefs maps every CFG node to the set of definitions reaching its
// entry. Calls conservatively define every global the callee may modify;
// such definitions have the call node as their site.
type ReachingDefs struct {
	In map[*cfg.Node]map[DefSite]bool
}

// ComputeReaching runs the classic iterative reaching-definitions analysis
// on the flat CFG g of one of fc's units.
func ComputeReaching(g *cfg.Graph, fc *Context) *ReachingDefs {
	// Gen/kill per node.
	gen := map[*cfg.Node][]DefSite{}
	killsVar := map[*cfg.Node]*ModSet{}
	for _, n := range g.Nodes {
		f := fc.Node(n)
		kv := fc.NewModSet()
		for _, w := range f.ScalarWrites {
			gen[n] = append(gen[n], DefSite{Var: w.Slot, Node: n})
			kv.Add(w.Slot)
		}
		for _, callee := range f.Calls {
			if cu := fc.Info.Program.Unit(callee); cu != nil {
				fc.Mod.GlobalsModifiedBy(cu).Each(func(sym *sem.Symbol) {
					if sym.Kind == sem.ScalarSym {
						gen[n] = append(gen[n], DefSite{Var: sym.Slot, Node: n})
						kv.Add(sym.Slot)
					}
				})
			}
		}
		killsVar[n] = kv
	}

	in := map[*cfg.Node]map[DefSite]bool{}
	out := map[*cfg.Node]map[DefSite]bool{}
	for _, n := range g.Nodes {
		in[n] = map[DefSite]bool{}
		out[n] = map[DefSite]bool{}
	}
	order := g.ReversePostorder()
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			ni := in[n]
			for _, p := range n.Preds {
				for d := range out[p] {
					if !ni[d] {
						ni[d] = true
						changed = true
					}
				}
			}
			no := out[n]
			for d := range ni {
				if !killsVar[n].Has(d.Var) && !no[d] {
					no[d] = true
					changed = true
				}
			}
			for _, d := range gen[n] {
				if !no[d] {
					no[d] = true
					changed = true
				}
			}
		}
	}
	return &ReachingDefs{In: in}
}

// DefsOf returns the definitions of the scalar of slot v reaching node n,
// sorted by node ID.
func (rd *ReachingDefs) DefsOf(n *cfg.Node, v int32) []*cfg.Node {
	var out []*cfg.Node
	for d := range rd.In[n] {
		if d.Var == v {
			out = append(out, d.Node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ---------------------------------------------------------------------------
// Loop invariance

// InvariantIn reports whether evaluating e yields the same value in every
// iteration of the loop: no scalar it reads is modified in the loop body
// (or by calls made from it), and no array it reads is modified there.
// The loop variable, the symbol of slot loopVar, itself always varies.
func InvariantIn(e lang.Expr, loopVar int32, mod *ModSet) bool {
	inv := true
	lang.WalkExpr(e, func(x lang.Expr) bool {
		switch x := x.(type) {
		case *lang.Ident:
			inv = inv && x.Slot != loopVar && !mod.Has(x.Slot)
		case *lang.ArrayRef:
			inv = inv && (x.Intrinsic || !mod.Has(x.Slot))
		}
		return inv
	})
	return inv
}
