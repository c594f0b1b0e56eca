// Package singleindex implements the irregular single-indexed array access
// analysis of Lin & Padua (PLDI 2000), §2: discovery of arrays subscripted
// by a single scalar index variable throughout a loop, classification of
// the index evolution, the consecutively-written test (§2.2) and the array
// stack test (§2.3, Table 1). All tests are built from bounded depth-first
// searches (package bdfs) over the flat CFG.
package singleindex

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/core/bdfs"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/sem"
)

// Class is the classification of a statement with respect to one
// (array, index) pair, following the statement classes of Table 1.
type Class int

// Statement classes.
const (
	ClassNone  Class = iota
	ClassInc         // p = p + 1
	ClassDec         // p = p - 1
	ClassReset       // p = Cbottom (region-invariant value)
	ClassWrite       // x(p) = ...
	ClassRead        // ... = x(p) (p used to read the array)
	ClassOther       // any other definition of p (disqualifying)
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassInc:
		return "inc"
	case ClassDec:
		return "dec"
	case ClassReset:
		return "reset"
	case ClassWrite:
		return "write"
	case ClassRead:
		return "read"
	case ClassOther:
		return "other"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Evolution classifies how the index variable changes across the loop
// (paper §2: monotonic vs. non-monotonic).
type Evolution int

// Evolution kinds.
const (
	EvolUnknown      Evolution = iota
	EvolMonotonicInc           // only p = p + 1 definitions
	EvolMonotonicDec           // only p = p - 1 definitions
	EvolNonMonotonic           // a mix of inc/dec/reset definitions
)

func (e Evolution) String() string {
	switch e {
	case EvolMonotonicInc:
		return "monotonic-increasing"
	case EvolMonotonicDec:
		return "monotonic-decreasing"
	case EvolNonMonotonic:
		return "non-monotonic"
	}
	return "unknown"
}

// Access describes one single-indexed array access pattern inside a loop:
// array x subscripted everywhere by the same scalar p.
type Access struct {
	Array string
	Index string
	Loop  *cfg.Loop
	Graph *cfg.Graph

	// Writes and Reads are the loop nodes referencing x(p) on the left-
	// and right-hand side respectively (a node can appear in both).
	Writes []*cfg.Node
	Reads  []*cfg.Node
	// IndexDefs are the loop nodes that define the index variable,
	// excluding the analyzed loop's own header.
	IndexDefs []*cfg.Node

	// Check, when non-nil, is invoked at every node the classification
	// bDFS runs visit — the cooperative cancellation checkpoint. Callers
	// that compile under a context set it (from comperr.Guard.CheckFn)
	// between Find and the Check* tests; it never changes a verdict.
	Check func()

	classes map[*cfg.Node]classInfo
	// index and array are the slots of Index's and Array's symbols.
	index, array int32
}

type classInfo struct {
	inc, dec, reset, write, read, other bool
	resetVal                            lang.Expr
}

// Find discovers all single-indexed accesses in the given natural loop of
// g: for each array whose every reference inside the loop is subscripted
// by one and the same scalar variable. The statement facts come from fc.
// Results are sorted by array name.
func Find(fc *dataflow.Context, g *cfg.Graph, loop *cfg.Loop) []*Access {
	type cand struct {
		index  *lang.Ident
		array  int32
		ok     bool
		reads  []*cfg.Node
		writes []*cfg.Node
	}
	cands := map[string]*cand{}

	note := func(r dataflow.Ref, node *cfg.Node, store bool) {
		c := cands[r.Array]
		if c == nil {
			c = &cand{ok: true, array: r.Slot}
			cands[r.Array] = c
		}
		if !c.ok {
			return
		}
		id := singleIdentSubscript(r.Args)
		if id == nil {
			c.ok = false
			return
		}
		if c.index == nil {
			c.index = id
		} else if c.index.Slot != id.Slot {
			c.ok = false
			return
		}
		if store {
			c.writes = append(c.writes, node)
		} else {
			c.reads = append(c.reads, node)
		}
	}

	for _, n := range loop.Body() {
		f := fc.Node(n)
		for _, r := range f.ArrayReads {
			note(r, n, false)
		}
		for _, w := range f.ArrayWrites {
			note(w, n, true)
		}
	}

	var out []*Access
	var mod *dataflow.ModSet // what the loop writes, built for the first access
	for array, c := range cands {
		if !c.ok || c.index == nil {
			continue
		}
		sym := fc.Info.Symbol(c.index.Slot)
		if sym == nil || sym.Kind != sem.ScalarSym || sym.Type != lang.TInteger {
			continue
		}
		asym := fc.Info.Symbol(c.array)
		if asym == nil || asym.Kind != sem.ArraySym || len(asym.Dims) != 1 {
			continue
		}
		a := &Access{
			Array: array, Index: c.index.Name, Loop: loop, Graph: g,
			Writes: c.writes, Reads: c.reads, index: c.index.Slot, array: c.array,
		}
		if mod == nil {
			mod = regionMod(loop, fc)
		}
		a.findIndexDefs(fc)
		a.classify(fc, mod)
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Array < out[j].Array })
	return out
}

// singleIdentSubscript returns the one bare identifier args is, or nil.
func singleIdentSubscript(args []lang.Expr) *lang.Ident {
	if len(args) != 1 {
		return nil
	}
	id, _ := args[0].(*lang.Ident)
	return id
}

// findIndexDefs collects the loop nodes defining the index variable.
func (a *Access) findIndexDefs(fc *dataflow.Context) {
	info, mi := fc.Info, fc.Mod
	for _, n := range a.Loop.Body() {
		f := fc.Node(n)
		defs := false
		for _, w := range f.ScalarWrites {
			if w.Slot == a.index {
				defs = true
			}
		}
		for _, callee := range f.Calls {
			if cu := info.Program.Unit(callee); cu != nil {
				if mi.GlobalsModifiedBy(cu).Has(a.index) {
					defs = true
				}
			}
		}
		if defs {
			a.IndexDefs = append(a.IndexDefs, n)
		}
	}
}

// classify computes the Table 1 class information of every loop node with
// respect to (Array, Index); mod is what the loop writes.
func (a *Access) classify(fc *dataflow.Context, mod *dataflow.ModSet) {
	info, mi := fc.Info, fc.Mod
	a.classes = map[*cfg.Node]classInfo{}
	p := a.Index

	for _, n := range a.Loop.Body() {
		var ci classInfo
		// Reads of x(p) anywhere in the node's expressions.
		f := fc.Node(n)
		for _, r := range f.ArrayReads {
			if r.Array == a.Array {
				ci.read = true
			}
		}
		for _, w := range f.ArrayWrites {
			if w.Array == a.Array {
				ci.write = true
			}
		}
		// Definitions of p.
		if as, ok := nodeAssign(n); ok {
			if id, ok := as.Lhs.(*lang.Ident); ok && id.Slot == a.index {
				rhs := expr.FromAST(as.Rhs)
				pPlus1 := expr.Var(p).AddConst(1)
				pMinus1 := expr.Var(p).AddConst(-1)
				switch {
				case rhs.Equal(pPlus1):
					ci.inc = true
				case rhs.Equal(pMinus1):
					ci.dec = true
				case !rhs.MentionsVar(p) && dataflow.InvariantIn(as.Rhs, loopVarOf(a.Loop), mod):
					ci.reset = true
					ci.resetVal = as.Rhs
				default:
					ci.other = true
				}
			}
		} else {
			// Non-assignment definitions of p (loop headers with p as
			// index, calls modifying p) are "other".
			for _, w := range f.ScalarWrites {
				if w.Slot == a.index {
					ci.other = true
				}
			}
			for _, callee := range f.Calls {
				// Calls that may touch the array itself also
				// disqualify the pattern.
				if cu := info.Program.Unit(callee); cu != nil {
					if cm := mi.GlobalsModifiedBy(cu); cm.Has(a.index) || cm.Has(a.array) {
						ci.other = true
					}
				}
			}
		}
		if ci != (classInfo{}) {
			a.classes[n] = ci
		}
	}
}

// regionMod returns what the nodes of loop write, through calls too.
func regionMod(loop *cfg.Loop, fc *dataflow.Context) *dataflow.ModSet {
	mod := fc.NewModSet()
	for _, n := range loop.Body() {
		f := fc.Node(n)
		for _, w := range f.ScalarWrites {
			mod.Add(w.Slot)
		}
		for _, w := range f.ArrayWrites {
			mod.Add(w.Slot)
		}
		for _, callee := range f.Calls {
			if cu := fc.Info.Program.Unit(callee); cu != nil {
				mod.Union(fc.Mod.GlobalsModifiedBy(cu))
			}
		}
	}
	return mod
}

// loopVarOf returns the slot of a DO loop's variable, or 0.
func loopVarOf(l *cfg.Loop) int32 {
	if ds, ok := l.Stmt.(*lang.DoStmt); ok {
		return ds.Var.Slot
	}
	return 0
}

func nodeAssign(n *cfg.Node) (*lang.AssignStmt, bool) {
	if n.Kind != cfg.NStmt {
		return nil, false
	}
	as, ok := n.Stmt.(*lang.AssignStmt)
	return as, ok
}

// ClassifyEvolution determines how the index evolves across the loop.
func (a *Access) ClassifyEvolution() Evolution {
	var inc, dec, reset, other bool
	for _, n := range a.IndexDefs {
		ci := a.classes[n]
		inc = inc || ci.inc
		dec = dec || ci.dec
		reset = reset || ci.reset
		other = other || ci.other
	}
	switch {
	case other:
		return EvolUnknown
	case inc && !dec && !reset:
		return EvolMonotonicInc
	case dec && !inc && !reset:
		return EvolMonotonicDec
	case inc || dec || reset:
		return EvolNonMonotonic
	default:
		return EvolUnknown // p never changes: not irregular at all
	}
}

// ---------------------------------------------------------------------------
// Region-restricted successor functions

// exitSentinel is a fresh node standing for "control left the region".
func exitSentinel() *cfg.Node { return &cfg.Node{ID: -1, Kind: cfg.NExit} }

// loopSuccs returns an adjacency function restricted to the loop's nodes,
// following the back edge through the header (whole-loop paths, used by the
// consecutively-written test). Edges leaving the loop go to the sentinel.
func loopSuccs(l *cfg.Loop, sentinel *cfg.Node) func(*cfg.Node) []*cfg.Node {
	return func(n *cfg.Node) []*cfg.Node {
		if n == sentinel {
			return nil
		}
		var out []*cfg.Node
		exited := false
		for _, s := range n.Succs {
			if l.Contains(s) {
				out = append(out, s)
			} else {
				exited = true
			}
		}
		if exited {
			out = append(out, sentinel)
		}
		return out
	}
}

// iterationSuccs is like loopSuccs but stops at the loop header: paths stay
// within a single iteration of the loop (used by the stack test, whose
// region is the loop body).
func iterationSuccs(l *cfg.Loop, sentinel *cfg.Node) func(*cfg.Node) []*cfg.Node {
	return func(n *cfg.Node) []*cfg.Node {
		if n == sentinel {
			return nil
		}
		var out []*cfg.Node
		exited := false
		for _, s := range n.Succs {
			switch {
			case s == l.Head:
				exited = true // end of the iteration
			case l.Contains(s):
				out = append(out, s)
			default:
				exited = true
			}
		}
		if exited {
			out = append(out, sentinel)
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// Consecutively written (§2.2)

// CWResult reports a successful consecutively-written test.
type CWResult struct {
	Access *Access
	// Increasing is true for the 1-2-3 order (p = p + 1); false for the
	// decreasing order (p = p - 1).
	Increasing bool
	// ReadsCovered is true when every read of x(p) in the loop is
	// provably preceded, on all paths within the same visit, by a write
	// of x(p) (no upward-exposed single-indexed reads).
	ReadsCovered bool
}

// CheckConsecutivelyWritten runs the §2.2 test: the index must be defined
// only as p = p + 1 (or only p = p - 1) inside the loop, and from every
// increment every path must write x(p) before reaching another increment —
// otherwise there may be holes in the written section. Paths that leave
// the loop without writing also fail, which makes the final written
// section [p0+1 : pfinal] exact rather than an over-approximation.
func CheckConsecutivelyWritten(a *Access) *CWResult {
	evol := a.ClassifyEvolution()
	if evol != EvolMonotonicInc && evol != EvolMonotonicDec {
		return nil
	}
	if len(a.Writes) == 0 {
		return nil
	}
	inc := evol == EvolMonotonicInc

	sentinel := exitSentinel()
	succs := loopSuccs(a.Loop, sentinel)
	isStep := func(n *cfg.Node) bool {
		ci := a.classes[n]
		if inc {
			return ci.inc
		}
		return ci.dec
	}
	writesArr := func(n *cfg.Node) bool { return a.classes[n].write }

	for _, def := range a.IndexDefs {
		if !isStep(def) {
			continue
		}
		res := bdfs.RunFromSuccessors(def, bdfs.Config{
			Succs:  succs,
			FBound: writesArr,
			FFailed: func(n *cfg.Node) bool {
				return n == sentinel || isStep(n)
			},
			Check: a.Check,
		})
		if res == bdfs.Failed {
			return nil
		}
	}
	return &CWResult{
		Access:       a,
		Increasing:   inc,
		ReadsCovered: a.readsCovered(),
	}
}

// readsCovered checks, with backward bounded searches, that every read of
// x(p) is preceded by a write of x(p) on all paths since the last change of
// p (within the loop region). It mirrors the forward bDFS but walks
// predecessor edges.
func (a *Access) readsCovered() bool {
	if len(a.Reads) == 0 {
		return true
	}
	inLoop := func(n *cfg.Node) bool { return a.Loop.Contains(n) }
	sentinel := exitSentinel()
	preds := func(n *cfg.Node) []*cfg.Node {
		if n == sentinel {
			return nil
		}
		var out []*cfg.Node
		left := false
		for _, p := range n.Preds {
			if inLoop(p) {
				out = append(out, p)
			} else {
				left = true
			}
		}
		if left {
			out = append(out, sentinel)
		}
		return out
	}
	for _, rd := range a.Reads {
		// A node that both reads and writes (x(p) = x(p) + 1) evaluates
		// the read before the write, so the write does not cover it.
		res := bdfs.RunFromSuccessors(rd, bdfs.Config{
			Succs:  preds,
			FBound: func(n *cfg.Node) bool { return a.classes[n].write },
			FFailed: func(n *cfg.Node) bool {
				if n == sentinel {
					return true
				}
				ci := a.classes[n]
				return ci.inc || ci.dec || ci.reset || ci.other
			},
			Check: a.Check,
		})
		if res == bdfs.Failed {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Stack access (§2.3, Table 1)

// StackResult reports a successful array-stack test.
type StackResult struct {
	Access *Access
	// Bottom is the region-invariant expression the index is reset to at
	// the start of each iteration (Cbottom).
	Bottom lang.Expr
	// ResetFirst is true when, on every path from the start of an
	// iteration, the reset precedes every other stack operation — the
	// condition that makes the stack privatizable for the enclosing loop.
	ResetFirst bool
}

// stackRules is Table 1 of the paper: for each originating statement class,
// the classes that bound the search and the classes that fail it.
type stackRule struct {
	bound  func(classInfo) bool
	failed func(classInfo) bool
}

var stackRules = map[Class]stackRule{
	ClassInc: { // after a push: must write the new top next
		bound:  func(c classInfo) bool { return c.write || c.reset },
		failed: func(c classInfo) bool { return c.inc || c.dec || c.read },
	},
	ClassDec: { // after a pop: next stack event is a push, a read, or a reset
		bound:  func(c classInfo) bool { return c.inc || c.read || c.reset },
		failed: func(c classInfo) bool { return c.dec || c.write },
	},
	ClassWrite: { // after writing the top: push further, read it back, or reset
		bound:  func(c classInfo) bool { return c.inc || c.read || c.reset },
		failed: func(c classInfo) bool { return c.dec || c.write },
	},
	ClassRead: { // after reading the top: it must be popped (or reset)
		bound:  func(c classInfo) bool { return c.dec || c.reset },
		failed: func(c classInfo) bool { return c.inc || c.write || c.read },
	},
}

// CheckStack runs the §2.3 test on the loop body region: the index may only
// be defined by p=p+1, p=p-1 and p=Cbottom with a single region-invariant
// Cbottom, and every path originating at a stack operation must reach a
// bounding operation before a failing one, per Table 1.
func CheckStack(a *Access) *StackResult {
	// Index definitions restricted to the three allowed forms.
	var bottom lang.Expr
	for _, def := range a.IndexDefs {
		ci := a.classes[def]
		switch {
		case ci.inc || ci.dec:
		case ci.reset:
			if bottom == nil {
				bottom = ci.resetVal
			} else if !expr.FromAST(bottom).Equal(expr.FromAST(ci.resetVal)) {
				return nil // two different bottoms
			}
		default:
			return nil
		}
	}
	if bottom == nil {
		return nil // never reset: cannot establish the bottom
	}

	sentinel := exitSentinel()
	succs := iterationSuccs(a.Loop, sentinel)
	classOf := func(n *cfg.Node) classInfo {
		if n == sentinel {
			return classInfo{}
		}
		return a.classes[n]
	}

	// A node combining classes (e.g. both read and write of x(p), or a
	// statement like p = p + 1 that also reads x(p)) breaks the clean
	// event ordering; reject.
	for _, n := range a.Loop.Body() {
		ci := a.classes[n]
		k := 0
		for _, b := range []bool{ci.inc, ci.dec, ci.reset, ci.write, ci.read} {
			if b {
				k++
			}
		}
		if k > 1 {
			return nil
		}
	}

	for _, origin := range a.Loop.Body() {
		oc := a.classes[origin]
		var rule stackRule
		switch {
		case oc.inc:
			rule = stackRules[ClassInc]
		case oc.dec:
			rule = stackRules[ClassDec]
		case oc.write:
			rule = stackRules[ClassWrite]
		case oc.read:
			rule = stackRules[ClassRead]
		default:
			continue
		}
		res := bdfs.RunFromSuccessors(origin, bdfs.Config{
			Succs:   succs,
			FBound:  func(n *cfg.Node) bool { return rule.bound(classOf(n)) },
			FFailed: func(n *cfg.Node) bool { return n != sentinel && rule.failed(classOf(n)) },
			Check:   a.Check,
		})
		if res == bdfs.Failed {
			return nil
		}
	}

	return &StackResult{
		Access:     a,
		Bottom:     bottom,
		ResetFirst: a.resetFirst(sentinel),
	}
}

// resetFirst checks that on every path from the start of an iteration the
// reset precedes any other operation on the index or the array.
func (a *Access) resetFirst(sentinel *cfg.Node) bool {
	succs := iterationSuccs(a.Loop, sentinel)
	res := bdfs.RunFromSuccessors(a.Loop.Head, bdfs.Config{
		Succs:  succs,
		FBound: func(n *cfg.Node) bool { return a.classes[n].reset },
		FFailed: func(n *cfg.Node) bool {
			if n == sentinel {
				return false // iteration may end without touching the stack
			}
			ci := a.classes[n]
			return ci.inc || ci.dec || ci.write || ci.read || ci.other
		},
		Check: a.Check,
	})
	return res == bdfs.Succeeded
}
