// Package cfg builds control-flow graphs for F-lite program units. Build
// is the one builder; it decides every edge of both views:
//
//   - Graph: a flat, statement-level CFG with loop back edges intact. This is
//     what the bounded depth-first searches of the single-indexed access
//     analysis run on (paper §2). Dominators, back edges and natural loops
//     are computed on it, so goto-formed loops are first-class.
//
//   - HGraph (see hcg.go): the hierarchical control graph of §3.2.1, folded
//     from a unit's Graph: each DO or WHILE loop body and each unit body is
//     a section with a single entry and a single exit and back edges are
//     deleted, so every section is a DAG. The demand-driven array property
//     analysis walks this view.
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/lang"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	NEntry NodeKind = iota
	NExit
	NStmt      // simple statement (assign, print, continue, goto, return, stop)
	NIfCond    // the condition test of an IF (or one ELSEIF arm)
	NDoHead    // DO loop header (init/test/increment)
	NWhileHead // DO WHILE header (test)
	NCall      // CALL statement
)

func (k NodeKind) String() string {
	switch k {
	case NEntry:
		return "entry"
	case NExit:
		return "exit"
	case NStmt:
		return "stmt"
	case NIfCond:
		return "if"
	case NDoHead:
		return "do"
	case NWhileHead:
		return "while"
	case NCall:
		return "call"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is one CFG node.
type Node struct {
	ID   int
	Kind NodeKind
	// Stmt is the statement this node represents: the IfStmt for NIfCond,
	// the DoStmt/WhileStmt for loop headers, the statement itself for
	// NStmt and NCall, nil for entry/exit.
	Stmt lang.Stmt
	// CondIndex is, for NIfCond nodes, -1 for the main IF condition or the
	// index of the ELSEIF arm.
	CondIndex int
	// end is, for a loop header, one past the ID of the last node its body
	// built.
	end int

	Succs []*Node
	Preds []*Node
}

// Pos returns the source position of the node's program point: the ELSEIF
// arm's own position for elif-condition nodes (not the enclosing IF's),
// the statement's position otherwise, and an invalid Pos for entry/exit
// nodes, which have no source counterpart.
func (n *Node) Pos() lang.Pos {
	if n.Stmt == nil {
		return lang.Pos{}
	}
	if n.Kind == NIfCond {
		ifs := n.Stmt.(*lang.IfStmt)
		if n.CondIndex >= 0 && n.CondIndex < len(ifs.Elifs) {
			return ifs.Elifs[n.CondIndex].Pos
		}
	}
	return n.Stmt.Pos()
}

func (n *Node) String() string {
	switch n.Kind {
	case NEntry:
		return fmt.Sprintf("#%d entry", n.ID)
	case NExit:
		return fmt.Sprintf("#%d exit", n.ID)
	case NIfCond:
		return fmt.Sprintf("#%d if %s", n.ID, lang.FormatExpr(n.Stmt.(*lang.IfStmt).Cond))
	case NDoHead:
		return fmt.Sprintf("#%d do %s", n.ID, n.Stmt.(*lang.DoStmt).Var.Name)
	case NWhileHead:
		return fmt.Sprintf("#%d while", n.ID)
	default:
		return fmt.Sprintf("#%d %s", n.ID, firstLine(lang.FormatStmt(n.Stmt)))
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}

// Graph is the flat CFG of one unit.
type Graph struct {
	Unit  *lang.Unit
	Entry *Node
	Exit  *Node
	Nodes []*Node

	// stmts finds each statement's primary node (the header node for loops
	// and IFs) by statement number.
	stmts     stmtIndex[Node]
	labelNode map[int]*Node
	gotoFixes []*Node // goto nodes awaiting target edges

	// A Graph does not change after Build, so ReversePostorder,
	// Dominators and NaturalLoops compute the order, the dominators and
	// the loops once and keep them here, by node ID. That first call
	// writes: a Graph is not safe for concurrent use. pos holds each
	// node's position in rpo, from 1; an unreachable node's is 0.
	rpo    []*Node
	pos    []int
	idom   []*Node
	loops  []*Loop
	byHead []*Loop
}

func (g *Graph) newNode(kind NodeKind, stmt lang.Stmt) *Node {
	n := &Node{ID: len(g.Nodes), Kind: kind, Stmt: stmt, CondIndex: -1}
	g.Nodes = append(g.Nodes, n)
	if stmt != nil {
		g.stmts.add(stmt, n)
	}
	return n
}

// StmtNode returns the primary node of statement s (the header node for
// loops and IFs), or nil if s has none in g.
func (g *Graph) StmtNode(s lang.Stmt) *Node {
	if n := g.stmts.at(s); n != nil && n.Stmt == s {
		return n
	}
	return nil
}

// stmtIndex finds nodes by statement number (lang.Stmt.ID). A graph covers
// one unit or one program, whose statements sem.Check numbered in the
// order the builders create their nodes, so the index is a slice that
// starts at the first number it is given. A statement with no number has
// no entry, and the first node added for a statement keeps it.
type stmtIndex[N any] struct {
	base  int
	nodes []*N
}

func (x *stmtIndex[N]) add(s lang.Stmt, n *N) {
	id := s.ID()
	if id == 0 {
		return
	}
	if x.nodes == nil {
		x.base = id
	}
	i := id - x.base
	if i < 0 {
		return
	}
	if i >= len(x.nodes) {
		x.nodes = append(x.nodes, make([]*N, i+1-len(x.nodes))...)
	}
	if x.nodes[i] == nil {
		x.nodes[i] = n
	}
}

// at returns the node indexed under s's number, or nil. Its caller checks
// that the node is s's: a statement of another program may carry the
// number.
func (x *stmtIndex[N]) at(s lang.Stmt) *N {
	if i := s.ID() - x.base; s.ID() != 0 && i >= 0 && i < len(x.nodes) {
		return x.nodes[i]
	}
	return nil
}

func addEdge(from, to *Node) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// Build constructs the flat CFG of a unit.
func Build(u *lang.Unit) *Graph {
	g := &Graph{
		Unit:      u,
		labelNode: map[int]*Node{},
	}
	g.Entry = g.newNode(NEntry, nil)
	g.Exit = g.newNode(NExit, nil)

	first, outs := g.buildStmts(u.Body)
	if first == nil {
		addEdge(g.Entry, g.Exit)
	} else {
		addEdge(g.Entry, first)
		for _, o := range outs {
			addEdge(o, g.Exit)
		}
	}
	// Wire GOTO edges now that all label targets exist.
	for _, gn := range g.gotoFixes {
		target := g.labelNode[gn.Stmt.(*lang.GotoStmt).Target]
		if target != nil {
			addEdge(gn, target)
		} else {
			// sem rejects unknown labels; be safe anyway.
			addEdge(gn, g.Exit)
		}
	}
	return g
}

// buildStmts builds the subgraph for a statement list and returns its first
// node plus the dangling nodes whose control continues after the list.
func (g *Graph) buildStmts(stmts []lang.Stmt) (first *Node, outs []*Node) {
	for _, s := range stmts {
		f, o := g.buildStmt(s)
		if f == nil {
			continue
		}
		if first == nil {
			first = f
		}
		for _, p := range outs {
			addEdge(p, f)
		}
		outs = o
	}
	return first, outs
}

func (g *Graph) buildStmt(s lang.Stmt) (first *Node, outs []*Node) {
	register := func(n *Node) {
		if l := s.Label(); l != 0 {
			g.labelNode[l] = n
		}
	}
	switch s := s.(type) {
	case *lang.AssignStmt, *lang.PrintStmt, *lang.ContinueStmt:
		n := g.newNode(NStmt, s)
		register(n)
		return n, []*Node{n}

	case *lang.CallStmt:
		n := g.newNode(NCall, s)
		register(n)
		return n, []*Node{n}

	case *lang.GotoStmt:
		n := g.newNode(NStmt, s)
		register(n)
		g.gotoFixes = append(g.gotoFixes, n)
		return n, nil // control never falls through

	case *lang.ReturnStmt, *lang.StopStmt:
		n := g.newNode(NStmt, s)
		register(n)
		addEdge(n, g.Exit)
		return n, nil

	case *lang.IfStmt:
		cond := g.newNode(NIfCond, s)
		register(cond)
		thenFirst, thenOuts := g.buildStmts(s.Then)
		if thenFirst != nil {
			addEdge(cond, thenFirst)
			outs = append(outs, thenOuts...)
		} else {
			outs = append(outs, cond)
		}
		prevCond := cond
		for i := range s.Elifs {
			ec := g.newNode(NIfCond, s)
			ec.CondIndex = i
			addEdge(prevCond, ec)
			bodyFirst, bodyOuts := g.buildStmts(s.Elifs[i].Body)
			if bodyFirst != nil {
				addEdge(ec, bodyFirst)
				outs = append(outs, bodyOuts...)
			} else {
				outs = append(outs, ec)
			}
			prevCond = ec
		}
		if s.Else != nil {
			elseFirst, elseOuts := g.buildStmts(s.Else)
			if elseFirst != nil {
				addEdge(prevCond, elseFirst)
				outs = append(outs, elseOuts...)
			} else {
				outs = append(outs, prevCond)
			}
		} else {
			outs = append(outs, prevCond)
		}
		return cond, outs

	case *lang.DoStmt:
		head := g.newNode(NDoHead, s)
		register(head)
		bodyFirst, bodyOuts := g.buildStmts(s.Body)
		head.end = len(g.Nodes)
		if bodyFirst != nil {
			addEdge(head, bodyFirst)
			for _, o := range bodyOuts {
				addEdge(o, head) // back edge
			}
		} else {
			addEdge(head, head)
		}
		return head, []*Node{head}

	case *lang.WhileStmt:
		head := g.newNode(NWhileHead, s)
		register(head)
		bodyFirst, bodyOuts := g.buildStmts(s.Body)
		head.end = len(g.Nodes)
		if bodyFirst != nil {
			addEdge(head, bodyFirst)
			for _, o := range bodyOuts {
				addEdge(o, head)
			}
		} else {
			addEdge(head, head)
		}
		return head, []*Node{head}
	}
	panic(fmt.Sprintf("cfg: unknown statement %T", s))
}

// ---------------------------------------------------------------------------
// Dominators, back edges, natural loops

// Dominators returns the immediate dominator of every reachable node by
// node ID, nil for an unreachable one, computed on the first call with the
// iterative Cooper–Harvey–Kennedy algorithm. The entry node dominates
// itself. Callers must not modify the slice.
func (g *Graph) Dominators() []*Node {
	if g.idom != nil {
		return g.idom
	}
	order := g.ReversePostorder()
	pos := g.pos
	idom := make([]*Node, len(g.Nodes))
	idom[g.Entry.ID] = g.Entry
	intersect := func(a, b *Node) *Node {
		for a != b {
			for pos[a.ID] > pos[b.ID] {
				a = idom[a.ID]
			}
			for pos[b.ID] > pos[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			if n == g.Entry {
				continue
			}
			var newIdom *Node
			for _, p := range n.Preds {
				if idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[n.ID] != newIdom {
				idom[n.ID] = newIdom
				changed = true
			}
		}
	}
	g.idom = idom
	return idom
}

// Dominates reports whether a dominates b.
func (g *Graph) Dominates(a, b *Node) bool {
	idom := g.Dominators()
	for {
		if a == b {
			return true
		}
		next := idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// ReversePostorder returns the reachable nodes in reverse postorder of a
// DFS from entry (a topological order when back edges are ignored),
// computed on the first call. Callers must not modify the slice.
func (g *Graph) ReversePostorder() []*Node {
	if g.rpo != nil {
		return g.rpo
	}
	g.rpo = RegionOrder(g.Nodes)
	g.pos = make([]int, len(g.Nodes))
	for i, n := range g.rpo {
		g.pos[n.ID] = i + 1
	}
	return g.rpo
}

// RegionOrder returns, in reverse postorder of a DFS from region's first
// node, the nodes of region the DFS reaches without leaving region or
// coming back to that node. region is a run of one Graph's Nodes that
// starts at its entry: all of Nodes, or the one iteration of a DO loop
// that Iteration returns.
func RegionOrder(region []*Node) []*Node {
	lo := region[0].ID
	post := make([]*Node, 0, len(region))
	seen := make([]bool, len(region))
	var dfs func(n *Node)
	dfs = func(n *Node) {
		seen[n.ID-lo] = true
		for _, s := range n.Succs {
			if i := s.ID - lo; i > 0 && i < len(region) && !seen[i] {
				dfs(s)
			}
		}
		post = append(post, n)
	}
	dfs(region[0])
	slices.Reverse(post)
	return post
}

// Iteration returns the nodes of one iteration of DO loop d: its header,
// then its body. buildStmt creates the body's nodes right after the
// header, so they are a run of Nodes. sem rejects a jump into a nested
// block, so no body node has a predecessor outside the run.
func (g *Graph) Iteration(d *lang.DoStmt) []*Node {
	h := g.StmtNode(d)
	return g.Nodes[h.ID:h.end]
}

// Encloses reports whether n is a node of the body of the DO or WHILE loop
// whose header is h; it is false when h heads no loop.
func (h *Node) Encloses(n *Node) bool { return n.ID > h.ID && n.ID < h.end }

// Leaves reports whether control can leave DO loop d other than by ending
// an iteration: a body node has an edge out of the body (a RETURN, a STOP
// or a GOTO out) or a GOTO to d's own label, which starts the loop again.
func (g *Graph) Leaves(d *lang.DoStmt) bool {
	iter := g.Iteration(d)
	h := iter[0]
	for _, n := range iter[1:] {
		_, jump := n.Stmt.(*lang.GotoStmt)
		for _, s := range n.Succs {
			if !h.Encloses(s) && (s != h || jump) {
				return true
			}
		}
	}
	return false
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Head *Node
	// Stmt is the AST loop statement when the head corresponds to one
	// (DoStmt or WhileStmt); nil for goto-formed loops.
	Stmt lang.Stmt

	// in marks the nodes of the loop, the head included, by node ID, and
	// body lists them in ID order.
	in   []bool
	body []*Node
}

// Contains reports whether n belongs to the loop.
func (l *Loop) Contains(n *Node) bool { return n.ID < len(l.in) && l.in[n.ID] }

// Body returns the loop's nodes, the head included, sorted by ID. Callers
// must not modify the slice.
func (l *Loop) Body() []*Node { return l.body }

// NaturalLoops returns all natural loops, computed on the first call: for
// every back edge u→h (h dominates u), the loop is h plus all nodes that
// reach u without passing through h. Loops sharing a head are merged.
// The loops come in the order of their heads' IDs. Callers must not
// modify the slice.
//
// A node that dominates u comes no later than u in reverse postorder, so
// only the edges u→h with h no later than u are tested for dominance. An
// unreachable node, which only itself dominates, has position 0.
func (g *Graph) NaturalLoops() []*Loop {
	if g.byHead != nil {
		return g.loops
	}
	g.ReversePostorder()
	pos := g.pos
	byHead := make([]*Loop, len(g.Nodes))
	for _, u := range g.Nodes {
		for _, h := range u.Succs {
			if pos[h.ID] > pos[u.ID] || !g.Dominates(h, u) {
				continue
			}
			l := byHead[h.ID]
			if l == nil {
				l = &Loop{Head: h, in: make([]bool, len(g.Nodes))}
				l.in[h.ID] = true
				if h.Kind == NDoHead || h.Kind == NWhileHead {
					l.Stmt = h.Stmt
				}
				byHead[h.ID] = l
			}
			// Walk backwards from u collecting the loop body.
			var stack []*Node
			if !l.in[u.ID] {
				l.in[u.ID] = true
				stack = append(stack, u)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range n.Preds {
					if !l.in[p.ID] {
						l.in[p.ID] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, l := range byHead {
		if l == nil {
			continue
		}
		for id, in := range l.in {
			if in {
				l.body = append(l.body, g.Nodes[id])
			}
		}
		loops = append(loops, l)
	}
	g.loops, g.byHead = loops, byHead
	return loops
}

// LoopFor returns the natural loop whose header corresponds to the given
// AST loop statement, or nil.
func (g *Graph) LoopFor(stmt lang.Stmt) *Loop {
	g.NaturalLoops()
	if h := g.StmtNode(stmt); h != nil {
		return g.byHead[h.ID]
	}
	return nil
}
