package cfg

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/comperr"
	"repro/internal/lang"
)

// HKind classifies hierarchical control graph nodes (paper §3.2.1: each
// statement, loop and procedure is a node; loop bodies and procedure bodies
// are section nodes with a single entry and a single exit).
type HKind int

// HCG node kinds.
const (
	HEntry HKind = iota
	HExit
	HStmt  // simple statement
	HIf    // an IF (or ELSEIF) condition test
	HDo    // a DO loop; Body holds the loop-body section
	HWhile // a DO WHILE loop; Body holds the loop-body section
	HCall  // a CALL statement
)

func (k HKind) String() string {
	switch k {
	case HEntry:
		return "entry"
	case HExit:
		return "exit"
	case HStmt:
		return "stmt"
	case HIf:
		return "if"
	case HDo:
		return "do"
	case HWhile:
		return "while"
	case HCall:
		return "call"
	}
	return fmt.Sprintf("HKind(%d)", int(k))
}

// HNode is one node of a hierarchical control graph section.
type HNode struct {
	ID        int
	Kind      HKind
	Stmt      lang.Stmt
	CondIndex int     // for HIf: -1 main condition, else ELSEIF arm index
	Body      *HGraph // for HDo/HWhile: the loop-body section
	Graph     *HGraph // the section this node belongs to

	Succs []*HNode
	Preds []*HNode
}

func (n *HNode) String() string {
	switch n.Kind {
	case HEntry:
		return fmt.Sprintf("h%d entry", n.ID)
	case HExit:
		return fmt.Sprintf("h%d exit", n.ID)
	case HDo:
		return fmt.Sprintf("h%d do %s", n.ID, n.Stmt.(*lang.DoStmt).Var.Name)
	case HWhile:
		return fmt.Sprintf("h%d while", n.ID)
	case HCall:
		return fmt.Sprintf("h%d call %s", n.ID, n.Stmt.(*lang.CallStmt).Name)
	case HIf:
		return fmt.Sprintf("h%d if", n.ID)
	default:
		return fmt.Sprintf("h%d %s", n.ID, firstLine(lang.FormatStmt(n.Stmt)))
	}
}

// HGraph is one section of the HCG: a unit body or a loop body. Back edges
// are deleted, so the section is a DAG; sections containing backward GOTOs
// are flagged Cyclic and must be summarized conservatively.
type HGraph struct {
	Unit   *lang.Unit
	Parent *HNode // the HDo/HWhile node owning this loop-body section; nil for a unit body
	Entry  *HNode
	Exit   *HNode
	Nodes  []*HNode
	Cyclic bool

	rtop []*HNode
}

// HProgram holds the HCG of every unit of a program.
type HProgram struct {
	Program *lang.Program
	Units   map[*lang.Unit]*HGraph
	// StmtNode maps every statement to its HCG node (the HDo/HWhile node
	// for loops, the HIf node for conditionals).
	StmtNode map[lang.Stmt]*HNode
}

// CallSites returns every HCall node (in any unit) that calls the given
// unit, in deterministic order.
func (hp *HProgram) CallSites(callee string) []*HNode {
	var out []*HNode
	for _, u := range hp.Program.Units() {
		g := hp.Units[u]
		if g == nil {
			continue
		}
		var walk func(sec *HGraph)
		walk = func(sec *HGraph) {
			for _, n := range sec.Nodes {
				if n.Kind == HCall && n.Stmt.(*lang.CallStmt).Name == callee {
					out = append(out, n)
				}
				if n.Body != nil {
					walk(n.Body)
				}
			}
		}
		walk(g)
	}
	return out
}

// UnitGraph returns the HCG section of the named unit, or nil.
func (hp *HProgram) UnitGraph(name string) *HGraph {
	u := hp.Program.Unit(name)
	if u == nil {
		return nil
	}
	return hp.Units[u]
}

type hcgBuilder struct {
	unit   *lang.Unit
	nextID int
	labels map[int]*HNode
	// pending backward/cross-section gotos discovered during the build
	gotos []*HNode
	// stmtNode is the HProgram's StmtNode index; the first node created
	// for a statement (an IF's main condition, not its ELSEIF arms) wins.
	stmtNode map[lang.Stmt]*HNode
}

func (b *hcgBuilder) newNode(g *HGraph, kind HKind, stmt lang.Stmt) *HNode {
	n := &HNode{ID: b.nextID, Kind: kind, Stmt: stmt, CondIndex: -1, Graph: g}
	b.nextID++
	g.Nodes = append(g.Nodes, n)
	if stmt != nil {
		if _, ok := b.stmtNode[stmt]; !ok {
			b.stmtNode[stmt] = n
		}
	}
	return n
}

func hAddEdge(from, to *HNode) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// BuildHCG constructs hierarchical control graphs for every unit.
func BuildHCG(prog *lang.Program) *HProgram {
	hp, _ := BuildHCGCtx(context.Background(), prog) // never cancelled, so never an error
	return hp
}

// BuildHCGCtx is BuildHCG under a context: the build checks ctx before
// each unit and returns a typed cancellation error once it fires. Units
// are built one after another on the calling goroutine, in program order.
func BuildHCGCtx(ctx context.Context, prog *lang.Program) (*HProgram, error) {
	hp := &HProgram{
		Program:  prog,
		Units:    map[*lang.Unit]*HGraph{},
		StmtNode: map[lang.Stmt]*HNode{},
	}
	for _, u := range prog.Units() {
		if err := ctx.Err(); err != nil {
			return nil, comperr.Canceled(err)
		}
		b := &hcgBuilder{unit: u, labels: map[int]*HNode{}, stmtNode: hp.StmtNode}
		g := b.buildSection(u.Body, nil)
		b.resolveGotos(g)
		hp.Units[u] = g
	}
	return hp, nil
}

// buildSection builds one section graph from a statement list.
func (b *hcgBuilder) buildSection(stmts []lang.Stmt, parent *HNode) *HGraph {
	g := &HGraph{Unit: b.unit, Parent: parent}
	g.Entry = b.newNode(g, HEntry, nil)
	g.Exit = b.newNode(g, HExit, nil)
	first, outs := b.buildStmts(g, stmts)
	if first == nil {
		hAddEdge(g.Entry, g.Exit)
	} else {
		hAddEdge(g.Entry, first)
		for _, o := range outs {
			hAddEdge(o, g.Exit)
		}
	}
	return g
}

func (b *hcgBuilder) buildStmts(g *HGraph, stmts []lang.Stmt) (first *HNode, outs []*HNode) {
	for _, s := range stmts {
		f, o := b.buildStmt(g, s)
		if f == nil {
			continue
		}
		if first == nil {
			first = f
		}
		for _, p := range outs {
			hAddEdge(p, f)
		}
		outs = o
	}
	return first, outs
}

func (b *hcgBuilder) buildStmt(g *HGraph, s lang.Stmt) (first *HNode, outs []*HNode) {
	register := func(n *HNode) {
		if l := s.Label(); l != 0 {
			b.labels[l] = n
		}
	}
	switch s := s.(type) {
	case *lang.AssignStmt, *lang.PrintStmt, *lang.ContinueStmt:
		n := b.newNode(g, HStmt, s)
		register(n)
		return n, []*HNode{n}

	case *lang.CallStmt:
		n := b.newNode(g, HCall, s)
		register(n)
		return n, []*HNode{n}

	case *lang.GotoStmt:
		n := b.newNode(g, HStmt, s)
		register(n)
		b.gotos = append(b.gotos, n)
		return n, nil

	case *lang.ReturnStmt, *lang.StopStmt:
		n := b.newNode(g, HStmt, s)
		register(n)
		hAddEdge(n, g.Exit)
		return n, nil

	case *lang.IfStmt:
		cond := b.newNode(g, HIf, s)
		register(cond)
		thenFirst, thenOuts := b.buildStmts(g, s.Then)
		if thenFirst != nil {
			hAddEdge(cond, thenFirst)
			outs = append(outs, thenOuts...)
		} else {
			outs = append(outs, cond)
		}
		prev := cond
		for i := range s.Elifs {
			ec := b.newNode(g, HIf, s)
			ec.CondIndex = i
			hAddEdge(prev, ec)
			bf, bo := b.buildStmts(g, s.Elifs[i].Body)
			if bf != nil {
				hAddEdge(ec, bf)
				outs = append(outs, bo...)
			} else {
				outs = append(outs, ec)
			}
			prev = ec
		}
		if s.Else != nil {
			ef, eo := b.buildStmts(g, s.Else)
			if ef != nil {
				hAddEdge(prev, ef)
				outs = append(outs, eo...)
			} else {
				outs = append(outs, prev)
			}
		} else {
			outs = append(outs, prev)
		}
		return cond, outs

	case *lang.DoStmt:
		n := b.newNode(g, HDo, s)
		register(n)
		n.Body = b.buildSection(s.Body, n)
		return n, []*HNode{n}

	case *lang.WhileStmt:
		n := b.newNode(g, HWhile, s)
		register(n)
		n.Body = b.buildSection(s.Body, n)
		return n, []*HNode{n}
	}
	panic(fmt.Sprintf("hcg: unknown statement %T", s))
}

// resolveGotos wires forward gotos within a section and marks sections with
// backward or cross-section gotos as cyclic (their summaries must then be
// conservative; the paper's HCG deletes back edges to stay acyclic).
func (b *hcgBuilder) resolveGotos(root *HGraph) {
	for _, gn := range b.gotos {
		target := b.labels[gn.Stmt.(*lang.GotoStmt).Target]
		if target == nil {
			hAddEdge(gn, gn.Graph.Exit)
			continue
		}
		if target.Graph == gn.Graph && target.ID > gn.ID {
			hAddEdge(gn, target) // forward goto in the same section: a DAG edge
			continue
		}
		// Backward goto (a goto-formed loop) or a jump out of nested
		// blocks: drop the edge and route control to the section exit.
		hAddEdge(gn, gn.Graph.Exit)
		if target.Graph == gn.Graph {
			// Backward goto in the same section: the section loops.
			gn.Graph.Cyclic = true
			continue
		}
		// Jump out of nested blocks: every section the jump escapes can
		// terminate early, so their summaries must be conservative. If
		// the target lies *before* the goto in the enclosing section the
		// enclosing section loops too.
		for sec := gn.Graph; sec != nil && sec != target.Graph; {
			sec.Cyclic = true
			if sec.Parent == nil {
				break
			}
			sec = sec.Parent.Graph
		}
		if target.Graph != gn.Graph {
			// Find the escaping node (the ancestor of the goto inside the
			// target's section) to decide direction.
			anc := gn
			for anc != nil && anc.Graph != target.Graph {
				anc = anc.Graph.Parent
			}
			if anc != nil && target.ID <= anc.ID {
				target.Graph.Cyclic = true
			}
		}
	}
}

// RTop returns the section's nodes in reverse topological order (every node
// appears before its predecessors; the exit comes first, the entry last).
// The order is cached. QuerySolver's worklist is prioritised by this order,
// which guarantees a node is processed only after all its successors
// (paper §3.2.2).
func (g *HGraph) RTop() []*HNode {
	if g.rtop != nil {
		return g.rtop
	}
	// Topological sort by DFS postorder from entry, then reverse... here
	// we want reverse-topological: a plain DFS postorder of the DAG lists
	// successors before the node only if we emit after visiting succs.
	var order []*HNode
	seen := map[*HNode]bool{}
	var dfs func(n *HNode)
	dfs = func(n *HNode) {
		seen[n] = true
		for _, s := range n.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, n)
	}
	dfs(g.Entry)
	// order is a postorder: all successors of n precede n. That is
	// exactly reverse topological order.
	// Unreachable nodes (possible after goto rerouting) go last.
	if len(order) < len(g.Nodes) {
		inOrder := map[*HNode]bool{}
		for _, n := range order {
			inOrder[n] = true
		}
		var rest []*HNode
		for _, n := range g.Nodes {
			if !inOrder[n] {
				rest = append(rest, n)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].ID > rest[j].ID })
		order = append(order, rest...)
	}
	g.rtop = order
	return order
}

// RTopIndex returns a map from node to its position in RTop order.
func (g *HGraph) RTopIndex() map[*HNode]int {
	idx := map[*HNode]int{}
	for i, n := range g.RTop() {
		idx[n] = i
	}
	return idx
}

// Dominates reports whether a dominates every path from entry to b inside
// this section (simple O(N·E) computation, adequate for section sizes).
func (g *HGraph) Dominates(a, b *HNode) bool {
	if a == b {
		return true
	}
	// b is dominated by a iff b is unreachable from entry with a removed.
	seen := map[*HNode]bool{a: true}
	var stack []*HNode
	if g.Entry != a {
		stack = append(stack, g.Entry)
		seen[g.Entry] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == b {
			return false
		}
		for _, s := range n.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}
