package cfg

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/comperr"
	"repro/internal/lang"
)

// HNode is one node of a hierarchical control graph section (paper
// §3.2.1: each statement, loop and procedure is a node; loop bodies and
// procedure bodies are sections with a single entry and a single exit).
// Its kind, statement and condition index are those of the flat CFG node
// it was folded from, or it is its section's entry or exit.
type HNode struct {
	ID        int
	Kind      NodeKind
	Stmt      lang.Stmt
	CondIndex int     // for NIfCond: -1 main condition, else ELSEIF arm index
	Body      *HGraph // for NDoHead/NWhileHead: the loop-body section
	Graph     *HGraph // the section this node belongs to

	Succs []*HNode
	Preds []*HNode
}

func (n *HNode) String() string {
	switch n.Kind {
	case NEntry:
		return fmt.Sprintf("h%d entry", n.ID)
	case NExit:
		return fmt.Sprintf("h%d exit", n.ID)
	case NDoHead:
		return fmt.Sprintf("h%d do %s", n.ID, n.Stmt.(*lang.DoStmt).Var.Name)
	case NWhileHead:
		return fmt.Sprintf("h%d while", n.ID)
	case NCall:
		return fmt.Sprintf("h%d call %s", n.ID, n.Stmt.(*lang.CallStmt).Name)
	case NIfCond:
		return fmt.Sprintf("h%d if", n.ID)
	default:
		return fmt.Sprintf("h%d %s", n.ID, firstLine(lang.FormatStmt(n.Stmt)))
	}
}

// HGraph is one section of the HCG: a unit body or a loop body. Back edges
// are deleted, so the section is a DAG; a section that a GOTO loops in or
// leaves early is flagged Cyclic and must be summarized conservatively.
type HGraph struct {
	Unit   *lang.Unit
	Parent *HNode // the loop node owning this loop-body section; nil for a unit body
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
	// stmts finds every statement's HCG node by statement number.
	stmts stmtIndex[HNode]
}

// StmtNode returns the HCG node of statement s (the loop node for loops,
// the node of the main condition for conditionals), or nil if s has none
// in hp.
func (hp *HProgram) StmtNode(s lang.Stmt) *HNode {
	if n := hp.stmts.at(s); n != nil && n.Stmt == s {
		return n
	}
	return nil
}

// CallSites returns every NCall node (in any unit) that calls the given
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
				if n.Kind == NCall && n.Stmt.(*lang.CallStmt).Name == callee {
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

func hAddEdge(from, to *HNode) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// BuildHCG folds the flat CFG of every unit of prog, which graph returns,
// into the unit's HCG. It checks ctx before each unit and returns a typed
// cancellation error once it fires. Units are folded one after another on
// the calling goroutine, in program order.
func BuildHCG(ctx context.Context, prog *lang.Program, graph func(*lang.Unit) *Graph) (*HProgram, error) {
	hp := &HProgram{
		Program: prog,
		Units:   map[*lang.Unit]*HGraph{},
	}
	for _, u := range prog.Units() {
		if err := ctx.Err(); err != nil {
			return nil, comperr.Canceled(err)
		}
		hp.Units[u] = fold(graph(u), &hp.stmts)
	}
	return hp, nil
}

// fold makes the HCG section of a unit body from the unit's flat CFG g.
// The body of each loop header, the run of g's nodes after it, becomes a
// section nested in the header's node, so walking g's nodes in ID order
// numbers the HCG's nodes as the sections nest. An edge inside a section
// stays when it goes forward. Every other edge goes to the section's exit:
// an edge back to the header, a RETURN's or STOP's to the unit's exit,
// and a GOTO backward or out of the section. stmts indexes each
// statement's first node, which is an IF's main condition.
//
// The unit's HCG has g's nodes plus an entry and an exit per loop header,
// so one walk sizes every section and one array holds every node.
func fold(g *Graph, stmts *stmtIndex[HNode]) *HGraph {
	size := make([]int, len(g.Nodes)) // by the flat ID of a section's head
	heads := 0
	nest(g, func(n *Node, head int) {
		size[head]++
		if n.end > 0 {
			heads++
		}
	})
	nodes := make([]HNode, len(g.Nodes)+2*heads)
	refs := make([]*HNode, len(nodes)) // the sections' Nodes, one after another
	hn := make([]*HNode, len(g.Nodes)) // by flat node ID
	nextID := 0
	node := func(sec *HGraph, kind NodeKind, n *Node) *HNode {
		h := &nodes[nextID]
		*h = HNode{ID: nextID, Kind: kind, CondIndex: -1, Graph: sec}
		nextID++
		sec.Nodes = append(sec.Nodes, h)
		if n != nil {
			h.Stmt, h.CondIndex = n.Stmt, n.CondIndex
			hn[n.ID] = h
			if n.Stmt != nil {
				stmts.add(n.Stmt, h)
			}
		}
		return h
	}
	section := func(parent *HNode, head int, entry, exit *Node) *HGraph {
		k := size[head] + 2
		sec := &HGraph{Unit: g.Unit, Parent: parent, Nodes: refs[:0:k]}
		refs = refs[k:]
		sec.Entry = node(sec, NEntry, entry)
		sec.Exit = node(sec, NExit, exit)
		return sec
	}
	root := section(nil, g.Entry.ID, g.Entry, g.Exit)
	nest(g, func(n *Node, head int) {
		sec := root
		if head != g.Entry.ID {
			sec = hn[head].Body
		}
		if h := node(sec, n.Kind, n); n.end > 0 {
			h.Body = section(h, n.ID, nil, nil)
		}
	})

	for _, n := range g.Nodes {
		from := hn[n.ID]
		for _, t := range n.Succs {
			to := hn[t.ID]
			switch {
			case from.Body != nil && (t == n || n.Encloses(t)):
				// The header's edge into its body, or to itself when
				// the body is empty.
				if t == n {
					to = from.Body.Exit
				}
				hAddEdge(from.Body.Entry, to)
			case to.Graph == from.Graph && t.ID > n.ID:
				hAddEdge(from, to)
			default:
				hAddEdge(from, from.Graph.Exit)
				if _, jump := n.Stmt.(*lang.GotoStmt); jump && t != g.Exit {
					markCyclic(from, to)
				}
			}
		}
	}
	return root
}

// nest calls fn with every statement node of g, in ID order, and the ID
// of the loop header whose body holds it, g.Entry's for the unit body.
func nest(g *Graph, fn func(n *Node, head int)) {
	type span struct{ head, end int }
	open := []span{{g.Entry.ID, len(g.Nodes)}}
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue // the unit's entry or exit
		}
		for n.ID >= open[len(open)-1].end {
			open = open[:len(open)-1]
		}
		fn(n, open[len(open)-1].head)
		if n.end > 0 {
			open = append(open, span{n.ID, n.end})
		}
	}
}

// markCyclic marks the sections that a GOTO from n to t, sent to its
// section's exit, leaves early or loops in: every section from n's out to
// t's, and t's too when the jump goes back. Their summaries must then be
// conservative.
func markCyclic(n, t *HNode) {
	sec := n.Graph
	for ; sec != t.Graph; sec = sec.Parent.Graph {
		sec.Cyclic = true
		if sec.Parent == nil {
			return
		}
	}
	if t.ID <= n.ID {
		sec.Cyclic = true
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
