package cfg

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/comperr"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/sem"
)

// check parses and checks src: the graphs find statements by the numbers
// sem.Check gives them.
func check(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := sem.Check(prog); err != nil {
		t.Fatalf("sem: %v", err)
	}
	return prog
}

func parse(t *testing.T, src string) *lang.Unit {
	t.Helper()
	return check(t, src).Main
}

func TestBuildStraightLine(t *testing.T) {
	u := parse(t, "program p\n integer a, b\n a = 1\n b = 2\nend\n")
	g := Build(u)
	// entry -> a=1 -> b=2 -> exit
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry succs: %v", g.Entry.Succs)
	}
	n1 := g.Entry.Succs[0]
	if n1.Kind != NStmt || len(n1.Succs) != 1 {
		t.Fatalf("n1: %v", n1)
	}
	n2 := n1.Succs[0]
	if n2.Succs[0] != g.Exit {
		t.Fatalf("n2 does not reach exit: %v", n2)
	}
}

func TestBuildIfElse(t *testing.T) {
	u := parse(t, `
program p
  integer a, b
  if (a > 0) then
    b = 1
  else
    b = 2
  end if
  b = 3
end
`)
	g := Build(u)
	cond := g.Entry.Succs[0]
	if cond.Kind != NIfCond || len(cond.Succs) != 2 {
		t.Fatalf("cond: %v succs %d", cond, len(cond.Succs))
	}
	// Both branches must merge at b=3.
	merge := cond.Succs[0].Succs[0]
	if merge != cond.Succs[1].Succs[0] {
		t.Error("branches do not merge")
	}
	if len(merge.Preds) != 2 {
		t.Errorf("merge preds = %d, want 2", len(merge.Preds))
	}
}

func TestBuildDoLoopBackEdge(t *testing.T) {
	u := parse(t, `
program p
  integer i, s
  do i = 1, 10
    s = s + i
  end do
  s = 0
end
`)
	g := Build(u)
	head := g.Entry.Succs[0]
	if head.Kind != NDoHead {
		t.Fatalf("head: %v", head)
	}
	// head -> body and head -> follow
	if len(head.Succs) != 2 {
		t.Fatalf("head succs: %v", head.Succs)
	}
	body := head.Succs[0]
	if body.Succs[0] != head {
		t.Error("missing back edge from body to head")
	}
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops: %d", len(loops))
	}
	if l := loops[0]; l.Head != head || !l.Contains(body) || !slices.Equal(l.Body(), []*Node{head, body}) {
		t.Errorf("loop contents wrong: %v", l.Body())
	}
	if loops[0].Stmt == nil {
		t.Error("loop should map to its DoStmt")
	}
}

func TestGotoLoop(t *testing.T) {
	u := parse(t, `
program p
  integer i, n
  i = 0
10 continue
  i = i + 1
  if (i < n) goto 10
  i = 0
end
`)
	g := Build(u)
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("goto loop not found: %d loops", len(loops))
	}
	l := loops[0]
	if l.Stmt != nil {
		t.Error("goto loop should have no AST loop stmt")
	}
	// Loop should include the continue (head), i=i+1, if, goto.
	if len(l.Body()) != 4 || l.Body()[0] != l.Head {
		t.Errorf("loop nodes = %d, want 4 from the head: %v", len(l.Body()), l.Body())
	}
}

func TestDominators(t *testing.T) {
	u := parse(t, `
program p
  integer a, b
  if (a > 0) then
    b = 1
  end if
  b = 2
end
`)
	g := Build(u)
	cond := g.StmtNode(u.Body[0])
	thenN := g.StmtNode(u.Body[0].(*lang.IfStmt).Then[0])
	merge := g.StmtNode(u.Body[1])
	idom := g.Dominators()
	if idom[g.Entry.ID] != g.Entry || idom[cond.ID] != g.Entry || idom[thenN.ID] != cond || idom[merge.ID] != cond || idom[g.Exit.ID] != merge {
		t.Errorf("immediate dominators %v", idom)
	}
	if !g.Dominates(g.Entry, merge) || !g.Dominates(cond, merge) {
		t.Error("entry and cond should dominate merge")
	}
	if g.Dominates(thenN, merge) {
		t.Error("then branch must not dominate merge")
	}
}

func TestWhileLoop(t *testing.T) {
	u := parse(t, `
program p
  integer i
  do while (i > 0)
    i = i - 1
  end do
end
`)
	g := Build(u)
	loops := g.NaturalLoops()
	if len(loops) != 1 || loops[0].Head.Kind != NWhileHead {
		t.Fatalf("while loop: %v", loops)
	}
}

func TestNestedLoops(t *testing.T) {
	u := parse(t, `
program p
  integer i, j, s
  do i = 1, 10
    do j = 1, 10
      s = s + 1
    end do
  end do
end
`)
	g := Build(u)
	loops := g.NaturalLoops()
	if len(loops) != 2 {
		t.Fatalf("loops: %d", len(loops))
	}
	outer, inner := loops[0], loops[1]
	if outer.Head.ID > inner.Head.ID {
		outer, inner = inner, outer
	}
	for _, n := range inner.Body() {
		if !outer.Contains(n) {
			t.Errorf("outer loop should contain inner node %v", n)
		}
	}
	ds, ok := outer.Stmt.(*lang.DoStmt)
	if !ok || ds.Var.Name != "i" {
		t.Errorf("outer loop stmt: %v", outer.Stmt)
	}
	if g.LoopFor(outer.Stmt) == nil {
		t.Error("LoopFor lookup failed")
	}
}

func TestReturnEdges(t *testing.T) {
	u := parse(t, `
program p
  integer a
  if (a > 0) then
    return
  end if
  a = 1
end
`)
	g := Build(u)
	retNode := g.StmtNode(u.Body[0].(*lang.IfStmt).Then[0])
	if len(retNode.Succs) != 1 || retNode.Succs[0] != g.Exit {
		t.Errorf("return should go to exit: %v", retNode.Succs)
	}
}

// --- HCG tests --------------------------------------------------------------

func buildHCG(t *testing.T, src string) *HProgram {
	t.Helper()
	hp, err := BuildHCG(context.Background(), check(t, src), Build)
	if err != nil {
		t.Fatal(err)
	}
	return hp
}

// rtopIndex returns each node's position in g's RTop order.
func rtopIndex(g *HGraph) map[*HNode]int {
	idx := map[*HNode]int{}
	for i, n := range g.RTop() {
		idx[n] = i
	}
	return idx
}

func TestHCGSections(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer i, j, s
  s = 0
  do i = 1, 10
    do j = 1, 10
      s = s + 1
    end do
  end do
  call sub1
end
subroutine sub1
  integer x
  x = 1
end
`)
	main := hp.UnitGraph("p")
	if main == nil {
		t.Fatal("no main graph")
	}
	// main section: entry, s=0, do-i, call, exit
	var doNode, callNode *HNode
	for _, n := range main.Nodes {
		switch n.Kind {
		case NDoHead:
			doNode = n
		case NCall:
			callNode = n
		}
	}
	if doNode == nil || callNode == nil {
		t.Fatal("missing do/call nodes")
	}
	if doNode.Body == nil || doNode.Body.Parent != doNode {
		t.Error("do body section missing or parent wrong")
	}
	// The inner loop is a node inside the outer body.
	var innerDo *HNode
	for _, n := range doNode.Body.Nodes {
		if n.Kind == NDoHead {
			innerDo = n
		}
	}
	if innerDo == nil {
		t.Error("inner do not nested in outer body")
	}
	if main.Cyclic {
		t.Error("structured program should not be cyclic")
	}
	if hp.UnitGraph("sub1") == nil {
		t.Error("subroutine graph missing")
	}
}

func TestHCGRTopOrder(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer a, b
  if (a > 0) then
    b = 1
  else
    b = 2
  end if
  b = 3
end
`)
	g := hp.UnitGraph("p")
	idx := rtopIndex(g)
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if idx[s] >= idx[n] {
				t.Errorf("rtop violated: succ %v not before %v", s, n)
			}
		}
	}
	if idx[g.Exit] != 0 {
		t.Errorf("exit should be first in rtop, got %d", idx[g.Exit])
	}
}

func TestHCGBackwardGotoMarksCyclic(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer i, n
  i = 0
10 continue
  i = i + 1
  if (i < n) goto 10
end
`)
	g := hp.UnitGraph("p")
	if !g.Cyclic {
		t.Error("backward goto should mark section cyclic")
	}
	// Still a DAG: rtop must satisfy the edge ordering.
	idx := rtopIndex(g)
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if idx[s] >= idx[n] {
				t.Errorf("edge %v -> %v violates rtop", n, s)
			}
		}
	}
}

func TestHCGForwardGotoIsDAGEdge(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer i
  i = 1
  goto 20
  i = 2
20 continue
  i = 3
end
`)
	g := hp.UnitGraph("p")
	if g.Cyclic {
		t.Error("forward goto must not mark section cyclic")
	}
	body := hp.Program.Main.Body
	gotoN, label := hp.StmtNode(body[1]), hp.StmtNode(body[3])
	if len(gotoN.Succs) != 1 || gotoN.Succs[0] != label {
		t.Errorf("goto's successors %v, want the labelled %v", gotoN.Succs, label)
	}
}

func TestHCGGotoOutOfLoop(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer i, n
  do i = 1, n
    if (i == 3) goto 20
  end do
20 continue
end
`)
	g := hp.UnitGraph("p")
	var doNode *HNode
	for _, n := range g.Nodes {
		if n.Kind == NDoHead {
			doNode = n
		}
	}
	if doNode == nil {
		t.Fatal("no do node")
	}
	if !doNode.Body.Cyclic {
		t.Error("loop body escaped by goto must be conservative (cyclic)")
	}
	if g.Cyclic {
		t.Error("enclosing section should stay acyclic for a forward escape")
	}
}

func TestHCGCallSites(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer i
  call a
  do i = 1, 3
    call b
  end do
end
subroutine a
  call b
end
subroutine b
  return
end
`)
	sitesB := hp.CallSites("b")
	if len(sitesB) != 2 {
		t.Fatalf("call sites of b: %d, want 2", len(sitesB))
	}
	// One site is nested inside the loop body section.
	nested := false
	for _, s := range sitesB {
		if s.Graph.Parent != nil {
			nested = true
		}
	}
	if !nested {
		t.Error("the loop-body call site should live in a loop section")
	}
	if len(hp.CallSites("a")) != 1 {
		t.Error("call sites of a")
	}
	if len(hp.CallSites("nosuch")) != 0 {
		t.Error("phantom call sites")
	}
}

func TestHCGStmtNodeIndex(t *testing.T) {
	prog := check(t, `
program p
  integer i, s
  do i = 1, 3
    s = s + i
  end do
  if (s > 9) then
    s = 1
  elseif (s > 0) then
    s = 2
  end if
end
subroutine q
  integer k
  k = 1
end
`)
	hp, err := BuildHCG(context.Background(), prog, Build)
	if err != nil {
		t.Fatal(err)
	}
	// An IF owns one NIfCond node per condition and indexes to the main one.
	if n := hp.StmtNode(prog.Main.Body[1]); n == nil || n.Kind != NIfCond || n.CondIndex != -1 {
		t.Errorf("IF indexes to %v, want its main condition", n)
	}
	loop := prog.Main.Body[0].(*lang.DoStmt)
	n := hp.StmtNode(loop)
	if n == nil || n.Kind != NDoHead {
		t.Fatalf("loop node: %v", n)
	}
	inner := loop.Body[0]
	in := hp.StmtNode(inner)
	if in == nil || in.Graph != n.Body {
		t.Error("inner statement should index into the loop-body section")
	}
	// Every statement of every unit finds its own node, in the HCG and in
	// its unit's flat CFG.
	for _, u := range prog.Units() {
		g := Build(u)
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			if n := hp.StmtNode(s); n == nil || n.Stmt != s || n.Graph.Unit != u {
				t.Errorf("%s: statement %d indexes to %v", u.Name, s.ID(), n)
			}
			if n := g.StmtNode(s); n == nil || n.Stmt != s {
				t.Errorf("%s: statement %d indexes to flat node %v", u.Name, s.ID(), n)
			}
			return true
		})
	}
	// A statement of another program has a node in neither, though it
	// carries a number this program's statements have, nor has one never
	// numbered.
	other := check(t, "program o\n  integer a\n  a = 1\n  a = 2\nend\n")
	ghost := &lang.ContinueStmt{}
	for _, s := range []lang.Stmt{other.Main.Body[0], other.Main.Body[1], ghost} {
		if n := hp.StmtNode(s); n != nil {
			t.Errorf("statement %d of another program indexes to %v", s.ID(), n)
		}
		if n := Build(prog.Main).StmtNode(s); n != nil {
			t.Errorf("statement %d of another program indexes to flat node %v", s.ID(), n)
		}
	}
}

// TestBuildHCGCanceled checks that a build under a cancelled context
// returns the typed cancellation error instead of a graph.
func TestBuildHCGCanceled(t *testing.T) {
	prog := check(t, "program p\n  integer i, s\n  do i = 1, 3\n    s = s + i\n  end do\nend\n")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hp, err := BuildHCG(ctx, prog, Build)
	if !errors.Is(err, comperr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if hp != nil {
		t.Error("a cancelled build returned a graph")
	}
	if _, err := BuildHCG(context.Background(), prog, Build); err != nil {
		t.Fatalf("uncancelled build: %v", err)
	}
}

func TestNaturalLoopsDeterministic(t *testing.T) {
	u := parse(t, `
program p
  integer i, j, k, s
  do i = 1, 2
    s = s + 1
  end do
  do j = 1, 2
    do k = 1, 2
      s = s + 1
    end do
  end do
end
`)
	g := Build(u)
	first := g.NaturalLoops()
	for trial := 0; trial < 5; trial++ {
		again := g.NaturalLoops()
		if len(again) != len(first) {
			t.Fatal("loop count changed")
		}
		for i := range again {
			if again[i].Head != first[i].Head {
				t.Fatal("loop order not deterministic")
			}
		}
	}
}

// unfilteredLoop is one loop NaturalLoops should find: its statement and
// its node set.
type unfilteredLoop struct {
	stmt  lang.Stmt
	nodes map[*Node]bool
}

// unfilteredLoops is NaturalLoops with every edge u→h tested for
// dominance: each loop's statement and node set, by head.
func unfilteredLoops(g *Graph) map[*Node]*unfilteredLoop {
	loops := map[*Node]*unfilteredLoop{}
	for _, u := range g.Nodes {
		for _, h := range u.Succs {
			if !g.Dominates(h, u) {
				continue
			}
			l := loops[h]
			if l == nil {
				l = &unfilteredLoop{nodes: map[*Node]bool{h: true}}
				if h.Kind == NDoHead || h.Kind == NWhileHead {
					l.stmt = h.Stmt
				}
				loops[h] = l
			}
			for stack := []*Node{u}; len(stack) > 0; {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !l.nodes[n] {
					l.nodes[n] = true
					stack = append(stack, n.Preds...)
				}
			}
		}
	}
	return loops
}

// TestNaturalLoopsMatchUnfiltered checks that testing only the edges that
// go back in reverse postorder finds the loops that testing every edge
// finds: on every unit of the small kernels, the example corpus, progen
// seeds 0–199, a loop that two GOTOs make irreducible, and a reachable and
// an unreachable GOTO to itself.
func TestNaturalLoopsMatchUnfiltered(t *testing.T) {
	srcs := map[string]string{"irreducible": `
program p
  integer i, n
  i = 0
  if (n > 0) goto 20
10 continue
  i = i + 1
20 continue
  i = i + 2
  if (i < n) goto 10
end
`, "self-loops": `
program p
  integer i
  if (i > 0) goto 20
10 goto 10
20 continue
  goto 30
40 goto 40
30 continue
end
`}
	for _, k := range kernels.All(kernels.Small) {
		srcs[k.Name] = k.Source
	}
	paths, err := filepath.Glob("../../examples/corpus/*.fl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(src)
	}
	for seed := int64(0); seed < 200; seed++ {
		cfg := progen.Config{N: 24, MaxBlocks: 8, Subroutines: true}
		srcs[fmt.Sprintf("progen seed %d", seed)] = progen.Generate(rand.New(rand.NewSource(seed)), cfg)
	}
	for name, src := range srcs {
		prog := check(t, src)
		for _, u := range prog.Units() {
			g := Build(u)
			got, want := g.NaturalLoops(), unfilteredLoops(g)
			if len(got) != len(want) {
				t.Errorf("%s, unit %s: %d loops, want %d", name, u.Name, len(got), len(want))
			}
			for i, l := range got {
				w := want[l.Head]
				nodes := map[*Node]bool{}
				for _, n := range g.Nodes {
					if l.Contains(n) {
						nodes[n] = true
					}
				}
				sorted := slices.IsSortedFunc(l.Body(), func(a, b *Node) int { return a.ID - b.ID })
				if w == nil || l.Stmt != w.stmt || !maps.Equal(nodes, w.nodes) || len(l.Body()) != len(nodes) || !sorted {
					t.Errorf("%s, unit %s: loop at %v differs from the unfiltered one", name, u.Name, l.Head)
				}
				if i > 0 && got[i-1].Head.ID >= l.Head.ID {
					t.Errorf("%s, unit %s: loops out of head order", name, u.Name)
				}
				if l.Stmt != nil && g.LoopFor(l.Stmt) != l {
					t.Errorf("%s, unit %s: LoopFor misses the loop at %v", name, u.Name, l.Head)
				}
			}
		}
	}
}

// TestIterationHoldsTheBody checks that a DO loop's iteration is its
// header followed by exactly the nodes of the statements nested in its
// body, on every DO of the small kernels, the example corpus and the
// parallelizer's GOTO shapes.
func TestIterationHoldsTheBody(t *testing.T) {
	var paths []string
	for _, glob := range []string{"../../examples/corpus/*.fl", "../parallel/testdata/*.fl"} {
		p, err := filepath.Glob(glob)
		if err != nil || len(p) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(p))
		}
		paths = append(paths, p...)
	}
	srcs := map[string]string{}
	for _, k := range kernels.All(kernels.Small) {
		srcs[k.Name] = k.Source
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(src)
	}
	loops := 0
	for name, src := range srcs {
		prog := check(t, src)
		for _, u := range prog.Units() {
			g := Build(u)
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				d, ok := s.(*lang.DoStmt)
				if !ok {
					return true
				}
				loops++
				nested := map[lang.Stmt]bool{}
				lang.WalkStmts(d.Body, func(s lang.Stmt) bool {
					nested[s] = true
					return true
				})
				iter := g.Iteration(d)
				if iter[0] != g.StmtNode(d) {
					t.Errorf("%s: %s: iteration starts at %v, not the header", name, lang.LoopName(u, d), iter[0])
				}
				for _, n := range g.Nodes {
					if in := iter[0].Encloses(n); in != nested[n.Stmt] {
						t.Errorf("%s: %s: %v: in the iteration %v, nested in the body %v", name, lang.LoopName(u, d), n, in, nested[n.Stmt])
					}
				}
				return true
			})
		}
	}
	t.Logf("%d DO loops checked", loops)
}

// TestLeaves asks whether control can leave the DO loop on i other than by
// ending an iteration.
func TestLeaves(t *testing.T) {
	cases := []struct {
		name, body string
		want       bool
	}{
		{"structured", "if (i > 1) then\n  a = 1\nend if\ndo j = 1, 2\n  a = j\nend do\ndo while (a > 0)\n  a = a - 1\nend do", false},
		{"empty", "", false},
		{"return", "a = i\nreturn", true},
		{"stop in an if", "if (i > 1) then\n  stop\nend if", true},
		{"forward goto inside", "if (i > 1) goto 10\na = i\n10 a = a + 1", false},
		{"backward goto inside", "a = 3\n10 a = a - 1\nif (a > 0) goto 10", false},
		{"goto out", "if (i > 1) goto 20", true},
		{"goto to its own label", "if (i > 1) goto 30", true},
		{"inner loop jumps to the outer body", "do j = 1, 2\n  if (j > 1) goto 10\nend do\n10 continue", false},
	}
	for _, tc := range cases {
		u := parse(t, "program p\n  integer a, i, j\n30 do i = 1, 4\n"+tc.body+"\n  end do\n20 continue\nend\n")
		g := Build(u)
		if got := g.Leaves(u.Body[0].(*lang.DoStmt)); got != tc.want {
			t.Errorf("%s: Leaves = %v, want %v", tc.name, got, tc.want)
		}
	}

	// An unreachable loop has an iteration too, and an inner loop left by
	// a jump to its enclosing body is left.
	u := parse(t, "program p\n  integer a, i, j\n  stop\n  do i = 1, 4\n    do j = 1, 2\n      if (j > 1) goto 10\n    end do\n10  return\n  end do\nend\n")
	g := Build(u)
	outer := u.Body[1].(*lang.DoStmt)
	if !g.Leaves(outer) || !g.Leaves(outer.Body[0].(*lang.DoStmt)) {
		t.Errorf("unreachable loops: Leaves = %v (outer), %v (inner); want both true", g.Leaves(outer), g.Leaves(outer.Body[0].(*lang.DoStmt)))
	}
}
