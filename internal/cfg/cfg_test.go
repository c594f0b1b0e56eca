package cfg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/comperr"
	"repro/internal/lang"
)

func parse(t *testing.T, src string) *lang.Unit {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog.Main
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
	if loops[0].Head != head || !loops[0].Contains(body) || len(loops[0].Nodes) != 2 {
		t.Errorf("loop contents wrong: %v", loops[0].Body())
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
	if len(l.Nodes) != 4 {
		t.Errorf("loop nodes = %d, want 4: %v", len(l.Nodes), l.Body())
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
	idom := g.Dominators()
	cond := g.Entry.Succs[0]
	thenN := cond.Succs[0]
	var merge *Node
	for _, s := range cond.Succs {
		if s != thenN {
			merge = s
		}
	}
	if merge == nil {
		merge = thenN.Succs[0]
	}
	if !Dominates(idom, g.Entry, merge) || !Dominates(idom, cond, merge) {
		t.Error("entry and cond should dominate merge")
	}
	if Dominates(idom, thenN, merge) {
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
	for n := range inner.Nodes {
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
	retNode := g.StmtNode[u.Body[0].(*lang.IfStmt).Then[0]]
	if len(retNode.Succs) != 1 || retNode.Succs[0] != g.Exit {
		t.Errorf("return should go to exit: %v", retNode.Succs)
	}
}

// --- HCG tests --------------------------------------------------------------

func buildHCG(t *testing.T, src string) *HProgram {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return BuildHCG(prog)
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
		case HDo:
			doNode = n
		case HCall:
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
		if n.Kind == HDo {
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
	idx := g.RTopIndex()
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
	idx := g.RTopIndex()
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
		if n.Kind == HDo {
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

func TestHCGDominates(t *testing.T) {
	hp := buildHCG(t, `
program p
  integer a, b
  a = 1
  if (a > 0) then
    b = 1
  end if
  b = 2
end
`)
	g := hp.UnitGraph("p")
	var assign1, ifn, last *HNode
	for _, n := range g.Nodes {
		switch {
		case n.Kind == HStmt && assign1 == nil:
			assign1 = n
		case n.Kind == HIf:
			ifn = n
		case n.Kind == HStmt:
			last = n
		}
	}
	if !g.Dominates(g.Entry, g.Exit) || !g.Dominates(assign1, ifn) {
		t.Error("expected domination missing")
	}
	if ifn == nil || last == nil {
		t.Fatal("nodes not found")
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
	prog, err := lang.Parse(`
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
`)
	if err != nil {
		t.Fatal(err)
	}
	hp := BuildHCG(prog)
	// An IF owns one HIf node per condition and indexes to the main one.
	if n := hp.StmtNode[prog.Main.Body[1]]; n == nil || n.Kind != HIf || n.CondIndex != -1 {
		t.Errorf("IF indexes to %v, want its main condition", n)
	}
	loop := prog.Main.Body[0].(*lang.DoStmt)
	n := hp.StmtNode[loop]
	if n == nil || n.Kind != HDo {
		t.Fatalf("loop node: %v", n)
	}
	inner := loop.Body[0]
	in := hp.StmtNode[inner]
	if in == nil || in.Graph != n.Body {
		t.Error("inner statement should index into the loop-body section")
	}
}

// TestBuildHCGCanceled checks that a build under a cancelled context
// returns the typed cancellation error instead of a graph.
func TestBuildHCGCanceled(t *testing.T) {
	prog, err := lang.Parse("program p\n  integer i, s\n  do i = 1, 3\n    s = s + i\n  end do\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hp, err := BuildHCGCtx(ctx, prog)
	if !errors.Is(err, comperr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if hp != nil {
		t.Error("a cancelled build returned a graph")
	}
	if _, err := BuildHCGCtx(context.Background(), prog); err != nil {
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
