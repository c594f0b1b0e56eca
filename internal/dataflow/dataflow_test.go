package dataflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/sem"
)

func setup(t *testing.T, src string) *Context {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return NewContext(info)
}

// names lists the names of the scalars a fact list holds.
func names(ids []*lang.Ident) []string {
	var out []string
	for _, id := range ids {
		out = append(out, id.Name)
	}
	return out
}

// has reports whether m holds what name denotes in unit u.
func has(fc *Context, m *ModSet, u *lang.Unit, name string) bool {
	return m.Has(fc.Info.Scope(u).Slot(name))
}

func TestFactsAssign(t *testing.T) {
	prog, _ := lang.Parse("program p\n integer i, j\n real x(10), y(10)\n x(i+1) = y(j) + i\nend\n")
	s := prog.Main.Body[0]
	f := Facts(s)
	if !reflect.DeepEqual(names(f.ScalarReads), []string{"i", "j", "i"}) {
		t.Errorf("reads: %v", f.ScalarReads)
	}
	if len(f.ArrayWrites) != 1 || f.ArrayWrites[0].Array != "x" {
		t.Errorf("array writes: %v", f.ArrayWrites)
	}
	if len(f.ArrayReads) != 1 || f.ArrayReads[0].Array != "y" {
		t.Errorf("array reads: %v", f.ArrayReads)
	}
}

func TestFactsDoHeader(t *testing.T) {
	prog, _ := lang.Parse("program p\n integer i, n\n do i = 1, n\n continue\n end do\nend\n")
	f := Facts(prog.Main.Body[0])
	if !reflect.DeepEqual(names(f.ScalarWrites), []string{"i"}) {
		t.Errorf("writes: %v", f.ScalarWrites)
	}
	if !reflect.DeepEqual(names(f.ScalarReads), []string{"n"}) {
		t.Errorf("reads: %v", f.ScalarReads)
	}
}

func TestFactsIntrinsicNotArray(t *testing.T) {
	src := "program p\n integer i, j\n i = mod(j, 2)\nend\n"
	prog, _ := lang.Parse(src)
	if _, err := sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	f := Facts(prog.Main.Body[0])
	if len(f.ArrayReads) != 0 {
		t.Errorf("intrinsic counted as array read: %v", f.ArrayReads)
	}
}

func TestModInterprocedural(t *testing.T) {
	fc := setup(t, `
program main
  integer g1, g2
  real ga(10)
  call outer
end
subroutine outer
  integer l
  l = 1
  g1 = 2
  call inner
end
subroutine inner
  ga(1) = 0.0
  g2 = 3
end
`)
	outer := fc.Info.Program.Unit("outer")
	g := fc.Mod.GlobalsModifiedBy(outer)
	if !has(fc, g, outer, "g1") || !has(fc, g, outer, "g2") || !has(fc, g, outer, "ga") {
		t.Errorf("outer global mods: scalars=%v arrays=%v", g.SortedScalars(), g.SortedArrays())
	}
	if has(fc, g, outer, "l") {
		t.Error("local leaked into global summary")
	}
	if all := fc.StmtsMod(outer.Body); !has(fc, all, outer, "l") || !has(fc, all, outer, "g2") {
		t.Errorf("body set %v should include locals and the callee's globals", all.SortedScalars())
	}
}

func TestStmtsModWithCalls(t *testing.T) {
	fc := setup(t, `
program main
  integer g
  integer i
  do i = 1, 3
    call bump
  end do
end
subroutine bump
  g = g + 1
end
`)
	loop := fc.Info.Program.Main.Body[0].(*lang.DoStmt)
	mod := fc.StmtsMod(loop.Body)
	if !has(fc, mod, fc.Info.Program.Main, "g") {
		t.Errorf("call effect missing: %v", mod.SortedScalars())
	}
}

// TestWrittenMatchesFacts checks that the write sets, which read each
// statement's target directly, see what Facts lists as its writes and
// calls, over every statement of the kernels and of generated programs.
func TestWrittenMatchesFacts(t *testing.T) {
	var srcs []string
	for _, k := range kernels.All(kernels.Small) {
		srcs = append(srcs, k.Source)
	}
	for seed := int64(0); seed < 12; seed++ {
		srcs = append(srcs, progen.Generate(rand.New(rand.NewSource(seed)), progen.Config{N: 24, MaxBlocks: 8, Subroutines: true}))
	}
	n := 0
	for _, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sem.Check(prog); err != nil {
			t.Fatal(err)
		}
		for _, u := range prog.Units() {
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				n++
				f := Facts(s)
				var want []string
				for _, w := range f.ScalarWrites {
					want = append(want, fmt.Sprint("slot ", w.Slot))
				}
				for _, w := range f.ArrayWrites {
					want = append(want, fmt.Sprint("slot ", w.Slot))
				}
				for _, c := range f.Calls {
					want = append(want, "call "+c)
				}
				var got []string
				switch slot, call := written(s); {
				case call != nil:
					got = []string{"call " + call.Name}
				case slot != 0:
					got = []string{fmt.Sprint("slot ", slot)}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s at %v: written gives %v, Facts %v", u.Name, s.Pos(), got, want)
				}
				return true
			})
		}
	}
	if n < 500 {
		t.Errorf("only %d statements checked", n)
	}
}

// TestContextStmtsModMemoized checks that the fact context builds one
// modification set per statement list until Invalidate: a list is found by
// its first statement's number and its length, so two lists built on the
// fly around one statement share the set, and a copy of a body shares the
// body's.
func TestContextStmtsModMemoized(t *testing.T) {
	fc := setup(t, `
program main
  integer g, i, k
  real a(8)
  do i = 1, 8
    a(i) = real(i)
    k = i
  end do
end
`)
	body := fc.Info.Program.Main.Body[0].(*lang.DoStmt).Body
	first := fc.StmtsMod(body)
	if again := fc.StmtsMod(slices.Clone(body)); again != first {
		t.Error("two calls on one body built two sets")
	}
	if !reflect.DeepEqual(first.SortedArrays(), []string{"a"}) || !reflect.DeepEqual(first.SortedScalars(), []string{"k"}) {
		t.Errorf("body set = %v %v, want k and a", first.SortedScalars(), first.SortedArrays())
	}
	one := fc.StmtsMod([]lang.Stmt{body[0]})
	if fc.StmtsMod([]lang.Stmt{body[0]}) != one {
		t.Error("two one-statement lists of one statement built two sets")
	}
	if !reflect.DeepEqual(one.SortedArrays(), []string{"a"}) || len(one.SortedScalars()) != 0 {
		t.Errorf("one-statement set = %v %v, want just a", one.SortedScalars(), one.SortedArrays())
	}
	fc.Invalidate()
	if fc.StmtsMod(body) == first || fc.StmtsMod([]lang.Stmt{body[0]}) == one {
		t.Error("Invalidate kept a memoized set")
	}
}

func TestReachingDefs(t *testing.T) {
	fc := setup(t, `
program p
  integer a, b
  a = 1
  if (b > 0) then
    a = 2
  end if
  b = a
end
`)
	g := fc.Graph(fc.Info.Program.Main)
	rd := ComputeReaching(g, fc)
	// At "b = a", both definitions of a reach.
	var lastAssign *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.NStmt {
			if as, ok := n.Stmt.(*lang.AssignStmt); ok {
				if id, ok := as.Lhs.(*lang.Ident); ok && id.Name == "b" {
					lastAssign = n
				}
			}
		}
	}
	if lastAssign == nil {
		t.Fatal("b = a not found")
	}
	defs := rd.DefsOf(lastAssign, fc.Info.Globals["a"].Slot)
	if len(defs) != 2 {
		t.Errorf("defs of a at b=a: %d, want 2", len(defs))
	}
}

func TestReachingDefsLoop(t *testing.T) {
	fc := setup(t, `
program p
  integer i, s, n
  s = 0
  do i = 1, n
    s = s + 1
  end do
  n = s
end
`)
	g := fc.Graph(fc.Info.Program.Main)
	rd := ComputeReaching(g, fc)
	// Inside the loop, s has two reaching defs: s=0 and s=s+1.
	loop := fc.Info.Program.Main.Body[1].(*lang.DoStmt)
	inner := g.StmtNode(loop.Body[0])
	defs := rd.DefsOf(inner, fc.Info.Globals["s"].Slot)
	if len(defs) != 2 {
		t.Errorf("defs of s in loop: %d, want 2", len(defs))
	}
}

func TestReachingDefsCallSite(t *testing.T) {
	fc := setup(t, `
program p
  integer g
  g = 1
  call clobber
  g = g
end
subroutine clobber
  g = 2
end
`)
	g := fc.Graph(fc.Info.Program.Main)
	rd := ComputeReaching(g, fc)
	var last *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.NStmt {
			if _, ok := n.Stmt.(*lang.AssignStmt); ok {
				last = n
			}
		}
	}
	defs := rd.DefsOf(last, fc.Info.Globals["g"].Slot)
	// Only the call's definition reaches (it kills g=1).
	if len(defs) != 1 || defs[0].Kind != cfg.NCall {
		t.Fatalf("defs: %v", defs)
	}
	if _, ok := defs[0].Stmt.(*lang.CallStmt); !ok {
		t.Errorf("reaching def should be the call, got %v", defs[0])
	}
}

func TestInvariantIn(t *testing.T) {
	fc := setup(t, `
program p
  integer i, n, m
  real x(10)
  do i = 1, n
    m = i
    x(i) = real(n)
  end do
end
`)
	loop := fc.Info.Program.Main.Body[0].(*lang.DoStmt)
	mod := fc.StmtsMod(loop.Body)

	sc := fc.Info.Scope(fc.Info.Program.Main)
	ident := func(name string) *lang.Ident { return &lang.Ident{Name: name, Slot: sc.Slot(name)} }
	i := sc.Slot("i")
	if !InvariantIn(ident("n"), i, mod) {
		t.Error("n should be invariant")
	}
	if InvariantIn(ident("m"), i, mod) {
		t.Error("m is assigned in the loop")
	}
	if InvariantIn(ident("i"), i, mod) {
		t.Error("the loop variable is never invariant")
	}
	xRef := &lang.ArrayRef{Name: "x", Slot: sc.Slot("x"), Args: []lang.Expr{&lang.IntLit{Value: 1}}}
	if InvariantIn(xRef, i, mod) {
		t.Error("x is written in the loop")
	}
	// An invariant operand after a varying one leaves the sum varying.
	for _, e := range []lang.Expr{
		&lang.Binary{Op: lang.OpAdd, X: ident("m"), Y: ident("n")},
		&lang.Binary{Op: lang.OpAdd, X: xRef, Y: ident("n")},
	} {
		if InvariantIn(e, i, mod) {
			t.Errorf("%s reads a variable the loop assigns", lang.FormatExpr(e))
		}
	}
}

func TestCondFactsElifArms(t *testing.T) {
	prog, _ := lang.Parse(`
program p
  integer a, b, c
  real x(10)
  if (a > 0) then
    c = 1
  else if (x(b) > 0.0) then
    c = 2
  end if
end
`)
	if _, err := sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	ifs := prog.Main.Body[0].(*lang.IfStmt)
	main := CondFacts(ifs, -1)
	if !slices.Equal(names(main.ScalarReads), []string{"a"}) {
		t.Errorf("main cond reads: %v", main.ScalarReads)
	}
	arm := CondFacts(ifs, 0)
	if len(arm.ArrayReads) != 1 || arm.ArrayReads[0].Array != "x" {
		t.Errorf("elif arm array reads: %v", arm.ArrayReads)
	}
	if !slices.Equal(names(arm.ScalarReads), []string{"b"}) {
		t.Errorf("elif arm scalar reads: %v", arm.ScalarReads)
	}
	// The statement's facts read every condition; the CFG's main condition
	// node reads the main condition alone.
	whole := Facts(ifs)
	if !slices.Equal(names(whole.ScalarReads), []string{"a", "b"}) || len(whole.ArrayReads) != 1 {
		t.Errorf("IF statement reads %v %v, want [a b] and x", whole.ScalarReads, whole.ArrayReads)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	fc := NewContext(info)
	if got := names(fc.Stmt(ifs).ScalarReads); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("Context.Stmt(if) reads %v, want [a b]", got)
	}
	if got := names(fc.Cond(ifs, -1).ScalarReads); !slices.Equal(got, []string{"a"}) {
		t.Errorf("Context.Cond(if, -1) reads %v, want [a]", got)
	}
	g := fc.Graph(prog.Main)
	if got := names(fc.Node(g.StmtNode(ifs)).ScalarReads); !slices.Equal(got, []string{"a"}) {
		t.Errorf("the IF's CFG node reads %v, want [a]", got)
	}
}

func TestNodeFactsEntryExit(t *testing.T) {
	fc := setup(t, "program p\n integer a\n a = 1\nend\n")
	g := fc.Graph(fc.Info.Program.Main)
	for _, n := range []*cfg.Node{g.Entry, g.Exit} {
		if f := fc.Node(n); len(f.ScalarReads)+len(f.ScalarWrites) != 0 {
			t.Errorf("%v node must have no facts", n)
		}
	}
}
