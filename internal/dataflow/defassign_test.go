package dataflow

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfg"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/sem"
)

// buildGraph parses and checks src, and builds its main unit's CFG and
// assignment solution; slot resolves a name of the main unit.
func buildGraph(t *testing.T, src string) (g *cfg.Graph, a *Assigned, slot func(string) int32) {
	t.Helper()
	fc := setup(t, src)
	g = fc.Graph(fc.Info.Program.Main)
	return g, ComputeAssigned(g.Nodes, fc), fc.Info.Scope(fc.Info.Program.Main).Slot
}

// nodeAt finds the first node (in reverse postorder) anchored to a source
// line.
func nodeAt(t *testing.T, g *cfg.Graph, line int) *cfg.Node {
	t.Helper()
	for _, n := range g.ReversePostorder() {
		if n.Pos().Line == line {
			return n
		}
	}
	// Unreachable statements don't appear in the reverse postorder; fall
	// back to the full node list.
	for _, n := range g.Nodes {
		if n.Pos().Line == line {
			return n
		}
	}
	t.Fatalf("no CFG node at line %d", line)
	return nil
}

// TestComputeDefinite asks ComputeAssigned for definite assignment (Must)
// and for assignment on some path (May) at chosen reads.
func TestComputeDefinite(t *testing.T) {
	// must and may are the expected answers of Must and May.
	type query struct {
		line      int
		v         string
		must, may bool
	}
	cases := []struct {
		name    string
		src     string
		queries []query
	}{
		{
			name: "if-else diamond",
			src: `program p
  integer a, b, c
  real x
  b = 1
  if (b > 0) then
    a = 1
  else
    a = 2
    c = 3
  end if
  x = real(a) + real(c)
end
`,
			queries: []query{
				{11, "a", true, true},   // assigned on both branches
				{11, "c", false, true},  // else branch only
				{11, "b", true, true},   // straight-line
				{11, "x", false, false}, // written by this statement, not before it
			},
		},
		{
			name: "elif chain without else",
			src: `program p
  integer a, m
  m = 2
  if (m == 1) then
    a = 1
  else if (m == 2) then
    a = 2
  end if
  m = a
end
`,
			queries: []query{
				{9, "a", false, true}, // fall-through path assigns nothing
				{9, "m", true, true},
			},
		},
		{
			name: "goto skips the assignment",
			src: `program p
  integer a, b
  goto 10
  a = 1
10 continue
  b = a
end
`,
			queries: []query{
				// The only assignment of a is unreachable, so no path
				// to the read assigns it.
				{6, "a", false, false},
				// The skipped assignment itself is unreachable: no path
				// reaches it, so must holds vacuously and may does not.
				{4, "a", true, false},
			},
		},
		{
			name: "do loop body may not execute",
			src: `program p
  integer i, n, s
  n = 4
  do i = 1, n
    s = 2
  end do
  i = i + s
end
`,
			queries: []query{
				{7, "s", false, true}, // zero-trip loop skips the body
				{7, "i", true, true},  // the DO header writes i on every path
				{7, "n", true, true},
				{5, "s", false, true}, // the back edge brings s = 2 round
			},
		},
		{
			name: "while body may not execute",
			src: `program p
  integer w, t
  w = 3
  do while (w >= 1)
    t = w
    w = w - 1
  end do
  w = t
end
`,
			queries: []query{
				{8, "t", false, true},
				{8, "w", true, true},
			},
		},
		{
			name: "goto-formed loop assigns before the read",
			src: `program p
  integer w, s
  w = 3
10 continue
  s = w
  w = w - 1
  if (w >= 1) goto 10
  w = s
end
`,
			queries: []query{
				{8, "s", true, true},  // the loop body runs at least once
				{5, "s", false, true}, // assigned on the way round only
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, a, slot := buildGraph(t, tc.src)
			for _, q := range tc.queries {
				n := nodeAt(t, g, q.line)
				if got := a.Must(n, slot(q.v)); got != q.must {
					t.Errorf("line %d: Must(%q) = %v, want %v", q.line, q.v, got, q.must)
				}
				if got := a.May(n, slot(q.v)); got != q.may {
					t.Errorf("line %d: May(%q) = %v, want %v", q.line, q.v, got, q.may)
				}
			}
		})
	}
}

// TestCallAssignsCalleeGlobals covers the one write that is no statement
// of the unit: a call assigns every global scalar the callee may modify.
func TestCallAssignsCalleeGlobals(t *testing.T) {
	g, a, slot := buildGraph(t, `program p
  integer g, h
  call set
  h = g
end
subroutine set
  g = 2
end
`)
	n := nodeAt(t, g, 4)
	if !a.Must(n, slot("g")) || !a.May(n, slot("g")) {
		t.Errorf("g after the call: Must %v, May %v; want both true", a.Must(n, slot("g")), a.May(n, slot("g")))
	}
	if a.May(n, slot("h")) {
		t.Error("h is assigned only at the read's own statement")
	}
}

// referenceDefinite is the map-based definite-assignment analysis the
// bitset solve replaced, kept as the oracle's reference, over region: a
// run of a unit's flat CFG nodes entered at its first node, whose edges
// back to that node and out of the region are dropped. out(n) = in(n) ∪
// writes(n), in(n) = ∩ over predecessors, every set starting from the
// universe of the region's scalars except the entry's. Nodes the entry
// does not reach keep the universe. It returns the entry sets, the
// universe (every scalar the region reads or writes, calls included) and
// the reached nodes.
func referenceDefinite(region []*cfg.Node, fc *Context) (map[*cfg.Node]map[int32]bool, map[int32]bool, []*cfg.Node) {
	entry := region[0]
	inRegion := map[*cfg.Node]bool{}
	for _, n := range region {
		inRegion[n] = true
	}
	reached := []*cfg.Node{entry}
	seen := map[*cfg.Node]bool{entry: true}
	for i := 0; i < len(reached); i++ {
		for _, s := range reached[i].Succs {
			if inRegion[s] && !seen[s] {
				seen[s] = true
				reached = append(reached, s)
			}
		}
	}

	univ := map[int32]bool{}
	gen := map[*cfg.Node]map[int32]bool{}
	for _, n := range region {
		f := fc.Node(n)
		w := map[int32]bool{}
		for _, v := range f.ScalarWrites {
			w[v.Slot] = true
			univ[v.Slot] = true
		}
		for _, callee := range f.Calls {
			if cu := fc.Info.Program.Unit(callee); cu != nil {
				fc.Mod.GlobalsModifiedBy(cu).Each(func(sym *sem.Symbol) {
					if sym.Kind == sem.ScalarSym {
						w[sym.Slot] = true
						univ[sym.Slot] = true
					}
				})
			}
		}
		for _, v := range f.ScalarReads {
			univ[v.Slot] = true
		}
		gen[n] = w
	}

	in := map[*cfg.Node]map[int32]bool{}
	out := map[*cfg.Node]map[int32]bool{}
	full := func() map[int32]bool {
		m := make(map[int32]bool, len(univ))
		for v := range univ {
			m[v] = true
		}
		return m
	}
	for _, n := range region {
		if n == entry {
			in[n] = map[int32]bool{}
			out[n] = map[int32]bool{}
			continue
		}
		in[n] = full()
		out[n] = full()
	}
	for v := range gen[entry] {
		out[entry][v] = true
	}

	changed := true
	for changed {
		changed = false
		for _, n := range reached[1:] {
			ni := in[n]
			for v := range ni {
				keep := true
				for _, p := range n.Preds {
					if inRegion[p] && !out[p][v] {
						keep = false
						break
					}
				}
				if !keep {
					delete(ni, v)
					changed = true
				}
			}
			no := out[n]
			for v := range no {
				if !ni[v] && !gen[n][v] {
					delete(no, v)
					changed = true
				}
			}
		}
	}
	return in, univ, reached
}

// oracleInputs returns every program the assignment oracle reads: the
// kernels at both sizes, 200 generated programs drawn the way the service
// benchmark's mix draws them, the shipped corpus, the lint test inputs and
// the parallelizer's loops with a GOTO in the body.
func oracleInputs(t *testing.T) map[string]string {
	t.Helper()
	in := map[string]string{}
	for _, size := range []kernels.Size{kernels.Small, kernels.Default} {
		for _, k := range kernels.All(size) {
			in[fmt.Sprintf("kernel %s size %d", k.Name, size)] = k.Source
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := progen.Config{N: 16 + rng.Intn(33), MaxBlocks: 4 + rng.Intn(9), Subroutines: rng.Intn(3) == 0}
		in[fmt.Sprintf("progen seed %d", seed)] = progen.Generate(rng, cfg)
	}
	for _, dir := range []string{"../../examples/corpus", "../lint/testdata", "../parallel/testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.fl"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs under %s: %v", dir, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			in[path] = string(src)
		}
	}
	return in
}

// TestAssignedOracle checks the bitset solve against two references for
// every scalar of a unit at every reachable node, which covers every
// scalar read: Must against the map-based definite assignment, May
// against "ComputeReaching has a definition of v reaching n". It checks
// the solve over one iteration of every DO loop, entered at the header
// with the edges back to it dropped, against the map-based reference run
// on the same region.
func TestAssignedOracle(t *testing.T) {
	checks, loopChecks, loops := 0, 0, 0
	for name, src := range oracleInputs(t) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			t.Fatalf("%s: sem: %v", name, err)
		}
		fc := NewContext(info)
		for _, u := range prog.Units() {
			g := fc.Graph(u)
			a := ComputeAssigned(g.Nodes, fc)
			must, univ, reached := referenceDefinite(g.Nodes, fc)
			if len(reached) != len(g.ReversePostorder()) {
				t.Errorf("%s: unit %s: the reference reaches %d nodes, the reverse postorder %d", name, u.Name, len(reached), len(g.ReversePostorder()))
			}
			rd := ComputeReaching(g, fc)
			for _, n := range reached {
				for v := range univ {
					checks++
					if got, want := a.Must(n, v), must[n][v]; got != want {
						t.Errorf("%s: unit %s, %v: Must(%d) = %v, reference %v", name, u.Name, n, v, got, want)
					}
					if got, want := a.May(n, v), len(rd.DefsOf(n, v)) > 0; got != want {
						t.Errorf("%s: unit %s, %v: May(%d) = %v, reaching definitions say %v", name, u.Name, n, v, got, want)
					}
				}
			}
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				d, ok := s.(*lang.DoStmt)
				if !ok {
					return true
				}
				loops++
				iter := g.Iteration(d)
				a := ComputeAssigned(iter, fc)
				must, univ, reached := referenceDefinite(iter, fc)
				for _, n := range reached[1:] {
					for v := range univ {
						loopChecks++
						if got, want := a.Must(n, v), must[n][v]; got != want {
							t.Errorf("%s: %s, %v: Must(%d) over one iteration = %v, reference %v", name, lang.LoopName(u, d), n, v, got, want)
						}
					}
				}
				return true
			})
		}
	}
	t.Logf("%d (node, scalar) pairs checked over units, %d over one iteration of %d DO loops", checks, loopChecks, loops)
}
