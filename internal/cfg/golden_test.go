package cfg

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lang"
)

var update = flag.Bool("update", false, "rewrite testdata/hcg.golden")

// hcgShapes hold the control flow the kernels and test programs use
// little or not at all: GOTOs backward, forward, out of nested DO and
// WHILE bodies and to a DO's own label; RETURN and STOP inside bodies;
// empty DO, WHILE, IF and ELSEIF bodies; and CALLs.
var hcgShapes = []struct{ name, src string }{
	{"gotos", `
program gotos
  integer i, j, n, a
  a = 0
10 continue
  a = a + 1
  if (a < n) goto 10
  goto 20
  a = 5
20 continue
  do i = 1, n
    if (i == 3) goto 30
    do j = 1, n
      if (j == 2) goto 40
      if (j == 4) goto 10
      a = a + j
40    continue
    end do
    do while (a > n)
      a = a - 1
      if (a == 7) goto 50
    end do
  end do
30 continue
50 do i = 1, n
    if (i == 2) goto 50
    a = a + i
  end do
end
`},
	{"bodies", `
program bodies
  integer i, n, a
  do i = 1, n
  end do
  do while (a > n)
  end do
  if (a > 0) then
  elseif (a < 0) then
    a = 1
  else
  end if
  if (n > 0) then
    a = 2
  elseif (n < 0) then
  end if
  do i = 1, n
    if (i > a) then
      stop
    end if
    call sub
  end do
  do while (a > 0)
    if (a == 3) return
    a = a - 1
  end do
  call sub
end
subroutine sub
  integer k
  if (k > 2) return
  k = k + 1
end
`},
}

// TestHCGGolden pins the HCG's shape. For every unit of the 8 kernels at
// both sizes, the example corpus, the parallelizer's and the lints' test
// programs and hcgShapes, it records each section's parent, Cyclic flag
// and RTop order; each node's ID, kind, rendering and condition index,
// its successors in order and its predecessors as a set (nothing reads
// their order); and the node each statement's number finds. Regenerate
// with:
//
//	go test ./internal/cfg -run TestHCGGolden -update
//
// and say in CHANGES.md why the shape changed.
func TestHCGGolden(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	for _, size := range []struct {
		name string
		size kernels.Size
	}{{"small", kernels.Small}, {"default", kernels.Default}} {
		for _, k := range kernels.All(size.size) {
			inputs = append(inputs, input{k.Name + " (" + size.name + ")", k.Source})
		}
	}
	for _, glob := range []string{"../../examples/corpus/*.fl", "../parallel/testdata/*.fl", "../lint/testdata/*.fl"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(paths))
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{filepath.ToSlash(path), string(src)})
		}
	}
	for _, s := range hcgShapes {
		inputs = append(inputs, input(s))
	}

	var sb strings.Builder
	for _, in := range inputs {
		prog := check(t, in.src)
		hp, err := BuildHCG(context.Background(), prog, Build)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range prog.Units() {
			fmt.Fprintf(&sb, "== %s: unit %s\n", in.name, u.Name)
			writeSection(&sb, hp.Units[u])
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				fmt.Fprintf(&sb, "stmt %d %s\n", s.ID(), nodeName(hp.StmtNode(s)))
				return true
			})
		}
	}
	got := sb.String()

	const golden = "testdata/hcg.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("HCG drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("HCG drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// writeSection writes section g, then the sections nested in it in node
// order.
func writeSection(sb *strings.Builder, g *HGraph) {
	var rtop []string
	for _, n := range g.RTop() {
		rtop = append(rtop, nodeName(n))
	}
	fmt.Fprintf(sb, "section of %s cyclic %v rtop %s\n", nodeName(g.Parent), g.Cyclic, strings.Join(rtop, " "))
	for _, n := range g.Nodes {
		var succs, preds []string
		for _, s := range n.Succs {
			succs = append(succs, nodeName(s))
		}
		byID := slices.Clone(n.Preds)
		slices.SortFunc(byID, func(a, b *HNode) int { return a.ID - b.ID })
		for _, p := range byID {
			preds = append(preds, nodeName(p))
		}
		fmt.Fprintf(sb, "  %d %s %d %q -> %s <- %s\n", n.ID, n.Kind, n.CondIndex, n.String(), strings.Join(succs, " "), strings.Join(preds, " "))
	}
	for _, n := range g.Nodes {
		if n.Body != nil {
			writeSection(sb, n.Body)
		}
	}
}

func nodeName(n *HNode) string {
	if n == nil {
		return "-"
	}
	return fmt.Sprintf("h%d", n.ID)
}
