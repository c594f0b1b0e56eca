package dataflow

import (
	"testing"

	"repro/internal/cfg"
)

// buildGraph parses and checks src, and builds its main unit's CFG and
// definite-assignment solution.
func buildGraph(t *testing.T, src string) (*cfg.Graph, *Definite) {
	t.Helper()
	fc := setup(t, src)
	g := fc.Graph(fc.Info.Program.Main)
	return g, ComputeDefinite(g, fc)
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

func TestComputeDefinite(t *testing.T) {
	type query struct {
		line int
		v    string
		want bool
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
				{11, "a", true},  // assigned on both branches
				{11, "c", false}, // else branch only
				{11, "b", true},  // straight-line
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
				{9, "a", false}, // fall-through path assigns nothing
				{9, "m", true},
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
				{6, "a", false},
				// The skipped assignment itself is unreachable: the
				// must-analysis leaves it at the vacuous full set.
				{4, "a", true},
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
				{7, "s", false}, // zero-trip loop skips the body
				{7, "i", true},  // the DO header writes i on every path
				{7, "n", true},
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
				{8, "t", false},
				{8, "w", true},
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
				{8, "s", true}, // the loop body runs at least once
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, d := buildGraph(t, tc.src)
			for _, q := range tc.queries {
				n := nodeAt(t, g, q.line)
				if got := d.AssignedAt(n, q.v); got != q.want {
					t.Errorf("line %d: AssignedAt(%q) = %v, want %v", q.line, q.v, got, q.want)
				}
			}
		})
	}
}
