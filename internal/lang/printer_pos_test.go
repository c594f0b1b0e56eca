package lang

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// roundTripSources: the shipped corpus plus crafted programs covering the
// statement kinds whose CFG nodes historically dropped position info
// (elif arms, goto-formed loops, while headers).
func roundTripSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"branchy": `program p
  integer a, m
  m = 2
  if (m == 1) then
    a = 1
  else if (m == 2) then
    a = 2
  else if (m == 3) then
    a = 3
  else
    a = 4
  end if
  do while (a > 0)
    a = a - 1
  end do
  goto 10
  a = 99
10 continue
  print "a", a
end
`,
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "corpus", "*.fl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	return srcs
}

// TestFormatRoundTripStable re-parses the printer's output and checks the
// second print is byte-identical: the printer loses nothing the parser
// needs, so a format/parse cycle is a fixed point.
func TestFormatRoundTripStable(t *testing.T) {
	for name, src := range roundTripSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			p1, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			f1 := Format(p1)
			p2, err := Parse(f1)
			if err != nil {
				t.Fatalf("reparse of formatted output: %v\n%s", err, f1)
			}
			f2 := Format(p2)
			if f1 != f2 {
				t.Errorf("format not a fixed point:\n--- first ---\n%s--- second ---\n%s", f1, f2)
			}
		})
	}
}

// TestReparsePositionsValid walks every statement of the reparsed program
// and requires a real source position — including the ELSEIF arms, whose
// positions back the CFG's per-arm condition nodes (diagnostic spans
// anchor there).
func TestReparsePositionsValid(t *testing.T) {
	for name, src := range roundTripSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			p1, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			p2, err := Parse(Format(p1))
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			for _, u := range p2.Units() {
				WalkStmts(u.Body, func(s Stmt) bool {
					if pos := s.Pos(); pos.Line <= 0 || pos.Col <= 0 {
						t.Errorf("%T at %v: missing position after reparse", s, pos)
					}
					if ifs, ok := s.(*IfStmt); ok {
						for i, arm := range ifs.Elifs {
							if arm.Pos.Line <= 0 || arm.Pos.Col <= 0 {
								t.Errorf("elif arm %d of IF at %v: missing position", i, ifs.Pos())
							}
						}
					}
					return true
				})
			}
		})
	}
}

// TestSetPosMovesAnchors covers the SetPos hook passes use when they
// synthesize or move statements: the new anchor must stick.
func TestSetPosMovesAnchors(t *testing.T) {
	p, err := Parse("program p\n  integer a\n  a = 1\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	s := p.Main.Body[0]
	want := Pos{Line: 42, Col: 7}
	s.SetPos(want)
	if got := s.Pos(); got != want {
		t.Errorf("SetPos: got %v, want %v", got, want)
	}
}

// TestFormatRealLiteral pins how a real literal without its source
// spelling, as folding and substitution make it, prints: with ".0" when
// its own digits read as an integer, whatever precedes it.
func TestFormatRealLiteral(t *testing.T) {
	real := func(v float64) *RealLit { return &RealLit{Value: v} }
	div := func(name string, v float64) Expr { return &Binary{Op: OpDiv, X: &Ident{Name: name}, Y: real(v)} }
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{div("e", 2), "e / 2.0"},
		{div("k", 2), "k / 2.0"},
		{real(1e20), "1e+20"},
		{real(2.5), "2.5"},
		{real(-3), "-3.0"},
		{&Unary{Op: OpNeg, X: real(3)}, "-3.0"},
		{&Binary{Op: OpMul, X: real(0.5), Y: real(4)}, "0.5 * 4.0"},
		{real(math.NaN()), "NaN"},
		{real(math.Inf(1)), "+Inf"},
		{real(math.Inf(-1)), "-Inf"},
	} {
		if got := FormatExpr(tc.e); got != tc.want {
			t.Errorf("FormatExpr = %q, want %q", got, tc.want)
		}
	}
}
