package sem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return info
}

func wantErr(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
}

func TestGlobalsVisibleInSubroutines(t *testing.T) {
	info := mustCheck(t, `
program main
  integer n
  real x(10)
  call init
end
subroutine init
  integer i
  do i = 1, n
    x(i) = 0.0
  end do
end
`)
	sub := info.Program.Unit("init")
	if s := info.Scope(sub).Lookup("x"); s == nil || !s.Global || s.Kind != ArraySym {
		t.Errorf("x in init: %+v", s)
	}
	if s := info.Scope(sub).Lookup("i"); s == nil || s.Global {
		t.Errorf("i should be local: %+v", s)
	}
}

func TestLocalShadowsGlobal(t *testing.T) {
	info := mustCheck(t, `
program main
  integer i
  call s
end
subroutine s
  real i
  i = 1.5
end
`)
	sub := info.Program.Unit("s")
	if s := info.Scope(sub).Lookup("i"); s == nil || s.Global || s.Type != lang.TReal {
		t.Errorf("i in s: %+v", s)
	}
	if s := info.Scope(info.Program.Main).Lookup("i"); s == nil || !s.Global || s.Type != lang.TInteger {
		t.Errorf("i in main: %+v", s)
	}
}

func TestParamResolution(t *testing.T) {
	info := mustCheck(t, `
program main
  param n = 10
  param m = n * 2 + 1
  real x(m)
  x(1) = 0.0
end
`)
	x := info.Globals["x"]
	if x == nil || len(x.Dims) != 1 || x.Dims[0] != (Dim{1, 21}) {
		t.Errorf("x dims: %+v", x)
	}
	if info.Globals["m"].Value != 21 {
		t.Errorf("m = %d, want 21", info.Globals["m"].Value)
	}
}

func TestArrayBounds(t *testing.T) {
	info := mustCheck(t, `
program main
  real a(0:9, 5)
  a(0, 1) = 1.0
end
`)
	a := info.Globals["a"]
	if a.Dims[0] != (Dim{0, 9}) || a.Dims[1] != (Dim{1, 5}) {
		t.Errorf("dims: %+v", a.Dims)
	}
	if a.NumElems() != 50 {
		t.Errorf("NumElems = %d, want 50", a.NumElems())
	}
}

func TestIntrinsicMarking(t *testing.T) {
	info := mustCheck(t, `
program main
  integer i, j
  real x(10)
  i = mod(j, 3) + min(i, j)
  x(1) = sqrt(x(2))
end
`)
	var intrinsics []string
	lang.WalkStmts(info.Program.Main.Body, func(s lang.Stmt) bool {
		lang.StmtExprs(s, func(e lang.Expr) {
			lang.WalkExpr(e, func(e lang.Expr) bool {
				if ar, ok := e.(*lang.ArrayRef); ok && ar.Intrinsic {
					intrinsics = append(intrinsics, ar.Name)
				}
				return true
			})
		})
		return true
	})
	if len(intrinsics) != 3 {
		t.Errorf("marked intrinsics: %v, want [mod min sqrt]", intrinsics)
	}
}

func TestCallGraphOrder(t *testing.T) {
	info := mustCheck(t, `
program main
  call a
end
subroutine a
  call b
end
subroutine b
  return
end
`)
	order := info.CalleeOrder()
	pos := map[string]int{}
	for i, u := range order {
		pos[u.Name] = i
	}
	if !(pos["b"] < pos["a"] && pos["a"] < pos["main"]) {
		t.Errorf("order: %v", pos)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"undeclared", "program p\n x = 1\nend\n", "undeclared"},
		{"redeclared", "program p\n integer x\n real x\n x = 1\nend\n", "redeclared"},
		{"arity", "program p\n real a(2,2)\n a(1) = 0.0\nend\n", "dimensions"},
		{"wholeArray", "program p\n real a(2)\n a = 0.0\nend\n", "whole array"},
		{"assignConst", "program p\n param n = 1\n n = 2\nend\n", "constant"},
		{"noSuchSub", "program p\n call nada\nend\n", "undefined subroutine"},
		{"recursion", "program p\n call a\nend\nsubroutine a\n call a\nend\n", "recursive"},
		{"mutualRecursion", "program p\n call a\nend\nsubroutine a\n call b\nend\nsubroutine b\n call a\nend\n", "recursive"},
		{"badLabel", "program p\n goto 99\nend\n", "no such label"},
		{"gotoIntoLoop", "program p\n integer i\n goto 10\n do i = 1, 2\n10 continue\n end do\nend\n", "nested block"},
		{"loopVarReal", "program p\n real r\n do r = 1, 2\n continue\n end do\nend\n", "integer scalar"},
		{"logicalCond", "program p\n integer i\n if (i + 1) then\n continue\n end if\nend\n", "logical"},
		{"logicalArith", "program p\n logical q\n integer i\n i = 1 + (q and q)\nend\n", "logical operand"},
		{"realSubscript", "program p\n real a(5), r\n a(r) = 1.0\nend\n", "integer"},
		{"nonConstDim", "program p\n integer n\n real a(n)\n n = 1\nend\n", "constant"},
		{"dupLabel", "program p\n10 continue\n10 continue\nend\n", "already used"},
		{"badIntrinsicArity", "program p\n integer i\n i = mod(i)\nend\n", "number of arguments"},
		{"shadowIntrinsic", "program p\n real mod(10)\n mod(1) = 0.0\nend\n", "shadows an intrinsic"},
		{"emptyDim", "program p\n real a(5:1)\n a(1) = 0.0\nend\n", "empty dimension"},
		{"gotoIntoSiblingArm", gotoIntoArm(10), "nested block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantErr(t, c.src, c.frag) })
	}
}

// gotoIntoArm returns a loop around an IF with 11 ELSEIF arms whose arm
// `from` jumps to label 10 in arm 1. Arm 10 is the case a statement-list
// encoding could mistake for a block enclosing arm 1 ("e1" prefixes "e10").
func gotoIntoArm(from int) string {
	var sb strings.Builder
	sb.WriteString("program p\n integer i, k\n do i = 1, 11\n if (i == 0) then\n k = 0\n")
	for arm := 0; arm < 11; arm++ {
		fmt.Fprintf(&sb, " else if (i == %d) then\n", arm+1)
		switch arm {
		case 1:
			sb.WriteString("10 k = k + 1\n")
		case from:
			sb.WriteString(" goto 10\n")
		default:
			sb.WriteString(" k = k + 2\n")
		}
	}
	sb.WriteString(" end if\n end do\nend\n")
	return sb.String()
}

func TestGotoBackwardOutOfLoopOK(t *testing.T) {
	mustCheck(t, `
program p
  integer i, n
10 continue
  do i = 1, n
    if (i == 3) goto 20
  end do
  goto 10
20 continue
end
`)
}

func TestTypePropagation(t *testing.T) {
	// int/real mixing allowed; checked implicitly by absence of errors.
	mustCheck(t, `
program p
  integer i
  real x
  x = i + 1
  i = x * 2.0
  x = i / 2
end
`)
}

func TestCallsDeduplicated(t *testing.T) {
	info := mustCheck(t, `
program main
  call a
  call a
  call b
end
subroutine a
end
subroutine b
end
`)
	calls := info.Calls[info.Program.Main]
	if len(calls) != 2 || calls[0] != "a" || calls[1] != "b" {
		t.Errorf("calls: %v", calls)
	}
}

func TestCalleeOrderDiamond(t *testing.T) {
	info := mustCheck(t, `
program main
  call a
  call b
end
subroutine a
  call c
end
subroutine b
  call c
end
subroutine c
end
`)
	order := info.CalleeOrder()
	pos := map[string]int{}
	for i, u := range order {
		pos[u.Name] = i
	}
	if !(pos["c"] < pos["a"] && pos["c"] < pos["b"] && pos["a"] < pos["main"] && pos["b"] < pos["main"]) {
		t.Errorf("diamond order: %v", pos)
	}
	if len(order) != 4 {
		t.Errorf("units visited: %d", len(order))
	}
}

func TestSymbolHelpers(t *testing.T) {
	info := mustCheck(t, `
program main
  param k = 3
  real a(2, 0:4)
  a(1, 0) = 1.0
end
`)
	a := info.Globals["a"]
	if a.NumElems() != 10 {
		t.Errorf("NumElems = %d", a.NumElems())
	}
	if a.Dims[1].Size() != 5 {
		t.Errorf("dim size = %d", a.Dims[1].Size())
	}
	k := info.Globals["k"]
	if k.Kind != ParamSym || k.Value != 3 {
		t.Errorf("param: %+v", k)
	}
	if ScalarSym.String() != "scalar" || ArraySym.String() != "array" || ParamSym.String() != "param" {
		t.Error("kind strings")
	}
}

// TestSymbolSlotsDense checks that one Check numbers its symbols 1…n,
// each exactly once, across the globals and every unit's locals, that
// Info.Symbol maps each slot back, and that a shadowing local gets a slot
// of its own.
func TestSymbolSlotsDense(t *testing.T) {
	info := mustCheck(t, `
program main
  param n = 4
  real a(n)
  integer i, g
  call s
end
subroutine s
  integer i, l
  real b(2, 2)
  l = g + i
end
`)
	var syms []*Symbol
	for _, sym := range info.Globals {
		syms = append(syms, sym)
	}
	for _, u := range info.Program.Units() {
		if u.IsMain {
			continue
		}
		for _, sym := range info.Scope(u).Locals {
			syms = append(syms, sym)
		}
	}
	if len(syms) != 7 {
		t.Fatalf("%d symbols, want 7", len(syms))
	}
	if info.NumSymbols() != len(syms) || info.Symbol(0) != nil {
		t.Fatalf("NumSymbols() = %d, Symbol(0) = %v; want %d and nil", info.NumSymbols(), info.Symbol(0), len(syms))
	}
	seen := make([]bool, len(syms)+1)
	for _, sym := range syms {
		if sym.Slot < 1 || int(sym.Slot) > len(syms) || seen[sym.Slot] {
			t.Fatalf("%s has slot %d: not a fresh slot in 1..%d", sym.Name, sym.Slot, len(syms))
		}
		seen[sym.Slot] = true
		if info.Symbol(sym.Slot) != sym {
			t.Errorf("Symbol(%d) = %v, want %s", sym.Slot, info.Symbol(sym.Slot), sym.Name)
		}
	}
	if info.Globals["i"].Slot == info.Scope(info.Program.Unit("s")).Lookup("i").Slot {
		t.Error("a local that shadows a global shares its slot")
	}
}

func TestCheckStmtChecksOneRewrittenStatement(t *testing.T) {
	info := mustCheck(t, `
program p
  integer a
  a = 1
  call s
end
subroutine s
  integer k
  k = a
end
`)
	main := info.Program.Main
	as := main.Body[0].(*lang.AssignStmt)
	// A rewrite to an intrinsic call is checked and marked like Check does.
	call := &lang.ArrayRef{Name: "abs", Args: []lang.Expr{&lang.IntLit{Value: -1}}}
	as.Rhs = call
	if err := info.CheckStmt(main, as); err != nil || !call.Intrinsic {
		t.Fatalf("CheckStmt(a = abs(-1)) = %v, intrinsic %v; want nil, true", err, call.Intrinsic)
	}
	for rhs, fragment := range map[lang.Expr]string{
		&lang.BoolLit{Value: true}: "cannot assign logical to integer",
		&lang.Ident{Name: "k"}:     `undeclared variable "k"`, // a local of s, not of main
	} {
		as.Rhs = rhs
		if err := info.CheckStmt(main, as); err == nil || !strings.Contains(err.Error(), fragment) {
			t.Errorf("CheckStmt(a = %s) = %v, want an error containing %q", lang.FormatExpr(rhs), err, fragment)
		}
	}
}
