package passes

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/sem"
)

func compile(t *testing.T, src string) (*lang.Program, *dataflow.Context) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return prog, dataflow.NewContext(info)
}

func recheck(t *testing.T, prog *lang.Program) {
	t.Helper()
	if _, err := sem.Check(prog); err != nil {
		t.Fatalf("program invalid after pass: %v\n%s", err, lang.Format(prog))
	}
}

func TestFoldConstants(t *testing.T) {
	prog, _ := compile(t, `
program p
  integer a
  real x
  a = 2 + 3 * 4
  a = a + 0
  a = 1 * a
  x = 2.0 * 3.0
  a = 2 ** 5
end
`)
	FoldConstants(prog)
	text := lang.Format(prog)
	for _, want := range []string{"a = 14", "x = 6", "a = 32"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "a + 0") || strings.Contains(text, "1 * a") {
		t.Errorf("identities not folded:\n%s", text)
	}
	recheck(t, prog)
}

func TestFoldConstantsReportsChange(t *testing.T) {
	prog, _ := compile(t, "program p\n integer x\n x = 1 + 2\nend\n")
	if !FoldConstants(prog).Any() {
		t.Error("first run folded x = 1 + 2 but reported no change")
	}
	if FoldConstants(prog).Any() {
		t.Errorf("second run reported a change on a folded program:\n%s", lang.Format(prog))
	}
}

func TestSimplifyControlReportsDeadCodeAfterStop(t *testing.T) {
	prog, _ := compile(t, "program p\n integer x\n x = 1\n stop\n x = 2\nend\n")
	if !SimplifyControl(prog) {
		t.Errorf("dropped the statement after STOP but reported no change:\n%s", lang.Format(prog))
	}
	if SimplifyControl(prog) {
		t.Error("second run reported a change")
	}
}

func TestSimplifyControl(t *testing.T) {
	prog, _ := compile(t, `
program p
  integer a, i
  if (1 < 2) then
    a = 1
  else
    a = 2
  end if
  do i = 5, 1
    a = 99
  end do
end
`)
	FoldConstants(prog)
	if !SimplifyControl(prog) {
		t.Fatal("expected simplification")
	}
	text := lang.Format(prog)
	if strings.Contains(text, "a = 2") || strings.Contains(text, "a = 99") {
		t.Errorf("dead branches survived:\n%s", text)
	}
	if !strings.Contains(text, "a = 1") {
		t.Errorf("live branch removed:\n%s", text)
	}
	recheck(t, prog)
}

func TestPropagateConstants(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer n, m, i
  real x(100)
  n = 10
  m = n * 2
  do i = 1, m
    x(i) = 0.0
  end do
end
`)
	PropagateForward(fc)
	text := lang.Format(prog)
	if !strings.Contains(text, "m = 20") {
		t.Errorf("n not propagated into m:\n%s", text)
	}
	if !strings.Contains(text, "do i = 1, 20") {
		t.Errorf("m not propagated into loop bound:\n%s", text)
	}
	recheck(t, prog)
}

func TestPropagateConstantsStopsAtRedefinition(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer n, a, b
  n = 1
  a = n
  n = 2
  b = n
end
`)
	PropagateForward(fc)
	text := lang.Format(prog)
	if !strings.Contains(text, "a = 1") || !strings.Contains(text, "b = 2") {
		t.Errorf("wrong propagation:\n%s", text)
	}
	recheck(t, prog)
}

func TestPropagateConstantsLoopBody(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer n, i, s
  n = 5
  do i = 1, 10
    s = s + n
    n = n + 1
  end do
end
`)
	PropagateForward(fc)
	text := lang.Format(prog)
	if !strings.Contains(text, "s = s + n") {
		t.Errorf("loop-modified variable wrongly propagated:\n%s", text)
	}
	recheck(t, prog)
}

func TestPropagateForwardOwnUpdate(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer p, q, n, a, b
  p = 0
  p = p + 1
  q = n + 2
  q = q + 1
  a = p
  b = q
end
`)
	PropagateForward(fc)
	text := lang.Format(prog)
	for _, want := range []string{"p = 1\n", "q = q + 1\n", "a = 1\n", "b = q\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q: a literal goes into its scalar's own update, an expression does not:\n%s", want, text)
		}
	}
	recheck(t, prog)
}

func TestPropagateForwardBranchesShareNothing(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer n, m, j, k, a, b, c, d, e, f, g, h, i, l
  real x(10)
  n = 4
  m = j + 1
  a = 1
  if (x(1) > 0.0) then
    k = 7
    a = n
    g = m
  else if (x(2) > 0.0) then
    b = k
    h = m + n
  else
    c = k + h
  end if
  d = a
  f = k
  do i = 1, 3
    e = 5
    x(i) = real(e + n)
  end do
  l = e
end
`)
	PropagateForward(fc)
	text := lang.Format(prog)
	for _, want := range []string{
		"a = 4\n", "g = j + 1\n", "h = j + 1 + 4\n", // the parent's bindings reach each arm
		"b = k\n", "c = k + h\n", // an arm's binding reaches no sibling arm
		"d = a\n",                     // a scalar the IF writes is dropped after it
		"f = k\n",                     // an arm's binding does not reach the statement after
		"x(i) = real(9)\n", "l = e\n", // a DO body's binding stays in the body
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	recheck(t, prog)
}

func TestPropagateGlobalConstants(t *testing.T) {
	prog, fc := compile(t, `
program main
  integer n
  real x(100)
  n = 50
  call work
end
subroutine work
  integer i
  do i = 1, n
    x(i) = 1.0
  end do
end
`)
	if !PropagateGlobalConstants(fc).Any() {
		t.Fatal("expected interprocedural propagation")
	}
	sub := prog.Unit("work")
	text := lang.FormatStmt(sub.Body[0])
	if !strings.Contains(text, "do i = 1, 50") {
		t.Errorf("n not propagated into work:\n%s", text)
	}
	recheck(t, prog)
}

func TestPropagateGlobalConstantsRejectsMultipleDefs(t *testing.T) {
	prog, fc := compile(t, `
program main
  integer n
  n = 50
  call work
  n = 60
end
subroutine work
  integer i
  i = n
end
`)
	PropagateGlobalConstants(fc)
	sub := prog.Unit("work")
	text := lang.FormatStmt(sub.Body[0])
	if !strings.Contains(text, "i = n") {
		t.Errorf("multiply-assigned global wrongly propagated: %s", text)
	}
}

func TestForwardSubstitute(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer q, j, jj
  integer ind(nmax)
  real x(nmax), z(nmax)
  do j = 1, q
    jj = ind(j)
    z(jj) = x(jj)
  end do
end
`)
	if !PropagateForward(fc).Any() {
		t.Fatal("expected substitution")
	}
	text := lang.Format(prog)
	if !strings.Contains(text, "z(ind(j)) = x(ind(j))") {
		t.Errorf("jj not substituted:\n%s", text)
	}
	recheck(t, prog)
}

func TestForwardSubstituteInvalidation(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer a, b, c
  integer y(nmax)
  b = 1
  a = y(b)
  y(1) = 5
  c = a
end
`)
	PropagateForward(fc)
	text := lang.Format(prog)
	// a = y(b) cannot be forwarded past the write to y.
	if !strings.Contains(text, "c = a") {
		t.Errorf("substitution across array write:\n%s", text)
	}
	recheck(t, prog)
}

// TestForwardSubstituteLoopKillsFirstOperand pins the kill of a loop body
// whose writes reach only the first operand of a definition: x = a + b
// must not pass a loop that writes a, though b stays invariant.
func TestForwardSubstituteLoopKillsFirstOperand(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer i, n, a, b, x
  integer y(10)
  a = y(1) + y(2) + y(3) + y(4) + y(5)
  b = y(6)
  x = a + b
  do i = 1, n
    a = a + i
  end do
  print x
end
`)
	PropagateForward(fc)
	if text := lang.Format(prog); !strings.Contains(text, "print x") {
		t.Errorf("x = a + b substituted past a loop that writes a:\n%s", text)
	}
	recheck(t, prog)
}

func TestEliminateDeadCode(t *testing.T) {
	prog, fc := compile(t, `
program p
  integer used, unused, i
  used = 1
  unused = 2
  do i = 1, used
    unused = unused + 1
  end do
  i = used
end
`)
	if !EliminateDeadCode(fc).Any() {
		t.Fatal("expected dead code removal")
	}
	text := lang.Format(prog)
	if strings.Contains(text, "unused =") {
		t.Errorf("dead assignments survived:\n%s", text)
	}
	if !strings.Contains(text, "used = 1") {
		t.Errorf("live code removed:\n%s", text)
	}
	recheck(t, prog)
}

func TestDeadCodeKeepsElseIfRead(t *testing.T) {
	// x is read only in an ELSEIF condition, so its assignments are live.
	// Deleting them left x at 0 and a serial run printed s 0, not s 2.
	prog, fc := compile(t, `
program p
  param n = 8
  real c(n), y(n), s
  integer i, x
  do i = 1, n
    c(i) = real(i - 4)
    y(i) = real(i)
  end do
  x = 0
  do i = 1, n
    if (c(i) > 0.0) then
      x = i
    end if
  end do
  s = 0.0
  if (y(1) > 100.0) then
    s = 1.0
  else if (x == 8) then
    s = 2.0
  end if
  print "s", s
end
`)
	EliminateDeadCode(fc)
	text := lang.Format(prog)
	if !strings.Contains(text, "x = i") || !strings.Contains(text, "x = 0") {
		t.Errorf("assignments read by an ELSEIF condition were removed:\n%s", text)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(info, interp.Options{})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if s, err := in.GlobalReal("s"); err != nil || s != 2 {
		t.Errorf("serial run after dead-code elimination: s = %v (%v), want 2", s, err)
	}
}

func TestInline(t *testing.T) {
	prog, _ := compile(t, `
program main
  integer g
  call bump
  call bump
end
subroutine bump
  integer tmp
  tmp = 1
  g = g + tmp
end
`)
	if !Inline(prog) {
		t.Fatal("expected inlining")
	}
	text := lang.Format(prog)
	if strings.Contains(text, "call bump") {
		t.Errorf("call not inlined:\n%s", text)
	}
	if !strings.Contains(text, "bump__tmp = 1") {
		t.Errorf("local not renamed:\n%s", text)
	}
	recheck(t, prog)
}

func TestInlineSkipsPrintAndBig(t *testing.T) {
	var big strings.Builder
	big.WriteString("program main\n integer g\n call noisy\n call huge\nend\nsubroutine noisy\n print 1\nend\nsubroutine huge\n integer i\n")
	for i := 0; i < 60; i++ {
		big.WriteString(" i = i + 1\n")
	}
	big.WriteString("end\n")
	prog, _ := compile(t, big.String())
	Inline(prog)
	text := lang.Format(prog)
	if !strings.Contains(text, "call noisy") || !strings.Contains(text, "call huge") {
		t.Errorf("ineligible units inlined:\n%s", text)
	}
}

func TestInlineNested(t *testing.T) {
	prog, _ := compile(t, `
program main
  integer g
  call outer
end
subroutine outer
  g = g + 1
  call inner
end
subroutine inner
  g = g * 2
end
`)
	Inline(prog)
	text := lang.Format(prog)
	if strings.Contains(text, "call") {
		t.Errorf("nested calls not fully inlined:\n%s", text)
	}
	recheck(t, prog)
}

func TestRecognizeReductions(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer n, i
  real s, pmax, x(nmax)
  do i = 1, n
    s = s + x(i)
    pmax = max(pmax, x(i))
  end do
end
`)
	RecognizeReductions(fc)
	d := prog.Main.Body[0].(*lang.DoStmt)
	if len(d.Reductions) != 2 {
		t.Fatalf("reductions: %+v", d.Reductions)
	}
	if d.Reductions[0].Var != "pmax" || d.Reductions[0].Op != lang.OpGt {
		t.Errorf("pmax: %+v", d.Reductions[0])
	}
	if d.Reductions[1].Var != "s" || d.Reductions[1].Op != lang.OpAdd {
		t.Errorf("s: %+v", d.Reductions[1])
	}
}

func TestReductionBrokenByOtherRead(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer n, i
  real s, x(nmax)
  do i = 1, n
    s = s + x(i)
    x(i) = s
  end do
end
`)
	RecognizeReductions(fc)
	d := prog.Main.Body[0].(*lang.DoStmt)
	if len(d.Reductions) != 0 {
		t.Errorf("s is read mid-loop; no reduction expected: %+v", d.Reductions)
	}
}

func TestReductionMixedOpsRejected(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer n, i
  real s, x(nmax)
  do i = 1, n
    s = s + x(i)
    s = s * 2.0
  end do
end
`)
	RecognizeReductions(fc)
	d := prog.Main.Body[0].(*lang.DoStmt)
	if len(d.Reductions) != 0 {
		t.Errorf("mixed operators must not reduce: %+v", d.Reductions)
	}
}

func TestSubstituteInductionVariables(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer n, i, p2
  real x(nmax)
  p2 = 0
  do i = 1, n
    p2 = p2 + 1
    x(p2) = 1.0
  end do
end
`)
	if !SubstituteInductionVariables(fc).Any() {
		t.Fatal("expected substitution")
	}
	text := lang.Format(prog)
	// Uses of p2 after the increment become 0 + 1*(i - 1 + 1) = i after
	// folding.
	if !strings.Contains(text, "x(i) = 1.0") {
		t.Errorf("induction variable not substituted:\n%s", text)
	}
	recheck(t, prog)
}

func TestInductionVariableConditionalNotTouched(t *testing.T) {
	prog, fc := compile(t, `
program p
  param nmax = 100
  integer n, i, q
  real x(nmax), y(nmax)
  q = 0
  do i = 1, n
    if (y(i) > 0.0) then
      q = q + 1
      x(q) = y(i)
    end if
  end do
end
`)
	SubstituteInductionVariables(fc)
	text := lang.Format(prog)
	if !strings.Contains(text, "x(q) = y(i)") {
		t.Errorf("conditional counter must stay irregular:\n%s", text)
	}
}

func TestUnresolvedNamesAreNoVariables(t *testing.T) {
	// A name built by hand after the check has slot 0 until Info.CheckStmt
	// checks its statement. Every pass takes it for no variable: none may
	// look up the symbol of slot 0, which is nil.
	src := `
program p
  param nmax = 100
  integer n, i, k
  real s, t, x(nmax)
  t = 1.0
  k = 0
  do i = 1, n
    k = k + 1
    s = s + x(i)
    x(k) = t
    call q
  end do
end
subroutine q
  print "q"
end
`
	passes := map[string]func(*dataflow.Context){
		"reductions": RecognizeReductions,
		"forward":    func(fc *dataflow.Context) { PropagateForward(fc) },
		"indvar":     func(fc *dataflow.Context) { SubstituteInductionVariables(fc) },
		"ipcp":       func(fc *dataflow.Context) { PropagateGlobalConstants(fc) },
		"dce":        func(fc *dataflow.Context) { EliminateDeadCode(fc) },
	}
	for name, pass := range passes {
		t.Run(name, func(t *testing.T) {
			prog, fc := compile(t, src)
			unresolve := func(e lang.Expr) {
				lang.WalkExpr(e, func(x lang.Expr) bool {
					switch x := x.(type) {
					case *lang.Ident:
						x.Slot = 0
					case *lang.ArrayRef:
						x.Slot = 0
					}
					return true
				})
			}
			lang.WalkStmts(prog.Main.Body, func(s lang.Stmt) bool {
				lang.StmtExprs(s, unresolve)
				return true
			})
			pass(fc)
			if d := prog.Main.Body[2].(*lang.DoStmt); len(d.Reductions) != 0 {
				t.Errorf("reduction of an unresolved name: %+v", d.Reductions)
			}
		})
	}
}
