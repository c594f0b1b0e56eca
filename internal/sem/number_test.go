package sem_test

import (
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/passes"
	"repro/internal/sem"
)

const numberSrc = `
program p
  param n = 4
  real a(n)
  integer i, k, t
  k = 0
10 continue
  k = k + 1
  do i = 1, n
    if (a(i) > 0.0) then
      a(i) = 1.0
    else if (a(i) < 0.0) then
      t = i
    else
      call fill
    end if
  end do
  do while (k < 2)
    call fill
    k = k + 1
  end do
  if (k < n) goto 10
  print "a", a(1)
end
subroutine fill
  integer j
  do j = 1, n
    a(j) = real(j)
  end do
end
`

// numbers returns the number of every statement of prog in lang.WalkStmts
// order over prog.Units().
func numbers(prog *lang.Program) []int {
	var ids []int
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			ids = append(ids, s.ID())
			return true
		})
	}
	return ids
}

// wantDense fails unless ids is 1…len(ids) in order and NumStmts says
// so.
func wantDense(t *testing.T, what string, ids []int, info *sem.Info) {
	t.Helper()
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("%s: statement %d of the walk has number %d; numbers %v", what, i+1, id, ids)
		}
	}
	if info.NumStmts() != len(ids) {
		t.Errorf("%s: NumStmts() = %d, want %d", what, info.NumStmts(), len(ids))
	}
}

// TestStmtNumbering pins who numbers statements: sem.Check numbers every
// statement of a program 1…n once, in lang.WalkStmts order over Units();
// a statement outside a checked program has no number; a copy keeps its
// original's number until a check renumbers the program holding it; and
// neither Info.CheckStmt nor Context.Patch writes a number.
func TestStmtNumbering(t *testing.T) {
	prog, err := lang.Parse(numberSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range numbers(prog) {
		if id != 0 {
			t.Fatalf("a parsed, unchecked program has numbers %v", numbers(prog))
		}
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	wantDense(t, "after Check", numbers(prog), info)
	if ghost := (&lang.AssignStmt{}); ghost.ID() != 0 {
		t.Errorf("a statement outside the program has number %d", ghost.ID())
	}

	// A copy keeps the number; a check of the program renumbers it the
	// same way.
	loop := prog.Main.Body[3].(*lang.DoStmt)
	if c := lang.CloneStmt(loop); c.ID() != loop.ID() || c.(*lang.DoStmt).Body[0].ID() != loop.Body[0].ID() {
		t.Error("CloneStmt did not copy the numbers")
	}
	before := numbers(prog)
	if info, err = sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	wantDense(t, "after a second Check", numbers(prog), info)
	if got := numbers(prog); len(got) != len(before) {
		t.Errorf("a second Check numbered %d statements, the first %d", len(got), len(before))
	}

	// Neither a CheckStmt nor a Patch, of a rewrite or a deletion,
	// numbers anything.
	fc := dataflow.NewContext(info)
	ifs := loop.Body[0].(*lang.IfStmt)
	dead := ifs.Elifs[0].Body[0]
	ifs.Then[0].(*lang.AssignStmt).Rhs = &lang.RealLit{Value: 2, Text: "2.0"}
	if err := info.CheckStmt(prog.Main, ifs.Then[0]); err != nil {
		t.Fatal(err)
	}
	ifs.Elifs[0].Body = nil
	var ch dataflow.Changes
	ch.Rewrote(prog.Main, ifs.Then[0])
	ch.Delete(prog.Main, dead)
	if err := fc.Patch(ch); err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), before[:dead.ID()-1]...)
	want = append(want, before[dead.ID():]...)
	if got := numbers(prog); !slices.Equal(got, want) {
		t.Errorf("after CheckStmt and Patch the numbers are %v, want %v", got, want)
	}

	// Inlining copies fill's body, numbers and all, to both call sites;
	// the recheck after it numbers the copies anew.
	if !passes.Inline(prog) {
		t.Fatal("fill was not inlined")
	}
	seen := map[int]int{}
	for _, id := range numbers(prog) {
		seen[id]++
	}
	dup := false
	for _, k := range seen {
		dup = dup || k > 1
	}
	if !dup {
		t.Errorf("the inlined copies of fill carry no shared number: %v", numbers(prog))
	}
	if info, err = sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	wantDense(t, "after Inline and the recheck", numbers(prog), info)
}
