package pipeline

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/passes"
	"repro/internal/progen"
	"repro/internal/sem"
)

// TestPassesReportChanges backs the pipeline's rule that the program is
// rechecked, and its fact context rebuilt, only after a pass that reports a
// change. Over the sources of the behaviour golden (TestBehaviourGolden in
// the repository root), it runs inline, ipcp and the scalar passes in
// pipeline order. Whenever a pass returns false, the program text must be
// unchanged and a fresh sem.Check must find the very same labelled
// statements: Labels is the one piece of AST-pointer state sem.Info keeps.
//
// It also backs the rule that lets the passes share one context: indvar,
// constprop and fwdsub run on one context per round, kept even when one of
// them reports a change, and after each of them the write set the context
// gives every unit body, DO body, WHILE body and IF arm must equal the one
// a fresh context builds over the current program.
func TestPassesReportChanges(t *testing.T) {
	srcs := map[string]string{"interchange": `
program p
  param n = 16
  real m(n, n)
  integer i, j
  do i = 1, n
    do j = 1, n
      m(i, j) = real(i + j)
    end do
  end do
end
`}
	for _, k := range kernels.All(kernels.Small) {
		srcs["kernel-"+k.Name] = k.Source
	}
	for seed := int64(0); seed < 12; seed++ {
		cfg := progen.Config{N: 24, MaxBlocks: 8, Subroutines: true}
		srcs[fmt.Sprintf("progen-%02d", seed)] = progen.Generate(rand.New(rand.NewSource(seed)), cfg)
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
		srcs["corpus-"+filepath.Base(path)] = string(src)
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { checkPassesReportChanges(t, srcs[name]) })
	}
}

func checkPassesReportChanges(t *testing.T, src string) {
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, pass func() bool) bool {
		before := lang.Format(prog)
		if pass() {
			if info, err = sem.Check(prog); err != nil {
				t.Fatalf("%s broke the program: %v", name, err)
			}
			return true
		}
		if after := lang.Format(prog); after != before {
			t.Errorf("%s reported no change but rewrote the program:\n--- before ---\n%s--- after ---\n%s", name, before, after)
		}
		fresh, err := sem.Check(prog)
		if err != nil {
			t.Fatalf("%s reported no change but broke the program: %v", name, err)
		}
		for u, labels := range info.Labels {
			for l, s := range labels {
				if fresh.Labels[u][l] != s {
					t.Errorf("%s reported no change but moved label %d of %s", name, l, u.Name)
				}
			}
			if len(fresh.Labels[u]) != len(labels) {
				t.Errorf("%s reported no change but changed the labels of %s", name, u.Name)
			}
		}
		return false
	}
	var fc *dataflow.Context
	shared := func(name string, pass func(*dataflow.Context) bool) bool {
		changed := run(name, func() bool { return pass(fc) })
		checkWriteSets(t, name, fc, dataflow.NewContext(info))
		return changed
	}
	run("inline", func() bool { return passes.Inline(prog) })
	run("ipcp", func() bool { return passes.PropagateGlobalConstants(dataflow.NewContext(info)) })
	for round := 1; round <= 3; round++ {
		run("fold", func() bool { return passes.FoldConstants(prog) })
		changed := run("simplify", func() bool { return passes.SimplifyControl(prog) })
		fc = dataflow.NewContext(info)
		changed = shared("indvar", passes.SubstituteInductionVariables) || changed
		changed = shared("constprop", passes.PropagateConstants) || changed
		changed = shared("fwdsub", passes.ForwardSubstitute) || changed
		changed = run("dce", func() bool { return passes.EliminateDeadCode(dataflow.NewContext(info)) }) || changed
		if !changed {
			break
		}
	}
}

// checkWriteSets compares the write set fc gives every statement list of
// the program with the one fresh gives it.
func checkWriteSets(t *testing.T, pass string, fc, fresh *dataflow.Context) {
	t.Helper()
	check := func(u *lang.Unit, what string, at lang.Pos, list []lang.Stmt) {
		got, want := fc.StmtsMod(list), fresh.StmtsMod(list)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after %s, the shared context holds a stale memoized write set for %s of %s at line %d: %v %v, want %v %v",
				pass, what, u.Name, at.Line, got.SortedScalars(), got.SortedArrays(), want.SortedScalars(), want.SortedArrays())
		}
	}
	for _, u := range fresh.Info.Program.Units() {
		check(u, "the body", u.Pos(), u.Body)
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			switch s := s.(type) {
			case *lang.DoStmt:
				check(u, "a DO body", s.Pos(), s.Body)
			case *lang.WhileStmt:
				check(u, "a WHILE body", s.Pos(), s.Body)
			case *lang.IfStmt:
				check(u, "an IF arm", s.Pos(), s.Then)
				for _, arm := range s.Elifs {
					check(u, "an IF arm", s.Pos(), arm.Body)
				}
				check(u, "an IF arm", s.Pos(), s.Else)
			}
			return true
		})
	}
}
