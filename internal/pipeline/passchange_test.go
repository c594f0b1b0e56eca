package pipeline

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/dataflow"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/passes"
	"repro/internal/progen"
	"repro/internal/sem"
)

// TestPassesReportChanges backs the pipeline's rule for the fact context:
// a pass that rewrites expressions or deletes assignments reports the
// statements it changed and patch brings the kept context up to date,
// while inlining and control simplification, which restructure statement
// lists, are followed by recheck and a fresh context. Over the sources of
// the behaviour golden (TestBehaviourGolden in the repository root), it
// runs inline, ipcp and the scalar rounds in pipeline order, patching
// with the pipeline's own patch. After each pass:
//   - every statement the pass did not report is still in the program and
//     its own expressions print as before, and no statement is new;
//   - a fresh sem.Check of a copy of the program accepts it and finds the
//     same labelled statements and calls as the kept context's;
//   - every statement's and IF condition's facts, every statement list's
//     write set, each unit's graph and summary equal those a fresh context
//     gives the copy.
//
// The check reads every fact, write set and graph of the kept context, so
// whatever the next pass changes without dropping it shows as stale. It
// checks a copy because a check renumbers the statements it checks, and
// the kept context finds what it holds by statement number.
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
`, "dead-store-in-one-statement-body": `
program p
  param n = 8
  real a(n)
  integer i, t
  do i = 1, n
    if (a(i) > 0.0) then
      t = i
      a(i) = 1.0
    end if
  end do
  print "a", a(1)
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
	fc, err := recheck(prog)
	if err != nil {
		t.Fatal(err)
	}
	restructured := func(name string, pass func(*lang.Program) bool) bool {
		before := lang.Format(prog)
		if pass(prog) {
			if fc, err = recheck(prog); err != nil {
				t.Fatalf("%s broke the program: %v", name, err)
			}
			return true
		}
		if after := lang.Format(prog); after != before {
			t.Errorf("%s reported no change but rewrote the program:\n--- before ---\n%s--- after ---\n%s", name, before, after)
		}
		checkKeptContext(t, name, fc)
		return false
	}
	patched := func(name string, pass func() dataflow.Changes) bool {
		before := ownTexts(prog)
		ch := pass()
		if err := patch(fc, ch); err != nil {
			t.Fatalf("%s broke the program: %v", name, err)
		}
		checkReport(t, name, before, ownTexts(prog), ch)
		checkKeptContext(t, name, fc)
		return ch.Any()
	}
	restructured("inline", passes.Inline)
	patched("ipcp", func() dataflow.Changes { return passes.PropagateGlobalConstants(fc) })
	for round := 1; round <= 3; round++ {
		patched("fold", func() dataflow.Changes { return passes.FoldConstants(prog) })
		changed := restructured("simplify", passes.SimplifyControl)
		for _, pass := range scalarPasses {
			changed = patched(pass.name, func() dataflow.Changes { return pass.run(fc) }) || changed
		}
		if !changed {
			break
		}
	}
}

// stmtText is one statement's unit and the text of its own expressions
// (not its nested statements).
type stmtText struct {
	unit *lang.Unit
	text string
}

func ownTexts(prog *lang.Program) map[lang.Stmt]stmtText {
	out := map[lang.Stmt]stmtText{}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%T label %d:", s, s.Label())
			if d, ok := s.(*lang.DoStmt); ok {
				sb.WriteString(" " + d.Var.Name)
			}
			lang.StmtExprs(s, func(e lang.Expr) { sb.WriteString(" " + lang.FormatExpr(e)) })
			out[s] = stmtText{u, sb.String()}
			return true
		})
	}
	return out
}

// checkReport compares the statements before and after a pass with what
// it reported.
func checkReport(t *testing.T, pass string, before, after map[lang.Stmt]stmtText, ch dataflow.Changes) {
	t.Helper()
	rewritten, deleted := map[lang.Stmt]bool{}, map[lang.Stmt]bool{}
	for _, list := range []struct {
		changes []dataflow.Change
		set     map[lang.Stmt]bool
	}{{ch.Rewritten, rewritten}, {ch.Deleted, deleted}} {
		for _, c := range list.changes {
			list.set[c.Stmt] = true
			if b, ok := before[c.Stmt]; !ok || b.unit != c.Unit {
				t.Errorf("%s reported a statement under the wrong unit or one not in the program: %s", pass, lang.FormatStmt(c.Stmt))
			}
		}
	}
	for s, b := range before {
		a, kept := after[s]
		switch {
		case !kept && !deleted[s]:
			t.Errorf("%s deleted %q of %s without reporting it", pass, b.text, b.unit.Name)
		case kept && deleted[s]:
			t.Errorf("%s reported deleting %q of %s, still in the program", pass, b.text, b.unit.Name)
		case kept && !rewritten[s] && a != b:
			t.Errorf("%s rewrote %q of %s to %q without reporting it", pass, b.text, b.unit.Name, a.text)
		}
	}
	for s, a := range after {
		if _, ok := before[s]; !ok {
			t.Errorf("%s added %q to %s", pass, a.text, a.unit.Name)
		}
	}
}

// checkKeptContext compares what fc holds with a fresh context over a
// fresh sem.Check of a copy of the program. A check of the program itself
// would number its statements anew, and fc finds what it holds by the
// numbers it was built with; the copy leaves them, and the intrinsic flags
// the check sets, as the passes left them.
func checkKeptContext(t *testing.T, pass string, fc *dataflow.Context) {
	t.Helper()
	prog := fc.Info.Program
	cp := lang.CloneProgram(prog)
	info, err := sem.Check(cp)
	if err != nil {
		t.Fatalf("%s left a program sem rejects: %v", pass, err)
	}
	fresh := dataflow.NewContext(info)
	units, cpUnits := prog.Units(), cp.Units()
	// copyOf maps each statement of prog to its copy: both walks meet them
	// in one order.
	copyOf := map[lang.Stmt]lang.Stmt{}
	for i, u := range units {
		var stmts []lang.Stmt
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool { stmts = append(stmts, s); return true })
		k := 0
		lang.WalkStmts(cpUnits[i].Body, func(s lang.Stmt) bool {
			copyOf[stmts[k]] = s
			k++
			return true
		})
	}
	// inCopy gives the facts f of a statement of prog the references of
	// the statement's copy.
	inCopy := func(f *dataflow.StmtFacts) dataflow.StmtFacts {
		out := *f
		for _, refs := range []*[]dataflow.Ref{&out.ArrayReads, &out.ArrayWrites} {
			*refs = slices.Clone(*refs)
			for i := range *refs {
				(*refs)[i].Stmt = copyOf[(*refs)[i].Stmt]
			}
		}
		return out
	}
	for i, u := range units {
		cu := cpUnits[i]
		labels := map[int]lang.Stmt{}
		for l, s := range fc.Info.Labels[u] {
			labels[l] = copyOf[s]
		}
		if !maps.Equal(labels, info.Labels[cu]) || !slices.Equal(fc.Info.Calls[u], info.Calls[cu]) {
			t.Errorf("after %s, the kept sem.Info holds stale labels or calls for %s", pass, u.Name)
		}
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			c := copyOf[s]
			if got, want := inCopy(fc.Stmt(s)), fresh.Stmt(c); !reflect.DeepEqual(got, *want) {
				t.Errorf("after %s, the kept context holds stale facts for %q at line %d: %+v, want %+v",
					pass, lang.FormatStmt(s), s.Pos().Line, got, *want)
			}
			if ifs, ok := s.(*lang.IfStmt); ok {
				for arm := -1; arm < len(ifs.Elifs); arm++ {
					got, want := inCopy(fc.Cond(ifs, arm)), fresh.Cond(c.(*lang.IfStmt), arm)
					if !reflect.DeepEqual(got, *want) {
						t.Errorf("after %s, the kept context holds stale facts of condition %d for %q at line %d: %+v, want %+v",
							pass, arm, lang.FormatStmt(s), s.Pos().Line, got, *want)
					}
				}
			}
			return true
		})
		inCopyStmt := func(s lang.Stmt) lang.Stmt { return copyOf[s] }
		same := func(s lang.Stmt) lang.Stmt { return s }
		if got, want := graphShape(fc.Graph(u), inCopyStmt), graphShape(fresh.Graph(cu), same); got != want {
			t.Errorf("after %s, the kept context holds a stale graph of %s:\n%s--- want ---\n%s", pass, u.Name, got, want)
		}
		if got, want := fc.Mod.GlobalsModifiedBy(u), fresh.Mod.GlobalsModifiedBy(cu); !slices.Equal(symbols(got), symbols(want)) {
			t.Errorf("after %s, the kept context holds a stale summary of %s: %v %v, want %v %v",
				pass, u.Name, got.SortedScalars(), got.SortedArrays(), want.SortedScalars(), want.SortedArrays())
		}
	}
	checkWriteSets(t, pass, fc, fresh)
}

// symbols lists the symbols m holds by slot: a fresh check of a copy of a
// program gives each symbol the slot of its original.
func symbols(m *dataflow.ModSet) []int32 {
	var out []int32
	m.Each(func(sym *sem.Symbol) { out = append(out, sym.Slot) })
	return out
}

// graphShape renders a flat CFG: each node's kind, statement (as stmt
// maps it) and condition index, and its successors.
func graphShape(g *cfg.Graph, stmt func(lang.Stmt) lang.Stmt) string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "#%d %v %p %d ->", n.ID, n.Kind, stmt(n.Stmt), n.CondIndex)
		for _, s := range n.Succs {
			fmt.Fprintf(&sb, " %d", s.ID)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPatchRejectsBrokenRewrite pins that a reported rewrite sem rejects
// fails the compile as a full recheck after it did: with
// "internal: pass broke the program" and comperr.ErrAnalysis.
func TestPatchRejectsBrokenRewrite(t *testing.T) {
	prog, err := lang.Parse("program p\n integer a, b\n a = 1\n b = a + 1\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := recheck(prog)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Main.Body[1].(*lang.AssignStmt)
	as.Rhs = &lang.Ident{NamePos: as.Rhs.Pos(), Name: "nosuch"}
	var ch dataflow.Changes
	ch.Rewrote(prog.Main, as)
	err = patch(fc, ch)
	if err == nil || !errors.Is(err, comperr.ErrAnalysis) ||
		!strings.Contains(err.Error(), "internal: pass broke the program") || !strings.Contains(err.Error(), `undeclared variable "nosuch"`) {
		t.Fatalf("patch after a rewrite to an undeclared name returned %v", err)
	}
}

// checkWriteSets compares the write set kept gives every statement list
// of its program with the one fresh gives the list's copy in its own.
func checkWriteSets(t *testing.T, pass string, kept, fresh *dataflow.Context) {
	t.Helper()
	type list struct {
		unit  *lang.Unit
		what  string
		at    lang.Pos
		stmts []lang.Stmt
	}
	lists := func(prog *lang.Program) []list {
		var out []list
		for _, u := range prog.Units() {
			out = append(out, list{u, "the body", u.Pos(), u.Body})
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				switch s := s.(type) {
				case *lang.DoStmt:
					out = append(out, list{u, "a DO body", s.Pos(), s.Body})
				case *lang.WhileStmt:
					out = append(out, list{u, "a WHILE body", s.Pos(), s.Body})
				case *lang.IfStmt:
					out = append(out, list{u, "an IF arm", s.Pos(), s.Then})
					for _, arm := range s.Elifs {
						out = append(out, list{u, "an IF arm", s.Pos(), arm.Body})
					}
					out = append(out, list{u, "an IF arm", s.Pos(), s.Else})
				}
				return true
			})
		}
		return out
	}
	want := lists(fresh.Info.Program)
	for i, l := range lists(kept.Info.Program) {
		got, want := kept.StmtsMod(l.stmts), fresh.StmtsMod(want[i].stmts)
		if !slices.Equal(symbols(got), symbols(want)) {
			t.Errorf("after %s, the kept context holds a stale memoized write set for %s of %s at line %d: %v %v, want %v %v",
				pass, l.what, l.unit.Name, l.at.Line, got.SortedScalars(), got.SortedArrays(), want.SortedScalars(), want.SortedArrays())
		}
	}
}
