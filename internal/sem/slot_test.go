package sem

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lang"
)

// nameSlots calls f with the scope of every statement of prog and each
// name it resolves: DO variables, identifiers and array references.
func nameSlots(prog *lang.Program, info *Info, f func(sc *Scope, name string, slot *int32, intrinsic bool)) {
	for _, u := range prog.Units() {
		sc := info.Scope(u)
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			if d, ok := s.(*lang.DoStmt); ok {
				f(sc, d.Var.Name, &d.Var.Slot, false)
			}
			lang.StmtExprs(s, func(e lang.Expr) {
				lang.WalkExpr(e, func(x lang.Expr) bool {
					switch x := x.(type) {
					case *lang.Ident:
						f(sc, x.Name, &x.Slot, false)
					case *lang.ArrayRef:
						f(sc, x.Name, &x.Slot, x.Intrinsic)
					}
					return true
				})
			})
			return true
		})
	}
}

// exprSlots lists the slots the names of a statement's own expressions
// carry, in walk order.
func exprSlots(s lang.Stmt) []int32 {
	var out []int32
	if d, ok := s.(*lang.DoStmt); ok {
		out = append(out, d.Var.Slot)
	}
	lang.StmtExprs(s, func(e lang.Expr) {
		lang.WalkExpr(e, func(x lang.Expr) bool {
			switch x := x.(type) {
			case *lang.Ident:
				out = append(out, x.Slot)
			case *lang.ArrayRef:
				out = append(out, x.Slot)
			}
			return true
		})
	})
	return out
}

// TestSymbolSlots pins the slot rule: after Check every name of a
// statement carries the slot of the symbol its scope resolves it to (an
// intrinsic call carries none), copies of statements and expressions
// carry their originals' slots, CheckStmt sets the slots of a rewritten
// statement, TypeOf writes none, and a second Check gives the same slots.
// Over the kernels at both sizes and the example corpus.
func TestSymbolSlots(t *testing.T) {
	srcs := map[string]string{}
	for _, size := range []kernels.Size{kernels.Small, kernels.Default} {
		for _, k := range kernels.All(size) {
			srcs[fmt.Sprintf("kernel %s size %d", k.Name, size)] = k.Source
		}
	}
	paths, err := filepath.Glob("../../examples/corpus/*.fl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example corpus: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[p] = string(b)
	}
	names := 0
	for name, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var first []int32
		nameSlots(prog, info, func(sc *Scope, n string, slot *int32, intrinsic bool) {
			names++
			first = append(first, *slot)
			want := int32(0)
			if !intrinsic {
				want = sc.Lookup(n).Slot
			}
			if *slot != want {
				t.Errorf("%s: %q carries slot %d, its scope resolves it to %d", name, n, *slot, want)
			}
		})
		for _, u := range prog.Units() {
			lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
				if got, want := exprSlots(lang.CloneStmt(s)), exprSlots(s); !slices.Equal(got, want) {
					t.Errorf("%s: CloneStmt of %q carries slots %v, want %v", name, lang.FormatStmt(s), got, want)
				}
				lang.StmtExprs(s, func(e lang.Expr) {
					c := &lang.PrintStmt{Args: []lang.Expr{lang.CloneExpr(e)}}
					if got, want := exprSlots(c), exprSlots(&lang.PrintStmt{Args: []lang.Expr{e}}); !slices.Equal(got, want) {
						t.Errorf("%s: CloneExpr of %q carries slots %v, want %v", name, lang.FormatExpr(e), got, want)
					}
				})
				return true
			})
		}
		// TypeOf only reads: two goroutines asking it about every
		// expression at once race if either writes a slot.
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, u := range prog.Units() {
					lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
						lang.StmtExprs(s, func(e lang.Expr) { info.TypeOf(u, e) })
						return true
					})
				}
			}()
		}
		wg.Wait()
		if _, err := Check(prog); err != nil {
			t.Fatalf("%s: second check: %v", name, err)
		}
		var again []int32
		nameSlots(prog, info, func(_ *Scope, _ string, slot *int32, _ bool) { again = append(again, *slot) })
		if !slices.Equal(again, first) {
			t.Errorf("%s: a second Check gave other slots", name)
		}
	}
	if names < 1000 {
		t.Errorf("only %d names checked", names)
	}

	info := mustCheck(t, `
program p
  integer a, b
  a = 1
  call s
end
subroutine s
  integer a, c
  a = b
end
`)
	u := info.Program.Unit("s")
	as := u.Body[0].(*lang.AssignStmt)
	fresh := &lang.Ident{NamePos: as.Rhs.Pos(), Name: "c"}
	if info.TypeOf(u, fresh); fresh.Slot != 0 {
		t.Errorf("TypeOf wrote slot %d", fresh.Slot)
	}
	as.Rhs = &lang.Binary{Op: lang.OpAdd, X: fresh, Y: &lang.Ident{Name: "b"}}
	if err := info.CheckStmt(u, as); err != nil {
		t.Fatal(err)
	}
	sc := info.Scope(u)
	if got, want := exprSlots(as), []int32{sc.Slot("a"), sc.Slot("c"), info.Globals["b"].Slot}; !slices.Equal(got, want) {
		t.Errorf("after CheckStmt the rewritten statement carries slots %v, want %v", got, want)
	}
	if sc.Slot("a") == info.Globals["a"].Slot {
		t.Error("the local a and the global a share a slot")
	}
}
