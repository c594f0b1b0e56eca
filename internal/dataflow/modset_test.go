package dataflow

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/sem"
)

// TestModSetBySlot pins that write sets hold symbols, not names: a local
// and a global of one name are two members, a callee's write of a global
// reaches its caller's sets through the summary while the caller's local
// of that name stays out, the assignment solve follows the sets, the
// sorted lists are in name order, though slots follow declaration order,
// and HasName finds a name by any symbol of it.
// Contexts over one checked program are then built and queried at once,
// which races under -race if any of them writes the program.
func TestModSetBySlot(t *testing.T) {
	fc := setup(t, `
program main
  integer g, zz, aa
  real ya(4), xa(4)
  call caller
  call other
end
subroutine caller
  integer g
  zz = g
  call writer
end
subroutine writer
  g = 7
  aa = 1
  ya(1) = 1.0
  xa(2) = 2.0
end
subroutine other
  integer g
  g = 1
end
`)
	prog := fc.Info.Program
	caller, other := prog.Unit("caller"), prog.Unit("other")
	global := fc.Info.Globals["g"].Slot
	local, otherLocal := fc.Info.Scope(caller).Slot("g"), fc.Info.Scope(other).Slot("g")
	if global == local || global == otherLocal || local == otherLocal {
		t.Fatalf("the three g share slots: global %d, caller's %d, other's %d", global, local, otherLocal)
	}
	if m := fc.StmtsMod(other.Body); !m.Has(otherLocal) || m.Has(global) || m.Has(local) {
		t.Errorf("other's body set holds %v: want its own g only", symbols(m))
	}
	for what, m := range map[string]*ModSet{"body set": fc.StmtsMod(caller.Body), "summary": fc.Mod.GlobalsModifiedBy(caller)} {
		if !m.Has(global) || m.Has(local) {
			t.Errorf("caller's %s holds %v: want the global g through writer's summary, not the local g", what, symbols(m))
		}
		if got := m.SortedScalars(); !slices.Equal(got, []string{"aa", "g", "zz"}) {
			t.Errorf("caller's %s: SortedScalars = %v, want [aa g zz]", what, got)
		}
		if got := m.SortedArrays(); !slices.Equal(got, []string{"xa", "ya"}) {
			t.Errorf("caller's %s: SortedArrays = %v, want [xa ya]", what, got)
		}
		if !m.HasName("g") || !m.HasName("ya") || m.HasName("gg") {
			t.Errorf("caller's %s: HasName g %v, ya %v, gg %v; want true, true, false", what, m.HasName("g"), m.HasName("ya"), m.HasName("gg"))
		}
	}
	if m := fc.Mod.GlobalsModifiedBy(other); len(symbols(m)) != 0 {
		t.Errorf("other's summary holds %v: its g is a local", symbols(m))
	}
	// The call assigns the global g at caller's exit, never its local g.
	exit := fc.Graph(caller).Exit
	if asg := ComputeAssigned(fc.Graph(caller).Nodes, fc); !asg.Must(exit, global) || asg.May(exit, local) {
		t.Errorf("at caller's exit: Must(global g) %v, May(local g) %v; want true and false", asg.Must(exit, global), asg.May(exit, local))
	}

	for _, k := range kernels.All(kernels.Small) {
		prog, err := lang.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([][]string, 2)
		var wg sync.WaitGroup
		for g := range sets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fc := NewContext(info)
				for _, u := range prog.Units() {
					ComputeAssigned(fc.Graph(u).Nodes, fc)
					lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
						if d, ok := s.(*lang.DoStmt); ok {
							m := fc.StmtsMod(d.Body)
							sets[g] = append(sets[g], fmt.Sprint(m.SortedScalars(), m.SortedArrays()))
						}
						return true
					})
				}
			}()
		}
		wg.Wait()
		if !slices.Equal(sets[0], sets[1]) {
			t.Errorf("kernel %s: two contexts over one program gave two write sets", k.Name)
		}
	}
}

// symbols lists the slots m holds.
func symbols(m *ModSet) []int32 {
	var out []int32
	m.Each(func(sym *sem.Symbol) { out = append(out, sym.Slot) })
	return out
}
