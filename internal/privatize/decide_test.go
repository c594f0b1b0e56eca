package privatize

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/progen"
)

// staleFactsSrc writes c after a tracked value (p) and a MUST section
// (y's) name it: the way one array's write reaches another's decision,
// which must happen whether or not c is decided too.
const staleFactsSrc = `
program stalefacts
  param n = 16
  param m = 12
  integer c(n)
  real x(m), y(m), z(n, m)
  integer k, j, p
  do k = 1, n
    p = c(k)
    c(k) = 0
    do j = 1, 8
      p = p + 1
      x(p) = real(k)
    end do
    do j = c(k) + 1, p
      z(k, j) = x(j)
    end do
  end do
  do k = 1, n
    do j = 1, c(k)
      y(j) = real(k)
    end do
    c(k) = c(k) + 5
    do j = 1, c(k)
      z(k, j) = y(j)
    end do
  end do
end
`

// TestDecidingOneArrayMatchesDecidingAll runs the privatization test on
// every DO loop of the bundled kernels at both sizes, progen seeds 0–63,
// the example corpus and staleFactsSrc, with and without the property
// analysis: once for all the arrays the loop writes, and once for each
// array alone. The two Results must agree, or the walker lets the arrays
// it decides interact.
func TestDecidingOneArrayMatchesDecidingAll(t *testing.T) {
	type input struct{ name, src string }
	inputs := []input{{"stalefacts", staleFactsSrc}}
	for _, size := range []kernels.Size{kernels.Small, kernels.Default} {
		for _, k := range kernels.All(size) {
			inputs = append(inputs, input{fmt.Sprintf("%s/size%d", k.Name, size), k.Source})
		}
	}
	for seed := int64(0); seed < 64; seed++ {
		src := progen.Generate(rand.New(rand.NewSource(seed)), progen.Config{N: 24, MaxBlocks: 8, Subroutines: true})
		inputs = append(inputs, input{fmt.Sprintf("progen-%02d", seed), src})
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
		inputs = append(inputs, input{filepath.Base(path), string(src)})
	}

	decided, private := 0, 0
	for _, in := range inputs {
		for _, withProp := range []bool{true, false} {
			w := build(t, in.src, withProp)
			for _, u := range w.info.Program.Units() {
				lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
					loop, ok := s.(*lang.DoStmt)
					if !ok {
						return true
					}
					arrays := w.an.Facts.StmtsMod(loop.Body).SortedArrays()
					all := w.an.AnalyzeLoop(u, loop, arrays)
					for _, arr := range arrays {
						alone := w.an.AnalyzeLoop(u, loop, []string{arr})[arr]
						if !reflect.DeepEqual(alone, all[arr]) {
							t.Errorf("%s (property analysis %v) %s/do_%s@%d: deciding %s alone gives %+v, with %v gives %+v",
								in.name, withProp, u.Name, loop.Var.Name, loop.Pos().Line, arr, alone, arrays, all[arr])
						}
						decided++
						if alone != nil && alone.Private {
							private++
						}
					}
					return true
				})
			}
		}
	}
	// Guard against a vacuous pass: the inputs hold about 1,700 written
	// arrays, 250 of them private.
	if decided < 1000 || private < 200 {
		t.Fatalf("decided %d arrays, %d private: the inputs no longer exercise the test", decided, private)
	}
}
