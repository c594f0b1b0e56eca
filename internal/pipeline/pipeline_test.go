package pipeline

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/parallel"
	"repro/internal/sem"
)

func TestCompileAllKernelsAllModesAllOrgs(t *testing.T) {
	for _, k := range kernels.All(kernels.Small) {
		for _, mode := range []parallel.Mode{parallel.Full, parallel.NoIAA, parallel.Baseline} {
			for _, intra := range []bool{false, true} {
				res, err := CompileOpts(k.Source, mode, Options{Intraprocedural: intra})
				if err != nil {
					t.Fatalf("%s/%v/intra=%v: %v", k.Name, mode, intra, err)
				}
				if res.LoC == 0 || res.CompileTime == 0 {
					t.Errorf("%s: missing accounting", k.Name)
				}
				// The transformed program must still be semantically valid.
				if _, err := sem.Check(res.Program); err != nil {
					t.Errorf("%s/%v/intra=%v: transformed program invalid: %v", k.Name, mode, intra, err)
				}
			}
		}
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	_, err := Compile("program p\n x = \nend\n", parallel.Full)
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("expected parse error, got %v", err)
	}
}

func TestSemErrorSurfaces(t *testing.T) {
	_, err := Compile("program p\n x = 1\nend\n", parallel.Full)
	if err == nil || !strings.Contains(err.Error(), "semantic") {
		t.Fatalf("expected semantic error, got %v", err)
	}
}

func TestSummaryMentionsLoops(t *testing.T) {
	src := `
program p
  param n = 16
  real a(n)
  integer i
  do i = 1, n
    a(i) = real(i)
  end do
end
`
	res, err := Compile(src, parallel.Full)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "PARALLEL") || !strings.Contains(sum, "do_i") {
		t.Errorf("summary: %s", sum)
	}
	if len(res.ParallelLoops()) != 1 {
		t.Errorf("parallel loops: %d", len(res.ParallelLoops()))
	}
}

func TestPipelineIsIdempotentOnFixpoint(t *testing.T) {
	// Compiling the formatted output of a compile must succeed and find
	// the same parallel loops.
	k, _ := kernels.ByName("p3m", kernels.Small)
	first, err := Compile(k.Source, parallel.Full)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the !parallel annotations the printer adds.
	var clean []string
	for _, line := range strings.Split(lang.Format(first.Program), "\n") {
		if strings.Contains(strings.TrimSpace(line), "!parallel") {
			continue
		}
		clean = append(clean, line)
	}
	second, err := Compile(strings.Join(clean, "\n"), parallel.Full)
	if err != nil {
		t.Fatalf("recompile of transformed output: %v", err)
	}
	if len(first.ParallelLoops()) != len(second.ParallelLoops()) {
		t.Errorf("parallel loop count changed: %d vs %d",
			len(first.ParallelLoops()), len(second.ParallelLoops()))
	}
}

func TestPropertyTimeAccounted(t *testing.T) {
	k, _ := kernels.ByName("dyfesm", kernels.Small)
	res, err := Compile(k.Source, parallel.Full)
	if err != nil {
		t.Fatal(err)
	}
	if res.PropertyStats.Queries == 0 {
		t.Error("dyfesm should issue property queries")
	}
	if res.PropertyTime <= 0 {
		t.Error("property time not accounted")
	}
	if res.PropertyTime > res.CompileTime {
		t.Error("property time exceeds total compile time")
	}
}

func TestInterchangeOption(t *testing.T) {
	src := `
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
`
	plain, err := Compile(src, parallel.Full)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Interchanged != 0 {
		t.Error("interchange ran without being requested")
	}
	opt, err := CompileOpts(src, parallel.Full, Options{Interchange: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Interchanged != 1 {
		t.Errorf("interchanged = %d, want 1", opt.Interchanged)
	}
	if _, err := sem.Check(opt.Program); err != nil {
		t.Fatalf("interchange broke the program: %v", err)
	}
}

// TestCountLoC pins what a line of code is, which Table 2 prints and
// Snapshot.Cost weighs: a line that holds more than white space, the
// same count as splitting the source at every newline.
func TestCountLoC(t *testing.T) {
	split := func(src string) int {
		n := 0
		for _, line := range strings.Split(src, "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
		return n
	}
	srcs := []string{"", "\n", "x", "x\n", "\n\nx", "  \t\n x \r\n\r\n", "a\n\n  b\n \n"}
	for _, k := range kernels.All(kernels.Default) {
		srcs = append(srcs, k.Source)
	}
	for _, src := range srcs {
		if got, want := countLoC(src), split(src); got != want {
			t.Errorf("countLoC(%.20q) = %d, want %d", src, got, want)
		}
	}
}
