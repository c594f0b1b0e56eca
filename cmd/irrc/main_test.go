package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comperr"
)

// buildIrrc builds the command into a temporary directory and returns the
// binary's path.
func buildIrrc(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "irrc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRunTooManyProcessorsExitsLimit runs irrc -run with one simulated
// processor more than the interpreter's bound: it exits with the
// resource-limit code instead of allocating per-processor state, and its
// message names no source position, since the error has none.
func TestRunTooManyProcessorsExitsLimit(t *testing.T) {
	bin := buildIrrc(t)
	out, err := exec.Command(bin, "-kernel", "tree", "-run", "-procs", "1025").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != comperr.ExitLimit {
		t.Fatalf("irrc exited with %v, want code %d\n%s", err, comperr.ExitLimit, out)
	}
	const want = "irrc: runtime error: 1025 simulated processors exceed the limit of 1024\n"
	if !strings.Contains(string(out), want) {
		t.Errorf("irrc printed %q, want it to contain %q", out, want)
	}
}

// TestBatchLintPrintsFindings runs irrc -lint over two inputs, the first
// with a non-monotonic offset-array fill: each input's findings follow its
// summary, as they do for a single input.
func TestBatchLintPrintsFindings(t *testing.T) {
	bin := buildIrrc(t)
	out, err := exec.Command(bin, "-lint",
		"../../internal/lint/testdata/nonmono.fl", "../../examples/corpus/fig1a.fl").CombinedOutput()
	if err != nil {
		t.Fatalf("irrc: %v\n%s", err, out)
	}
	for _, want := range []string{"[IRR2004]", "lint: no findings"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("irrc printed\n%s\nwant it to contain %q", out, want)
		}
	}
}

// TestBatchInterchangePrintsCount runs irrc -interchange over two inputs,
// the first a nest the pass interchanges: the count follows its summary,
// as it does for a single input.
func TestBatchInterchangePrintsCount(t *testing.T) {
	bin := buildIrrc(t)
	nest := filepath.Join(t.TempDir(), "nest.fl")
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
	if err := os.WriteFile(nest, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-interchange", nest, "../../examples/corpus/fig1a.fl").CombinedOutput()
	if err != nil {
		t.Fatalf("irrc: %v\n%s", err, out)
	}
	first, _, ok := strings.Cut(string(out), "== ../../examples/corpus/fig1a.fl ==")
	if !ok || !strings.HasSuffix(first, "loop nests interchanged: 1\n") {
		t.Errorf("irrc printed\n%s\nwant the first input's summary followed by %q", out, "loop nests interchanged: 1")
	}
}
