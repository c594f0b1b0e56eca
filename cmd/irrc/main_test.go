package main

import (
	"errors"
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
