package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comperr"
)

// TestRunTooManyProcessorsExitsLimit runs irrc -run with one simulated
// processor more than the interpreter's bound: it exits with the
// resource-limit code instead of allocating per-processor state, and its
// message names no source position, since the error has none.
func TestRunTooManyProcessorsExitsLimit(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "irrc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
