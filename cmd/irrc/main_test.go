package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/comperr"
)

// TestRunTooManyProcessorsExitsLimit runs irrc -run with one simulated
// processor more than the interpreter's bound: it exits with the
// resource-limit code instead of allocating per-processor state.
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
}
