package lint_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/lint"
	"repro/internal/progen"
)

var update = flag.Bool("update", false, "rewrite the golden .diag files")

// TestGoldenDiagnostics locks the full diagnostic output — codes, spans,
// messages, related notes and hints — for every committed example. The
// shipped corpus under examples/corpus must stay clean (empty goldens);
// the testdata programs are deliberately defective and their goldens are
// the rich rendering. Regenerate with: go test ./internal/lint -run Golden -update
func TestGoldenDiagnostics(t *testing.T) {
	for _, dir := range []string{"../../examples/corpus", "testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.fl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("no .fl programs under %s", dir)
		}
		for _, path := range paths {
			path := path
			t.Run(filepath.Base(path), func(t *testing.T) {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				diags, err := irregular.Lint(string(src), irregular.Options{})
				if err != nil {
					t.Fatalf("lint %s: %v", path, err)
				}
				got := irregular.RenderDiags(diags)
				golden := strings.TrimSuffix(path, ".fl") + ".diag"
				if *update {
					if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("diagnostics drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
				}
			})
		}
	}
}

// TestCorpusIsClean is the acceptance gate in test form: the shipped
// examples must produce zero error-severity diagnostics.
func TestCorpusIsClean(t *testing.T) {
	paths, err := filepath.Glob("../../examples/corpus/*.fl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := irregular.Lint(string(src), irregular.Options{})
		if err != nil {
			t.Fatalf("lint %s: %v", path, err)
		}
		if lint.AtLeast(diags, lint.Error) {
			t.Errorf("%s has error diagnostics:\n%s", path, irregular.RenderDiags(diags))
		}
	}
}

// progenLintSeeds is the number of serve-mix-shaped progen programs whose
// diagnostics TestGoldenProgenDiagnostics pins.
const progenLintSeeds = 200

// TestGoldenProgenDiagnostics locks the rendered diagnostics of generated
// programs drawn the way the service benchmark's mix draws them: seed s
// picks the generator settings and then the program from one stream. The
// curated examples above exercise each lint once; these cover the source
// lints and the verdict audit over the shapes a lint request carries.
// Regenerate with: go test ./internal/lint -run Golden -update
func TestGoldenProgenDiagnostics(t *testing.T) {
	var sb strings.Builder
	for seed := int64(0); seed < progenLintSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := progen.Config{N: 16 + rng.Intn(33), MaxBlocks: 4 + rng.Intn(9), Subroutines: rng.Intn(3) == 0}
		src := progen.Generate(rng, cfg)
		diags, err := irregular.Lint(src, irregular.Options{Mode: irregular.Full})
		if err != nil {
			t.Fatalf("seed %d: lint: %v\n%s", seed, err, src)
		}
		fmt.Fprintf(&sb, "== seed %d (n=%d blocks=%d subroutines=%v)\n%s", seed, cfg.N, cfg.MaxBlocks, cfg.Subroutines, irregular.RenderDiags(diags))
	}
	got := sb.String()
	const golden = "testdata/progen.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("diagnostics drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("diagnostics drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
