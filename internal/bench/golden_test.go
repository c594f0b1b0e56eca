package bench

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite testdata/irrbench.golden")

// TestIrrbenchGolden pins irrbench's deterministic output: what
// `irrbench -table3 -fig16` prints at the default size, Table 3 and the
// Fig. 16 speedups over P = 1, 2, 4, 8, 16, 32. Both derive from the
// verdicts and the simulated cycles alone. EXPERIMENTS.md quotes each of
// the two verbatim, as one fenced block, so the test also fails when that
// copy differs. Regenerate with:
//
//	go test ./internal/bench -run TestIrrbenchGolden -update
//
// and paste the two blocks into EXPERIMENTS.md.
func TestIrrbenchGolden(t *testing.T) {
	rows, err := Table3(kernels.Default)
	if err != nil {
		t.Fatal(err)
	}
	series, err := Fig16(kernels.Default, []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	table3, fig16 := FormatTable3(rows), FormatFig16(series)
	got := table3 + "\n" + fig16

	const golden = "testdata/irrbench.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("irrbench output drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("irrbench output drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{table3, fig16} {
		title, _, _ := strings.Cut(part, "\n")
		if !strings.Contains(string(doc), "```\n"+part+"```\n") {
			t.Errorf("EXPERIMENTS.md does not quote %q as irrbench prints it in %s", title, golden)
		}
	}
}
