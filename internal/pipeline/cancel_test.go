package pipeline_test

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/comperr"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/progen"
)

// largeSrc concatenates generated programs into one big compilation unit
// set — big enough that a 1ms deadline reliably fires mid-analysis. (The
// programs stay separate inputs; cancellation is exercised both through
// CompileContext on one large program and through the batch.)
func generatedInputs(t *testing.T, n int) []pipeline.BatchInput {
	t.Helper()
	var inputs []pipeline.BatchInput
	for seed := int64(0); seed < int64(n); seed++ {
		r := rand.New(rand.NewSource(seed))
		inputs = append(inputs, pipeline.BatchInput{
			Name: "gen-" + strconv.FormatInt(seed, 10),
			Src:  progen.Generate(r, progen.Config{N: 64, MaxBlocks: 12, Subroutines: seed%2 == 0}),
		})
	}
	return inputs
}

// bigProgram is one generated program large enough to take visible
// compilation time (many blocks, subroutines).
func bigProgram() string {
	r := rand.New(rand.NewSource(7))
	return progen.Generate(r, progen.Config{N: 96, MaxBlocks: 24, Subroutines: true})
}

// TestDeadlineMidCompilation is the acceptance test of the cancellation
// layer: an expired deadline aborts a compilation promptly with the typed
// cancellation error, matching both the sentinel and the context error.
func TestDeadlineMidCompilation(t *testing.T) {
	src := bigProgram()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Let the deadline fire before compilation starts: the first phase
	// barrier must abort without running the pipeline.
	time.Sleep(2 * time.Millisecond)

	start := time.Now()
	_, err := pipeline.CompileContext(ctx, src, 0, pipeline.Reorganized, pipeline.Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expired deadline but compilation succeeded")
	}
	if !errors.Is(err, comperr.ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("cancellation took %v, want well under 1s", elapsed)
	}
}

// TestDeadlineSweep races deadlines of increasing length against a real
// compilation, so the abort lands in different phases — before parse,
// mid-propagation, mid-bDFS, or never. Every outcome must be clean:
// success, or the typed cancellation error.
func TestDeadlineSweep(t *testing.T) {
	src := bigProgram()
	for _, d := range []time.Duration{
		10 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		_, err := pipeline.CompileContext(ctx, src, 0, pipeline.Reorganized, pipeline.Options{})
		cancel()
		if err != nil && !errors.Is(err, comperr.ErrCanceled) {
			t.Errorf("deadline %v: non-cancellation error %v", d, err)
		}
	}
}

// TestCancelMidPropagation cancels while the property analysis is in
// flight (via a context canceled after a few query steps would have run)
// on the kernels, which exercise query propagation heavily.
func TestCancelMidPropagation(t *testing.T) {
	for _, k := range kernels.All(kernels.Small) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // canceled before the first checkpoint
		_, err := pipeline.CompileContext(ctx, k.Source, 0, pipeline.Reorganized, pipeline.Options{})
		if !errors.Is(err, comperr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want ErrCanceled wrapping context.Canceled", k.Name, err)
		}
	}
}

// TestCheckpointsBehaviorNeutral compiles the same program with and
// without a live (never-firing) context and deep limits headroom: the
// checkpoints only read, so summary, formatted program and metrics
// counters must be byte-identical.
func TestCheckpointsBehaviorNeutral(t *testing.T) {
	src := bigProgram()
	plain, err := pipeline.CompileOpts(src, 0, pipeline.Reorganized, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	guarded, err := pipeline.CompileContext(ctx, src, 0, pipeline.Reorganized, pipeline.Options{
		Limits: pipeline.Limits{MaxQuerySteps: 1 << 40, MaxSourceBytes: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := lang.Format(plain.Program), lang.Format(guarded.Program); a != b {
		t.Errorf("formatted programs differ under a live context")
	}
	if a, b := stripTimings(plain.Summary()), stripTimings(guarded.Summary()); a != b {
		t.Errorf("summaries differ under a live context:\n%s\n--- vs ---\n%s", a, b)
	}
	a, b := plain.PropertyStats, guarded.PropertyStats
	a.Elapsed, b.Elapsed = 0, 0 // wall time is the one legitimately varying field
	if a != b {
		t.Errorf("property stats differ: %+v vs %+v", a, b)
	}
}

// stripTimings drops the wall-clock header lines of a summary, keeping the
// per-loop verdicts (the deterministic part).
func stripTimings(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "compiled ") || strings.HasPrefix(line, "  phases:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestMaxQuerySteps bounds propagation: a tiny budget fails typed, a huge
// one is invisible.
func TestMaxQuerySteps(t *testing.T) {
	src := kernelSource(t, "trfd")
	_, err := pipeline.CompileOpts(src, 0, pipeline.Reorganized, pipeline.Options{
		Limits: pipeline.Limits{MaxQuerySteps: 1},
	})
	if !errors.Is(err, comperr.ErrResourceLimit) {
		t.Fatalf("MaxQuerySteps=1: err = %v, want ErrResourceLimit", err)
	}
	if errors.Is(err, comperr.ErrCanceled) {
		t.Errorf("limit error also matches ErrCanceled: %v", err)
	}
	if _, err := pipeline.CompileOpts(src, 0, pipeline.Reorganized, pipeline.Options{
		Limits: pipeline.Limits{MaxQuerySteps: 1 << 40},
	}); err != nil {
		t.Errorf("huge budget failed: %v", err)
	}
}

// TestMaxSourceBytes rejects oversized input before parsing.
func TestMaxSourceBytes(t *testing.T) {
	src := kernelSource(t, "trfd")
	_, err := pipeline.CompileOpts(src, 0, pipeline.Reorganized, pipeline.Options{
		Limits: pipeline.Limits{MaxSourceBytes: 16},
	})
	if !errors.Is(err, comperr.ErrResourceLimit) {
		t.Fatalf("err = %v, want ErrResourceLimit", err)
	}
}

// TestBatchCancellation cancels a batch mid-flight: every item fails, each
// with the typed cancellation error, and the batch still returns a full
// per-item report (no hangs, no panics) — under -race this also checks the
// worker pool shuts down cleanly.
func TestBatchCancellation(t *testing.T) {
	inputs := generatedInputs(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br := pipeline.CompileBatchContext(ctx, inputs, 0, pipeline.Reorganized, pipeline.Options{Jobs: 4})
	if len(br.Items) != len(inputs) {
		t.Fatalf("got %d items, want %d", len(br.Items), len(inputs))
	}
	for _, it := range br.Items {
		if !errors.Is(it.Err, comperr.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", it.Name, it.Err)
		}
		if it.Err != nil && !strings.Contains(it.Err.Error(), it.Name) {
			t.Errorf("%s: error not attributed to its input: %v", it.Name, it.Err)
		}
	}
}

// TestBatchUncanceled is the batch control: the same inputs under a live
// context all compile.
func TestBatchUncanceled(t *testing.T) {
	inputs := generatedInputs(t, 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	br := pipeline.CompileBatchContext(ctx, inputs, 0, pipeline.Reorganized, pipeline.Options{Jobs: 4})
	if err := br.Err(); err != nil {
		t.Fatalf("batch failed under a live context: %v", err)
	}
}

// TestParseAndAnalysisKinds pins the taxonomy of the non-cancellation
// failures.
func TestParseAndAnalysisKinds(t *testing.T) {
	_, err := pipeline.CompileOpts("program p\n  junk £$%\nend\n", 0, pipeline.Reorganized, pipeline.Options{})
	if !errors.Is(err, comperr.ErrParse) {
		t.Errorf("parse failure: err = %v, want ErrParse", err)
	}
	_, err = pipeline.CompileOpts("program p\n  integer i\n  i = undeclared(1)\nend\n", 0, pipeline.Reorganized, pipeline.Options{})
	if !errors.Is(err, comperr.ErrParse) && !errors.Is(err, comperr.ErrAnalysis) {
		t.Errorf("semantic failure: err = %v, want ErrParse or ErrAnalysis", err)
	}
}

func kernelSource(t *testing.T, name string) string {
	t.Helper()
	for _, k := range kernels.All(kernels.Small) {
		if k.Name == name {
			return k.Source
		}
	}
	t.Fatalf("kernel %q not bundled", name)
	return ""
}
