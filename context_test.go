package irregular

import (
	"context"
	"errors"
	"testing"
	"time"
)

// spinSrc runs long enough (several thousand interpreter steps) that the
// interpreter's periodic context poll is guaranteed to fire.
const spinSrc = `
program spin
  param n = 4000
  real a(n)
  integer i
  real total
  total = 0.0
  do i = 1, n
    a(i) = real(mod(i, 13))
  end do
  do i = 1, n
    total = total + a(i)
  end do
  print "total", total
end
`

func TestCompileContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, demoSrc, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not match context.Canceled", err)
	}
	// The other kinds must not match.
	for _, kind := range []error{ErrParse, ErrAnalysis, ErrResourceLimit} {
		if errors.Is(err, kind) {
			t.Errorf("cancellation error also matches %v", kind)
		}
	}
}

func TestCompileContextLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res, err := CompileContext(ctx, demoSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(demoSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format() != plain.Format() {
		t.Error("live-context output differs from Compile")
	}
}

func TestCompileErrorKinds(t *testing.T) {
	if _, err := Compile("not a program", Options{}); !errors.Is(err, ErrParse) {
		t.Errorf("parse failure: err = %v, want ErrParse", err)
	}
	_, err := Compile(demoSrc, Options{Limits: Limits{MaxSourceBytes: 8}})
	if !errors.Is(err, ErrResourceLimit) {
		t.Errorf("oversized source: err = %v, want ErrResourceLimit", err)
	}
}

func TestCompileBatchContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br := CompileBatchContext(ctx, []BatchInput{
		{Name: "a", Src: demoSrc},
		{Name: "b", Src: demoSrc},
	}, Options{})
	if len(br.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(br.Items))
	}
	for _, it := range br.Items {
		if !errors.Is(it.Err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", it.Name, it.Err)
		}
	}
}

func TestRunContextCanceled(t *testing.T) {
	res, err := Compile(spinSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = res.RunContext(ctx, RunOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not match context.Canceled", err)
	}
	// The same result still runs fine under a live context: cancellation
	// left no residue in the compiled program.
	if _, err := res.RunContext(context.Background(), RunOptions{}); err != nil {
		t.Errorf("re-run after cancellation: %v", err)
	}
}

func TestRunContextStepLimit(t *testing.T) {
	res, err := Compile(spinSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = res.Run(RunOptions{MaxSteps: 10})
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("err = %v, want ErrResourceLimit", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("step-limit error also matches ErrCanceled: %v", err)
	}
}

// TestRunContextProcessorLimit runs at the simulated processor bound and
// one past it: the first run succeeds, the second fails with a
// resource-limit error instead of allocating per-processor state.
func TestRunContextProcessorLimit(t *testing.T) {
	res, err := Compile(spinSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.RunContext(context.Background(), RunOptions{Processors: 1024}); err != nil {
		t.Fatalf("1024 processors: %v", err)
	}
	_, err = res.RunContext(context.Background(), RunOptions{Processors: 1025})
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("1025 processors: err = %v, want ErrResourceLimit", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	res, err := Compile(spinSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline fire
	_, err = res.RunContext(ctx, RunOptions{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}
