package comperr

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestKindsAreDistinct(t *testing.T) {
	kinds := []error{ErrParse, ErrAnalysis, ErrResourceLimit, ErrCanceled}
	for i, a := range kinds {
		for j, b := range kinds {
			if (i == j) != errors.Is(Wrap(a, fmt.Errorf("x")), b) {
				t.Errorf("kind %v vs %v: wrong errors.Is", a, b)
			}
		}
	}
}

func TestWrapPreservesCause(t *testing.T) {
	cause := fmt.Errorf("line 3: unexpected token")
	err := Wrap(ErrParse, cause)
	if !errors.Is(err, ErrParse) || !errors.Is(err, cause) {
		t.Fatalf("Wrap lost kind or cause: %v", err)
	}
	if err.Error() != cause.Error() {
		t.Fatalf("Error() = %q, want the cause %q", err.Error(), cause.Error())
	}
	// Re-wrapping under the same kind is the identity.
	if again := Wrap(ErrParse, err); again != err {
		t.Fatalf("double Wrap rebuilt the error")
	}
	var te *Error
	if !errors.As(err, &te) || te.Kind() != ErrParse {
		t.Fatalf("errors.As(*Error) failed or wrong kind")
	}
}

func TestWrapNil(t *testing.T) {
	if Wrap(ErrParse, nil) != nil {
		t.Fatalf("Wrap(kind, nil) must be nil")
	}
}

func TestCanceledWrapsContextError(t *testing.T) {
	err := Canceled(context.DeadlineExceeded)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Canceled must wrap both the sentinel and the context error: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deadline error must not match context.Canceled")
	}
	if def := Canceled(nil); !errors.Is(def, context.Canceled) {
		t.Fatalf("Canceled(nil) should default to context.Canceled")
	}
}

func TestKindStringAndExitCode(t *testing.T) {
	cases := []struct {
		err  error
		kind string
		code int
	}{
		{nil, "internal", ExitOK},
		{fmt.Errorf("boom"), "internal", ExitInternal},
		{Parsef("p"), "parse", ExitParse},
		{Analysisf("a"), "analysis", ExitAnalysis},
		{Limitf("l"), "resource_limit", ExitLimit},
		{Canceled(nil), "canceled", ExitCanceled},
		{context.DeadlineExceeded, "canceled", ExitCanceled},
	}
	for _, c := range cases {
		if c.err != nil && KindString(c.err) != c.kind {
			t.Errorf("KindString(%v) = %q, want %q", c.err, KindString(c.err), c.kind)
		}
		if ExitCode(c.err) != c.code {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, ExitCode(c.err), c.code)
		}
	}
}

func TestGuardNilIsNoOp(t *testing.T) {
	var g *Guard
	for i := 0; i < 10_000; i++ {
		g.Step()
		g.Check()
	}
	g.Barrier()
	if g.CheckFn() != nil {
		t.Fatalf("nil guard must return a nil CheckFn")
	}
	if NewGuard(context.Background(), 0) != nil {
		t.Fatalf("background context with no budget should build a disabled guard")
	}
}

func TestGuardStepBudget(t *testing.T) {
	g := NewGuard(context.Background(), 5)
	err := func() (err error) {
		defer RecoverAbort(&err)
		for i := 0; i < 100; i++ {
			g.Step()
		}
		return nil
	}()
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("exhausted step budget should be ErrResourceLimit, got %v", err)
	}
}

func TestGuardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGuard(ctx, 0)
	err := func() (err error) {
		defer RecoverAbort(&err)
		for i := 0; i < 10*pollEvery; i++ {
			g.Check()
		}
		return nil
	}()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled guard should abort with ErrCanceled, got %v", err)
	}
}

func TestGuardBarrierImmediate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	g := NewGuard(ctx, 0)
	err := func() (err error) {
		defer RecoverAbort(&err)
		g.Barrier() // must fire on the very first call, no sampling
		return nil
	}()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("barrier should fire immediately with the deadline error, got %v", err)
	}
}

// lateTimerCtx has a deadline whose timer has not fired yet: Done stays
// open however far the deadline lies in the past, as it can under load.
type lateTimerCtx struct {
	context.Context
	deadline time.Time
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func TestGuardBarrierPassedDeadline(t *testing.T) {
	open, cancel := context.WithCancel(context.Background())
	defer cancel()
	barrier := func(deadline time.Time) (err error) {
		defer RecoverAbort(&err)
		NewGuard(lateTimerCtx{open, deadline}, 0).Barrier()
		return nil
	}
	if err := barrier(time.Now().Add(time.Hour)); err != nil {
		t.Fatalf("barrier fired before the deadline: %v", err)
	}
	err := barrier(time.Now().Add(-time.Millisecond))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("barrier past the deadline = %v, want ErrCanceled and DeadlineExceeded", err)
	}
}

func TestRecoverAbortPassesOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("foreign panic should pass through, got %v", r)
		}
	}()
	var err error
	func() {
		defer RecoverAbort(&err)
		panic("boom")
	}()
}
