package interp

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comperr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// longChunksSrc's last loop has eight iterations of 40M simulated cycles,
// one per chunk at P=8: over 20 ms each, so an extra goroutine
// starts while the calling goroutine runs the second chunk (the first
// iteration gives the work estimate). idx selects the element each
// iteration writes first: a(100) from the third iteration on when the
// preset k is 1.
const longChunksSrc = `
program p
  param n = 8
  integer i, j, k, idx(n)
  real s, w, a(n)
  do i = 1, n
    idx(i) = i
  end do
  if (k == 1) then
    do i = 3, n
      idx(i) = 100
    end do
  end if
  do i = 1, n
    a(idx(i)) = 1.0
    w = 0.0
    do j = 1, 5000000
      w = w + 1.0
    end do
    a(i) = w
    s = s + w
  end do
end
`

// faultsSrc's last loop runs 8,000 iterations of about 660 cycles, above
// the work threshold at P=8. idx(i) is out of b's bounds late in chunk 2
// (-2) and late in chunk 5 (-5) when the preset k is 1.
const faultsSrc = `
program p
  param n = 8000
  integer i, j, k, idx(n)
  real s, w, a(n), b(8)
  do i = 1, n
    idx(i) = 1
  end do
  if (k == 1) then
    idx(2 * n / 8 + 900) = -2
    idx(5 * n / 8 + 900) = -5
  end if
  do i = 1, n
    w = 0.0
    do j = 1, 40
      w = w + real(j)
    end do
    a(i) = w + b(idx(i))
    s = s + a(i)
  end do
end
`

// forceLast checks src and marks its last top-level DO loop parallel with
// w and j private and s a sum reduction.
func forceLast(t *testing.T, src string) *sem.Info {
	t.Helper()
	info := check(t, src)
	var loop *lang.DoStmt
	for _, s := range info.Program.Main.Body {
		if d, ok := s.(*lang.DoStmt); ok {
			loop = d
		}
	}
	loop.Parallel = true
	loop.Private = []string{"w", "j"}
	loop.Reductions = []lang.Reduction{{Var: "s", Op: lang.OpAdd}}
	return info
}

// needCores skips a test that needs a region to run on two goroutines.
func needCores(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("GOMAXPROCS is 1: every region runs on the calling goroutine")
	}
}

// settle fails the test unless the goroutine count falls back to base: a
// region's goroutine outlived Run. A goroutine that signalled the join may
// still be exiting, so the count is polled briefly.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentRegionLeavesCaller pins that a region of eight long chunks
// runs at least one of them off the calling goroutine, and checks what the
// join collects from the chunks: the sum reduction over every chunk's
// partial, and the private w and the loop variable as the final iteration
// left them.
func TestConcurrentRegionLeavesCaller(t *testing.T) {
	needCores(t)
	base, before := runtime.NumGoroutine(), offCallerChunks.Load()
	in := New(forceLast(t, longChunksSrc), Options{Machine: machine.New(machine.Origin2000, 8)})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if offCallerChunks.Load() == before {
		t.Error("every chunk ran on the calling goroutine")
	}
	a, _ := in.GlobalArrayReal("a")
	for i, v := range a {
		if v != 5e6 {
			t.Errorf("a(%d) = %g, want 5e6", i+1, v)
		}
	}
	s, _ := in.GlobalReal("s")
	w, _ := in.GlobalReal("w")
	i, _ := in.GlobalInt("i")
	if s != 4e7 || w != 5e6 || i != 9 {
		t.Errorf("s, w, i = %g, %g, %d; want 4e7, 5e6, 9", s, w, i)
	}
	settle(t, base)
}

// runFaults runs faultsSrc at P=8, with the faults when k is 1, and
// returns the steps and the error.
func runFaults(info *sem.Info, k int64, sched Schedule, maxSteps uint64, observe *Observer) (uint64, error) {
	in := New(info, Options{
		Machine:  machine.New(machine.Origin2000, 8),
		MaxSteps: maxSteps,
		Schedule: sched,
		Poison:   true,
		Observe:  observe,
	})
	in.SetInt("k", k)
	err := in.Run()
	return in.steps, err
}

// TestConcurrentFailureIsSerialFailure makes chunks 2 and 5 of a region
// above the work threshold fault, under MaxSteps from an eighteenth of the
// clean run's steps to all of them, in both chunk orders. The error must
// be the one the empty-Observer run (every chunk on the calling goroutine,
// in schedule order) gives: a step limit when the steps cross MaxSteps
// before the first fault in schedule order, also within the faulting
// chunk, otherwise that fault, -2 in forward order and -5 in reverse.
func TestConcurrentFailureIsSerialFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	info := forceLast(t, faultsSrc)
	total, err := runFaults(info, 0, Forward, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{Forward, Reverse} {
		var last error
		for j := uint64(1); j <= 18; j++ {
			limit := total * j / 18
			_, got := runFaults(info, 1, sched, limit, nil)
			_, want := runFaults(info, 1, sched, limit, &Observer{})
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Errorf("schedule %d, MaxSteps %d: Run = %v, want %v", sched, limit, got, want)
			}
			last = got
		}
		wantLast := map[Schedule]string{Forward: "-2 not in", Reverse: "-5 not in"}[sched]
		if last == nil || !strings.Contains(last.Error(), wantLast) {
			t.Errorf("schedule %d, MaxSteps %d: Run = %v, want the fault %q", sched, total, last, wantLast)
		}
	}
	settle(t, base)
}

// TestConcurrentStepLimit runs a region above the work threshold as the
// last statement: MaxSteps one below the run's steps must fail with the
// step limit, and MaxSteps at them succeed with the same time, in both
// chunk orders. The steps must be those of the empty-Observer run.
func TestConcurrentStepLimit(t *testing.T) {
	base := runtime.NumGoroutine()
	info := forceLast(t, faultsSrc)
	for _, sched := range []Schedule{Forward, Reverse} {
		total, err := runFaults(info, 0, sched, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := runFaults(info, 0, sched, 0, &Observer{}); total != want {
			t.Errorf("schedule %d: %d steps, want %d", sched, total, want)
		}
		if _, err := runFaults(info, 0, sched, total-1, nil); !errors.Is(err, comperr.ErrResourceLimit) {
			t.Errorf("schedule %d, MaxSteps %d: Run = %v, want the step limit", sched, total-1, err)
		}
		if _, err := runFaults(info, 0, sched, total, nil); err != nil {
			t.Errorf("schedule %d, MaxSteps %d: Run = %v", sched, total, err)
		}
	}
	settle(t, base)
}

// TestConcurrentCancel cancels the context once a chunk runs off the
// calling goroutine: Run must end with the canceled error.
func TestConcurrentCancel(t *testing.T) {
	needCores(t)
	base, before := runtime.NumGoroutine(), offCallerChunks.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := New(forceLast(t, longChunksSrc), Options{Machine: machine.New(machine.Origin2000, 8), Ctx: ctx})
	done := make(chan error, 1)
	go func() { done <- in.Run() }()
	for offCallerChunks.Load() == before {
		select {
		case err := <-done:
			t.Fatalf("Run = %v before any chunk ran off the calling goroutine", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, comperr.ErrCanceled) {
		t.Fatalf("Run = %v, want the canceled error", err)
	}
	settle(t, base)
}

// TestConcurrentGoPanicReachesCaller puts a reference in SafeRefs wrongly:
// every chunk from the third on writes a(100) of a(8) through it at its
// first iteration, on an extra goroutine while the calling one runs the
// long second chunk. Run's caller must get the Go runtime panic on its own
// goroutine.
func TestConcurrentGoPanicReachesCaller(t *testing.T) {
	needCores(t)
	base, before := runtime.NumGoroutine(), offCallerChunks.Load()
	info := forceLast(t, longChunksSrc)
	safe := map[*lang.ArrayRef]bool{}
	loop := info.Program.Main.Body[len(info.Program.Main.Body)-1].(*lang.DoStmt)
	safe[loop.Body[0].(*lang.AssignStmt).Lhs.(*lang.ArrayRef)] = true
	in := New(info, Options{Machine: machine.New(machine.Origin2000, 8), SafeRefs: safe})
	in.SetInt("k", 1)
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Error("Run did not raise the Go runtime panic")
			}
		}()
		in.Run()
	}()
	if offCallerChunks.Load() == before {
		t.Error("every chunk ran on the calling goroutine")
	}
	settle(t, base)
}

// stopSrc's last loop has eight iterations, one per chunk at P=8, of
// 250K inner iterations (about 1 ms) but for two set by the presets f and
// g: iteration f runs 8M and then writes a(100) of a(8), and iteration g
// runs 400M, over a second of host time. The calling goroutine runs the
// first chunk and, since the work estimate comes from its only iteration,
// starts the extra goroutines at its end.
const stopSrc = `
program p
  param n = 8
  integer i, j, f, g, m(n), idx(n)
  real s, w, a(n)
  do i = 1, n
    m(i) = 250000
    idx(i) = i
  end do
  m(f) = 8000000
  idx(f) = 100
  m(g) = 400000000
  do i = 1, n
    w = 0.0
    do j = 1, m(i)
      w = w + 1.0
    end do
    a(idx(i)) = w
    s = s + w
  end do
end
`

// TestFailedChunkStopsLaterChunks fails a chunk at its end while another
// goroutine runs the long chunk after it: Run must return the failed
// chunk's error, and the long chunk must stop at a poll instead of running
// to its end. With f = 2 the calling goroutine takes the second chunk right
// after the first, so an extra goroutine runs the long third one; with
// f = 3 an extra goroutine takes the third chunk while the calling one runs
// the second, which is short, and then the long fourth.
func TestFailedChunkStopsLaterChunks(t *testing.T) {
	needCores(t)
	base := runtime.NumGoroutine()
	info := forceLast(t, stopSrc)
	for _, f := range []int64{2, 3} {
		before := stoppedChunks.Load()
		in := New(info, Options{Machine: machine.New(machine.Origin2000, 8)})
		in.SetInt("f", f)
		in.SetInt("g", f+1)
		err := in.Run()
		if want := `runtime error: subscript 1 of "a" out of bounds: 100 not in [1:8]`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("f = %d: Run = %v, want chunk %d's %q", f, err, f, want)
		}
		if stoppedChunks.Load() == before {
			t.Errorf("f = %d: no chunk stopped after chunk %d failed", f, f)
		}
	}
	settle(t, base)
}
