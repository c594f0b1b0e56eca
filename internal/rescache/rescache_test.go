package rescache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// Keys derived by api.DigestParts, as the compile server derives them,
// keep part boundaries apart in the cache: ("ab","c") and ("a","bc") are
// two entries, while the same parts again are a hit.
func TestKeyOfBoundaries(t *testing.T) {
	keyOf := func(parts ...string) Key { return Key(api.DigestParts(parts...)) }
	c := New(Config[string]{MaxBytes: 1 << 20})
	do := func(k Key, v string) (string, Outcome) {
		got, out, err := c.Do(context.Background(), k, func() (string, error) { return v, nil })
		if err != nil {
			t.Fatalf("Do(%s) = %v", k, err)
		}
		return got, out
	}

	if v, out := do(keyOf("ab", "c"), "first"); v != "first" || out != Miss {
		t.Fatalf("Do(ab,c) = %q, %v; want first, Miss", v, out)
	}
	if v, out := do(keyOf("a", "bc"), "second"); v != "second" || out != Miss {
		t.Errorf("Do(a,bc) = %q, %v; part boundaries are ambiguous", v, out)
	}
	if v, out := do(keyOf("ab", "c"), "again"); v != "first" || out != Hit {
		t.Errorf("Do(ab,c) again = %q, %v; the key is not deterministic", v, out)
	}
	if v, out := do(keyOf("x"), "x"); v != "x" || out != Miss {
		t.Errorf("Do(x) = %q, %v", v, out)
	}
	if v, out := do(keyOf("y"), "y"); v != "y" || out != Miss {
		t.Errorf("Do(y) = %q, %v; distinct inputs collide", v, out)
	}
}

func TestHitMissAndSharing(t *testing.T) {
	c := New(Config[string]{MaxBytes: 1 << 20, Cost: func(s string) int64 { return int64(len(s)) }})
	calls := 0
	compute := func() (string, error) { calls++; return "value", nil }

	v, out, err := c.Do(context.Background(), Key("k"), compute)
	if err != nil || v != "value" || out != Miss {
		t.Fatalf("first Do = %q, %v, %v", v, out, err)
	}
	v, out, err = c.Do(context.Background(), Key("k"), compute)
	if err != nil || v != "value" || out != Hit {
		t.Fatalf("second Do = %q, %v, %v", v, out, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(Config[string]{MaxBytes: 1 << 20})
	boom := errors.New("parse error")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() (string, error) { calls++; return "", boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, out, err := c.Do(context.Background(), "k", func() (string, error) { calls++; return "ok", nil })
	if err != nil || v != "ok" || out != Miss {
		t.Fatalf("retry Do = %q, %v, %v", v, out, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors must not cache)", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d", st.Entries)
	}
}

// TestSingleFlight parks N-1 waiters on one leader's flight and checks
// exactly one compute ran and every caller got its value. Run with -race.
func TestSingleFlight(t *testing.T) {
	c := New(Config[string]{MaxBytes: 1 << 20})
	const waiters = 16
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (string, error) {
			close(entered)
			<-release
			calls.Add(1)
			return "shared", nil
		})
		leaderDone <- err
	}()
	<-entered

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func() (string, error) {
				calls.Add(1)
				return "shared", nil
			})
			if err != nil || v != "shared" {
				t.Errorf("waiter %d: %q, %v", i, v, err)
			}
			outcomes[i] = out
		}()
	}
	// Wait until every follower is parked on the flight, then release the
	// leader: all of them must coalesce, none may compute.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Waiting != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters parked", c.Stats().Waiting, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	for i, out := range outcomes {
		if out != Coalesced {
			t.Errorf("waiter %d outcome = %v, want coalesced", i, out)
		}
	}
	if st := c.Stats(); st.Coalesced != waiters {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, waiters)
	}
}

// TestCanceledLeaderDoesNotPoison: a leader that dies of its own context
// cancellation must not hand its error to waiters — one of them becomes
// the next leader and computes.
func TestCanceledLeaderDoesNotPoison(t *testing.T) {
	c := New(Config[string]{MaxBytes: 1 << 20})
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (string, error) {
			close(entered)
			<-release
			return "", fmt.Errorf("compile: %w", context.Canceled)
		})
	}()
	<-entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, out, err := c.Do(context.Background(), "k", func() (string, error) {
			return "recomputed", nil
		})
		if err != nil || v != "recomputed" || out != Miss {
			t.Errorf("waiter after canceled leader: %q, %v, %v", v, out, err)
		}
	}()
	for c.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
}

// TestWaiterContextCancellation: a waiter abandons the flight when its own
// context fires, without disturbing the leader.
func TestWaiterContextCancellation(t *testing.T) {
	c := New(Config[string]{MaxBytes: 1 << 20})
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() (string, error) {
			close(entered)
			<-release
			return "late", nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for c.Stats().Waiting != 1 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, _, err := c.Do(ctx, "k", func() (string, error) { return "", nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter err = %v", err)
	}
	close(release)
	<-leaderDone
	if v, out, err := c.Do(context.Background(), "k", nil); err != nil || v != "late" || out != Hit {
		t.Fatalf("after leader settled: %q, %v, %v", v, out, err)
	}
}

// TestPanickingComputeReleasesFlight: a panic inside compute propagates to
// the leader's caller, but the flight is settled so the key stays usable.
func TestPanickingComputeReleasesFlight(t *testing.T) {
	c := New(Config[string]{MaxBytes: 1 << 20})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		c.Do(context.Background(), "k", func() (string, error) { panic("boom") })
	}()
	v, out, err := c.Do(context.Background(), "k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" || out != Miss {
		t.Fatalf("after panic: %q, %v, %v", v, out, err)
	}
}

// TestEvictionProperty drives random-cost inserts through a small budget
// and checks the invariants after every operation: the byte budget holds
// (a single oversized entry is the documented exception), the accounting
// matches the resident set, and eviction is strictly LRU.
func TestEvictionProperty(t *testing.T) {
	const budget = 10_000
	rng := rand.New(rand.NewSource(42))
	c := New(Config[int64]{MaxBytes: budget, Cost: func(v int64) int64 { return v }})
	live := map[Key]int64{}
	order := []Key{} // LRU order, oldest first
	touch := func(k Key) {
		for i, o := range order {
			if o == k {
				order = append(append(order[:i:i], order[i+1:]...), k)
				return
			}
		}
		order = append(order, k)
	}

	for i := 0; i < 2000; i++ {
		var k Key
		if len(order) > 0 && rng.Intn(3) == 0 {
			k = order[rng.Intn(len(order))] // re-touch: hit path
		} else {
			k = Key(fmt.Sprintf("k%d", i))
		}
		cost := int64(rng.Intn(3000) + 1)
		_, _, err := c.Do(context.Background(), k, func() (int64, error) { return cost, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := live[k]; !ok {
			live[k] = cost
		}
		touch(k)
		// Model the eviction the cache must have performed.
		var total int64
		for _, v := range live {
			total += v
		}
		for total > budget && len(order) > 1 {
			oldest := order[0]
			total -= live[oldest]
			delete(live, oldest)
			order = order[1:]
		}

		st := c.Stats()
		if st.Bytes != total || st.Entries != len(live) {
			t.Fatalf("step %d: cache (bytes=%d entries=%d) diverged from model (bytes=%d entries=%d)",
				i, st.Bytes, st.Entries, total, len(live))
		}
		if st.Entries > 1 && st.Bytes > budget {
			t.Fatalf("step %d: budget exceeded with %d entries: %d > %d", i, st.Entries, st.Bytes, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("property run produced no evictions; budget too large for the workload")
	}
	// Every surviving key must still be a hit with its original value.
	for k, want := range live {
		v, out, err := c.Do(context.Background(), k, nil)
		if err != nil || out != Hit || v != want {
			t.Errorf("survivor %s: %d, %v, %v (want %d, hit)", k, v, out, err, want)
		}
	}
}

// TestConcurrentChurn hammers overlapping keys from many goroutines under
// a tight budget; run with -race. Correctness here is the absence of
// races, panics and accounting drift.
func TestConcurrentChurn(t *testing.T) {
	c := New(Config[int]{MaxBytes: 64, Cost: func(int) int64 { return 8 }})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				k := Key(fmt.Sprintf("k%d", rng.Intn(24)))
				v, _, err := c.Do(context.Background(), k, func() (int, error) {
					if rng.Intn(8) == 0 {
						return 0, errors.New("transient")
					}
					return 7, nil
				})
				if err == nil && v != 7 {
					t.Errorf("value = %d", v)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes != int64(8*st.Entries) {
		t.Errorf("accounting drift: bytes=%d entries=%d", st.Bytes, st.Entries)
	}
	if st.Bytes > 64 {
		t.Errorf("budget exceeded after quiesce: %d", st.Bytes)
	}
}
