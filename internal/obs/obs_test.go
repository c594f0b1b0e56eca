package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil recorder must be safe to use everywhere: this is the disabled
// telemetry path the compiler runs with by default.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Event("x", F("k", "v"))
	r.Count("c", 3)
	sp := r.StartSpan("phase", F("name", "parse"))
	if sp != nil {
		t.Fatal("nil recorder returned a live span")
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration %v", d)
	}
	if r.Counter("c") != 0 || r.Counters() != nil || r.Events() != nil || r.CounterNames() != nil {
		t.Fatal("nil recorder leaked state")
	}
}

func TestSpanNestingDepth(t *testing.T) {
	r := New()
	outer := r.StartSpan("outer")
	r.Event("mid")
	inner := r.StartSpan("inner")
	r.Event("deep", Fi("n", 7), Fb("ok", true))
	inner.End()
	outer.End()

	evs := r.Events()
	want := []struct {
		kind  string
		depth int
	}{
		{"outer.begin", 0},
		{"mid", 1},
		{"inner.begin", 1},
		{"deep", 2},
		{"inner.end", 1},
		{"outer.end", 0},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i].Kind != w.kind || evs[i].Depth != w.depth {
			t.Errorf("event %d: got (%s, depth %d), want (%s, depth %d)",
				i, evs[i].Kind, evs[i].Depth, w.kind, w.depth)
		}
		if evs[i].Seq != i {
			t.Errorf("event %d: seq %d", i, evs[i].Seq)
		}
	}
	if evs[4].DurNs <= 0 || evs[5].DurNs <= 0 {
		t.Errorf("span end events missing durations: %v %v", evs[4].DurNs, evs[5].DurNs)
	}
	if got := evs[3].Get("n"); got != "7" {
		t.Errorf("field n = %q", got)
	}
	if got := evs[3].Get("ok"); got != "true" {
		t.Errorf("field ok = %q", got)
	}
	if got := evs[3].Get("absent"); got != "" {
		t.Errorf("absent field = %q", got)
	}
}

func TestCounters(t *testing.T) {
	r := New()
	r.Count("a", 2)
	r.Count("a", 3)
	r.Count("b", 1)
	if got := r.Counter("a"); got != 5 {
		t.Errorf("a = %d", got)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	// Counters() is a copy.
	r.Counters()["a"] = 99
	if got := r.Counter("a"); got != 5 {
		t.Errorf("after mutating copy, a = %d", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Count("n", 1)
				r.Event("e", Fi("j", int64(j)))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 800 {
		t.Errorf("n = %d", got)
	}
	if got := len(r.Events()); got != 800 {
		t.Errorf("events = %d", got)
	}
}

func TestWriteTrace(t *testing.T) {
	r := New()
	sp := r.StartSpan("phase", F("name", "parse"))
	r.Event("note", F("k", "v"))
	sp.End()
	var sb strings.Builder
	if err := WriteTrace(&sb, r.Events()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"phase.begin name=parse", "note k=v", "phase.end"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// A full event log overwrites the oldest events and reports them dropped;
// the surviving window is exactly the newest Capacity events in Seq order.
func TestRingDropsOldest(t *testing.T) {
	const capacity = 16
	r := NewWith(Config{Capacity: capacity})
	const total = 3*capacity + 5
	for i := 0; i < total; i++ {
		r.Event("e", Fi("i", int64(i)))
	}

	emitted, dropped, cap_ := r.EventStats()
	if emitted != total {
		t.Errorf("emitted = %d, want %d", emitted, total)
	}
	if dropped != total-capacity {
		t.Errorf("dropped = %d, want %d", dropped, total-capacity)
	}
	if cap_ != capacity {
		t.Errorf("capacity = %d, want %d", cap_, capacity)
	}

	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("got %d surviving events, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		if want := total - capacity + i; e.Seq != want {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, want)
		}
	}

	// The bookkeeping pair shows up in the counter snapshot.
	cs := r.Counters()
	if cs["obs.events.emitted"] != total || cs["obs.events.dropped"] != total-capacity {
		t.Errorf("counters = emitted %d dropped %d", cs["obs.events.emitted"], cs["obs.events.dropped"])
	}
}

// Capacity rounds up to a power of two; a fresh recorder reports nothing.
func TestRingCapacityRounding(t *testing.T) {
	r := NewWith(Config{Capacity: 9})
	if _, _, c := r.EventStats(); c != 16 {
		t.Errorf("capacity = %d, want 16", c)
	}
	if evs := r.Events(); evs != nil {
		t.Errorf("fresh recorder has events: %v", evs)
	}
	if e, d, _ := r.EventStats(); e != 0 || d != 0 {
		t.Errorf("fresh stats = %d emitted, %d dropped", e, d)
	}
}

// Ending a span whose begin was overwritten once the log was full must
// stay safe, and the Chrome exporter must skip the unbalanced end.
func TestSpanEndSafeUnderWrap(t *testing.T) {
	r := NewWith(Config{Capacity: 8})
	sp := r.StartSpan("outer")
	for i := 0; i < 64; i++ { // lap the log; outer.begin is long gone
		r.Event("filler")
	}
	if d := sp.End(); d < 0 {
		t.Fatalf("span duration %v", d)
	}
	evs := r.Events()
	if len(evs) == 0 || evs[len(evs)-1].Kind != "outer.end" {
		t.Fatalf("last event %+v, want outer.end", evs[len(evs)-1])
	}
	// An extra unbalanced End must not drive the depth negative.
	sp.End()
	r.Event("after")
	evs = r.Events()
	if last := evs[len(evs)-1]; last.Depth < 0 {
		t.Errorf("depth went negative: %+v", last)
	}
}

// Many producers hammer the event log, counters and histograms while a
// reader snapshots concurrently. Run under -race this checks the locking;
// the assertions check no event is lost or torn.
func TestRingConcurrentStress(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		capacity  = 1 << 10
	)
	r := NewWith(Config{Capacity: capacity})

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Events() {
				if e.Kind == "" {
					t.Error("torn event: empty kind")
					return
				}
			}
			r.Counters()
			r.Histograms()
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			kind := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				r.Event(kind, Fi("i", int64(i)))
				r.Count("stress.total", 1)
				r.Observe("stress.duration", time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	reader.Wait()

	emitted, dropped, _ := r.EventStats()
	if emitted != writers*perWriter {
		t.Errorf("emitted = %d, want %d", emitted, writers*perWriter)
	}
	if want := int64(writers*perWriter - capacity); dropped != want {
		t.Errorf("dropped = %d, want %d", dropped, want)
	}
	if got := r.Counter("stress.total"); got != writers*perWriter {
		t.Errorf("stress.total = %d, want %d", got, writers*perWriter)
	}
	h, ok := r.Histogram("stress.duration")
	if !ok || h.Count != writers*perWriter {
		t.Errorf("stress.duration count = %d (ok=%v), want %d", h.Count, ok, writers*perWriter)
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Errorf("surviving events = %d, want %d", len(evs), capacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not Seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// Absorb folds counters and histogram buckets but not events.
func TestAbsorb(t *testing.T) {
	dst, src := New(), New()
	dst.Count("c", 1)
	src.Count("c", 2)
	src.Count("only.src", 5)
	src.Observe("h", 1500) // bucket (1µs, 2µs]
	src.Observe("h", 1500)
	src.Event("not.transferred")

	dst.Absorb(src)
	if got := dst.Counter("c"); got != 3 {
		t.Errorf("c = %d", got)
	}
	if got := dst.Counter("only.src"); got != 5 {
		t.Errorf("only.src = %d", got)
	}
	h, ok := dst.Histogram("h")
	if !ok || h.Count != 2 || h.SumNs != 3000 {
		t.Errorf("h = %+v (ok=%v)", h, ok)
	}
	if evs := dst.Events(); len(evs) != 0 {
		t.Errorf("events transferred: %v", evs)
	}
	// Absorbing again accumulates; nil operands are no-ops.
	dst.Absorb(src)
	if got := dst.Counter("c"); got != 5 {
		t.Errorf("after second absorb, c = %d", got)
	}
	dst.Absorb(nil)
	(*Recorder)(nil).Absorb(src)
}

// r.Absorb(r) copies r before merging into it, so it returns (no
// self-deadlock) and doubles every counter and histogram.
func TestAbsorbSelf(t *testing.T) {
	r := New()
	r.Count("c", 3)
	r.Observe("h", 1500)
	r.Absorb(r)
	if got := r.Counter("c"); got != 6 {
		t.Errorf("c = %d, want 6", got)
	}
	if h, _ := r.Histogram("h"); h.Count != 2 || h.SumNs != 3000 || h.Counts[1] != 2 {
		t.Errorf("h = %+v, want two samples in (1µs, 2µs]", h)
	}
}

// allocBytes reports the heap bytes f allocates per call, averaged over
// runs calls.
func allocBytes(runs int, f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// A recorder pays only for what it records: New and NewDebug allocate no
// event storage up front, and the event log grows with the events emitted
// rather than with the level's capacity.
func TestRecorderAllocatesWithUse(t *testing.T) {
	const (
		base     = 2 << 10 // the recorder itself
		perEvent = 320     // one Event plus the log's growth slack
	)
	var sink *Recorder
	for name, mk := range map[string]func() *Recorder{"New": New, "NewDebug": NewDebug} {
		if got := allocBytes(100, func() { sink = mk() }); got > base {
			t.Errorf("%s() allocates %d B, want at most %d", name, got, base)
		}
	}
	for _, n := range []int{16, 256, 4096} {
		got := allocBytes(10, func() {
			sink = NewDebug()
			for i := 0; i < n; i++ {
				sink.Event("e")
			}
		})
		if want := int64(base + n*perEvent); got > want {
			t.Errorf("NewDebug() plus %d events allocates %d B, want at most %d", n, got, want)
		}
	}
	_ = sink
}

// BenchmarkSharedRecorder is the traffic of a serving process's shared
// recorder: concurrent handlers each adding to a counter and a histogram,
// with no events.
func BenchmarkSharedRecorder(b *testing.B) {
	r := New()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Count("requests_total", 1)
			r.Observe("request_duration", time.Millisecond)
		}
	})
}
