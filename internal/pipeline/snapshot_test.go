package pipeline

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/progen"
)

func snapshotOf(t *testing.T, opts Options) *Snapshot {
	t.Helper()
	k, err := kernels.ByName("trfd", kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileOpts(k.Source, parallel.Full, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotImmutable: mutating what the accessors return must not leak
// back into the snapshot — that is the whole point of caching one.
func TestSnapshotImmutable(t *testing.T) {
	snap := snapshotOf(t, Options{Recorder: obs.New(), Lint: true})
	metrics := snap.MetricsJSON()
	if len(metrics) == 0 {
		t.Fatal("empty metrics document")
	}
	for i := range metrics {
		metrics[i] = 'X'
	}
	if again := snap.MetricsJSON(); bytes.Contains(again, []byte("XXX")) {
		t.Error("mutating MetricsJSON() leaked into the snapshot")
	}

	diags := snap.Diags()
	if len(diags) == 0 {
		t.Fatal("trfd produced no lint diagnostics")
	}
	first := diags[0].Code
	diags[0].Code = "mutated"
	if got := snap.Diags()[0].Code; got != first {
		t.Errorf("mutating Diags() leaked into the snapshot: code %q, want %q", got, first)
	}
	if snap.Cost() <= 16<<10 {
		t.Errorf("Cost() = %d, want more than the fixed overhead", snap.Cost())
	}
}

// TestSnapshotCloneIndependence: clones share the read-only compilation
// but never a Recorder, and the snapshot's frozen document is unaffected
// by whatever a clone's recorder later absorbs.
func TestSnapshotCloneIndependence(t *testing.T) {
	snap := snapshotOf(t, Options{Recorder: obs.New()})
	frozen := snap.MetricsJSON()

	a, b := snap.Clone(), snap.Clone()
	if a == b {
		t.Fatal("Clone returned the same *Result twice")
	}
	if a.Recorder != nil || b.Recorder != nil {
		t.Fatal("clone inherited the snapshot's Recorder")
	}
	a.Recorder = obs.New()
	a.Recorder.Count("clone.private", 1)
	if b.Recorder != nil {
		t.Error("recorder attached to one clone is visible on another")
	}
	if !bytes.Equal(frozen, snap.MetricsJSON()) {
		t.Error("snapshot document changed after a clone attached a recorder")
	}
	if a.Program != b.Program {
		t.Error("clones do not share the compiled program")
	}
}

// TestSnapshotConcurrentReaders hits one snapshot's accessors and Clone
// from many goroutines; run with -race. (End-to-end concurrent execution
// of clones is covered at the public-API layer, where Run lives.)
func TestSnapshotConcurrentReaders(t *testing.T) {
	snap := snapshotOf(t, Options{Recorder: obs.New()})
	want := snap.MetricsJSON()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if !bytes.Equal(snap.MetricsJSON(), want) {
					t.Error("MetricsJSON changed under concurrency")
					return
				}
				c := snap.Clone()
				c.Recorder = obs.New()
				_ = snap.Summary()
				_ = snap.Diags()
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotCostCoversRetainedHeap: Cost is what the rescache byte
// budget charges for a cached snapshot, so over the kernels and generated
// programs, compiled with telemetry as irrd compiles them, the charge must
// cover the heap the snapshots keep alive once everything else is
// collected.
func TestSnapshotCostCoversRetainedHeap(t *testing.T) {
	var srcs []string
	for _, k := range kernels.All(kernels.Small) {
		srcs = append(srcs, k.Source)
	}
	for seed := int64(0); seed < 12; seed++ {
		cfg := progen.Config{N: 24, MaxBlocks: 8, Subroutines: true}
		srcs = append(srcs, progen.Generate(rand.New(rand.NewSource(seed)), cfg))
	}
	snapshotAll := func() []*Snapshot {
		snaps := make([]*Snapshot, 0, len(srcs))
		for _, src := range srcs {
			res, err := CompileOpts(src, parallel.Full, Options{Recorder: obs.New()})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := res.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
		return snaps
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	snapshotAll() // first-use package state is not a snapshot's to pay for
	before := heap()
	snaps := snapshotAll()
	retained := heap() - before
	var cost int64
	for _, s := range snaps {
		cost += s.Cost()
	}
	runtime.KeepAlive(snaps)
	t.Logf("%d snapshots: Cost() %d KiB, retained heap %d KiB (%d KiB each)",
		len(snaps), cost>>10, retained>>10, retained/int64(len(snaps))>>10)
	if cost < retained {
		t.Errorf("summed Cost() = %d B, below the %d B the snapshots retain", cost, retained)
	}
}
