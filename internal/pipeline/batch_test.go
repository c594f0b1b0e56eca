package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
)

func batchInputs() []BatchInput {
	var ins []BatchInput
	for _, k := range kernels.All(kernels.Small) {
		ins = append(ins, BatchInput{Name: k.Name, Src: k.Source})
	}
	return ins
}

// dupInputs is a batch of six byte-identical copies of trfd: items that
// compile the same program concurrently must not see each other's work.
func dupInputs(t *testing.T) []BatchInput {
	t.Helper()
	k, err := kernels.ByName("trfd", kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]BatchInput, 6)
	for i := range ins {
		ins[i] = BatchInput{Name: k.Name, Src: k.Source}
	}
	return ins
}

// runBatch compiles the inputs with the given job count and returns the
// durations-normalized summary, the explain log, and the counters.
func runBatch(t *testing.T, ins []BatchInput, jobs int) (summary, explain string, counters map[string]int64) {
	t.Helper()
	br := CompileBatch(ins, parallel.Full, Options{
		Recorder: obs.New(),
		Jobs:     jobs,
	})
	if err := br.Err(); err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	return durations.ReplaceAllString(br.Summary(), "T"), br.Explain(), br.Counters()
}

// checkJobsDeterministic compiles ins with one worker and with eight and
// requires the same summary (modulo wall-clock durations), a byte-identical
// decision log, and identical counters — every counter, including the
// property work and expr.intern.* ones.
func checkJobsDeterministic(t *testing.T, ins []BatchInput) {
	t.Helper()
	sum1, exp1, cnt1 := runBatch(t, ins, 1)
	sum8, exp8, cnt8 := runBatch(t, ins, 8)
	if sum1 != sum8 {
		t.Errorf("summary differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", sum1, sum8)
	}
	if exp1 != exp8 {
		t.Errorf("explain log differs between -jobs 1 and -jobs 8")
	}
	if !reflect.DeepEqual(cnt1, cnt8) {
		t.Errorf("counters differ:\njobs=1: %v\njobs=8: %v", cnt1, cnt8)
	}
}

// TestBatchDeterministic is the acceptance check of the concurrency work
// on the kernel batch.
func TestBatchDeterministic(t *testing.T) {
	checkJobsDeterministic(t, batchInputs())
}

// TestSharedCacheDuplicatesDeterministicAcrossJobs runs the same check on
// six copies of trfd, the case a cache shared between items would break:
// which duplicate proves first is scheduling. No counter is exempt.
func TestSharedCacheDuplicatesDeterministicAcrossJobs(t *testing.T) {
	checkJobsDeterministic(t, dupInputs(t))
}

// TestBatchCacheCounters asserts the memo table earns hits on the real
// kernels and that every miss ran a propagation. That a replayed verdict
// equals the uncached one is checked against property.Analysis.Verify in
// the property package.
func TestBatchCacheCounters(t *testing.T) {
	br := CompileBatch(batchInputs(), parallel.Full, Options{Jobs: 1})
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	st := br.Stats()
	if st.CacheHits == 0 {
		t.Error("expected cache hits on the kernel batch")
	}
	if st.CacheMisses == 0 || st.Queries < st.CacheMisses {
		t.Errorf("every cache miss must propagate: %d misses, %d queries", st.CacheMisses, st.Queries)
	}
}

func TestBatchErrorIsolation(t *testing.T) {
	ins := []BatchInput{
		{Name: "good", Src: "program p\n  integer i, s\n  s = 0\n  do i = 1, 10\n    s = s + i\n  end do\nend\n"},
		{Name: "bad", Src: "program q\n  this is not a program\nend\n"},
	}
	br := CompileBatch(ins, parallel.Full, Options{Jobs: 4})
	if br.Items[0].Err != nil {
		t.Errorf("good input failed: %v", br.Items[0].Err)
	}
	if br.Items[1].Err == nil {
		t.Error("bad input did not fail")
	}
	if br.Err() == nil {
		t.Error("BatchResult.Err() should surface the failure")
	}
}

// TestBatchBoundedGoroutines is the regression test for the fan-out bug:
// CompileBatchContext used to spawn one goroutine per input up front (each
// parked on a semaphore), so a 10k-file batch meant 10k goroutines. The
// pool must hold exactly Jobs workers no matter how many inputs queue.
func TestBatchBoundedGoroutines(t *testing.T) {
	src := `
program tiny
  param n = 4
  real a(n)
  integer i
  do i = 1, n
    a(i) = real(i)
  end do
  print "a1", a(1)
end
`
	const inputs = 300
	ins := make([]BatchInput, inputs)
	for i := range ins {
		ins[i] = BatchInput{Name: fmt.Sprintf("in%d", i), Src: src}
	}

	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	br := CompileBatch(ins, parallel.Full, Options{Jobs: 2})
	close(stop)
	<-sampled
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != inputs {
		t.Fatalf("items = %d", len(br.Items))
	}
	// 2 workers + the sampler + test-runner noise; the old fan-out would
	// sit at baseline+300 the moment the batch started.
	if limit := int64(baseline + 50); peak.Load() > limit {
		t.Errorf("goroutine peak = %d with Jobs=2 over %d inputs (baseline %d, limit %d): pool is not bounded",
			peak.Load(), inputs, baseline, limit)
	}
}
