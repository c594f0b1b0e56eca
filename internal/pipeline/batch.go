package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// BatchInput is one source file of a batch compilation.
type BatchInput struct {
	// Name labels the input in summaries and metrics (a file path, a
	// kernel name).
	Name string
	// Src is the source text.
	Src string
}

// BatchItem is one finished (or failed) compilation of a batch.
type BatchItem struct {
	Name   string
	Result *Result // nil when Err != nil
	Err    error
}

// BatchResult holds the per-input outcomes of CompileBatch, in input order
// regardless of completion order.
type BatchResult struct {
	Items []BatchItem
}

// CompileBatch compiles every input through CompileOpts, fanning the
// inputs over a worker pool of opts.Jobs goroutines (0 or negative:
// GOMAXPROCS). Each input is an independent compilation — its own program,
// its own analyses, and, when telemetry is requested, its own recorder —
// results are collected in input order, so summaries, decision logs and
// loop verdicts are byte-identical for any job count.
//
// opts.Recorder acts as a flag here: when it is enabled, every item gets a
// fresh recorder (exposed as its Result.Recorder); events are never written
// to the shared one, whose stream would otherwise depend on scheduling.
func CompileBatch(inputs []BatchInput, mode parallel.Mode, org Organization, opts Options) *BatchResult {
	return CompileBatchContext(context.Background(), inputs, mode, org, opts)
}

// CompileBatchContext is CompileBatch under a context. Each item compiles
// through CompileContext, so in-flight compilations abort at their
// cancellation checkpoints; items not yet started when ctx fires are marked
// with the typed cancellation error without compiling. A panic inside one
// item's compilation is isolated to that item (reported as its error), so a
// pathological input cannot take down the other items or a serving process.
func CompileBatchContext(ctx context.Context, inputs []BatchInput, mode parallel.Mode, org Organization, opts Options) *BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	br := &BatchResult{Items: make([]BatchItem, len(inputs))}
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(inputs) {
		jobs = len(inputs)
	}
	telemetry := opts.Recorder.Enabled()
	compileOne := func(i int) {
		in := inputs[i]
		if err := ctx.Err(); err != nil {
			br.Items[i] = BatchItem{Name: in.Name, Err: fmt.Errorf("%s: %w", in.Name, comperr.Canceled(err))}
			return
		}
		itemOpts := opts
		switch {
		case telemetry && opts.Recorder.DebugEnabled():
			itemOpts.Recorder = obs.NewDebug()
		case telemetry:
			itemOpts.Recorder = obs.New()
		default:
			itemOpts.Recorder = nil
		}
		res, err := func() (res *Result, err error) {
			defer func() {
				if r := recover(); r != nil {
					res, err = nil, comperr.Analysisf("internal error: panic during compilation: %v", r)
				}
			}()
			return CompileContext(ctx, in.Src, mode, org, itemOpts)
		}()
		if err != nil {
			err = fmt.Errorf("%s: %w", in.Name, err)
		}
		br.Items[i] = BatchItem{Name: in.Name, Result: res, Err: err}
	}
	if jobs <= 1 {
		for i := range inputs {
			compileOne(i)
		}
		return br
	}
	// A bounded pool of exactly jobs workers pulling indices from a
	// channel — not one goroutine per input parked on a semaphore, which
	// would stack 10k goroutines for a 10k-item batch. Items still land
	// at br.Items[i], so the input-order aggregation is byte-identical
	// for any job count.
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				compileOne(i)
			}
		}()
	}
	for i := range inputs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return br
}

// Err returns the first failed input's error (in input order), or nil.
func (br *BatchResult) Err() error {
	for _, it := range br.Items {
		if it.Err != nil {
			return it.Err
		}
	}
	return nil
}

// Summary concatenates the per-input summaries in input order, each under
// a "== name ==" header; failed inputs report their error instead.
func (br *BatchResult) Summary() string {
	var sb strings.Builder
	for _, it := range br.Items {
		fmt.Fprintf(&sb, "== %s ==\n", it.Name)
		if it.Err != nil {
			fmt.Fprintf(&sb, "error: %v\n", it.Err)
			continue
		}
		sb.WriteString(it.Result.Summary())
	}
	return sb.String()
}

// Explain concatenates the per-input decision logs (empty without
// telemetry), under the same headers as Summary.
func (br *BatchResult) Explain() string {
	var sb strings.Builder
	for _, it := range br.Items {
		if it.Err != nil || it.Result == nil {
			continue
		}
		fmt.Fprintf(&sb, "== %s ==\n", it.Name)
		sb.WriteString(it.Result.Explain())
	}
	return sb.String()
}

// Counters sums the metrics counters of every successful item.
func (br *BatchResult) Counters() map[string]int64 {
	out := map[string]int64{}
	for _, it := range br.Items {
		if it.Err != nil {
			continue
		}
		for k, v := range it.Result.Metrics().Counters {
			out[k] += v
		}
	}
	return out
}

// Stats sums the property-analysis counters of every successful item.
func (br *BatchResult) Stats() property.Stats {
	var st property.Stats
	for _, it := range br.Items {
		if it.Err == nil {
			st.Add(it.Result.PropertyStats)
		}
	}
	return st
}
