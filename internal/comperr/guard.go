package comperr

import (
	"context"
	"time"
)

// Guard is the cooperative cancellation and resource-limit checkpoint the
// analyses poll: the property analysis counts one Step per query-propagation
// node visit (bounding total propagation work), and the bounded depth-first
// searches call Check per visited CFG node. When the context fires or the
// step budget is exhausted, the checkpoint panics with *Abort; the pipeline
// recovers it at its boundary and converts it into the typed error. A nil
// *Guard is a valid disabled guard (every method is a cheap no-op), so the
// analyses thread it unconditionally — exactly the nil-recorder idiom of
// package obs.
//
// Checkpoints never alter analysis results: they only read the context and
// a counter, so an unfired guard is behavior-neutral and verdicts are
// byte-identical with and without one.
type Guard struct {
	ctx  context.Context
	done <-chan struct{}
	// steps counts query-propagation node visits against maxSteps.
	steps    int64
	maxSteps int64
	// poll rate-limits context reads: the done channel is sampled once per
	// pollEvery checkpoints, keeping the per-visit cost to an increment.
	poll uint32
}

// pollEvery is the checkpoint sampling interval for context reads. Query
// steps and bDFS visits run in microseconds, so a fired deadline is noticed
// within well under a millisecond of analysis work.
const pollEvery = 256

// NewGuard builds a guard enforcing ctx and, when maxQuerySteps > 0, a
// budget of query-propagation steps. It returns nil (the disabled guard)
// when there is nothing to enforce — a background context and no budget.
func NewGuard(ctx context.Context, maxQuerySteps int) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{ctx: ctx, done: ctx.Done(), maxSteps: int64(maxQuerySteps)}
	if g.done == nil && g.maxSteps <= 0 {
		return nil
	}
	return g
}

// Abort is the panic payload of a fired checkpoint. It deliberately does
// not implement error: nothing may handle it except RecoverAbort at the
// pipeline boundary, so an unexpected escape fails loudly.
type Abort struct{ Err error }

// Step counts one query-propagation node visit, aborting when the budget
// is exhausted or the context has fired.
func (g *Guard) Step() {
	if g == nil {
		return
	}
	g.steps++
	if g.maxSteps > 0 && g.steps > g.maxSteps {
		panic(&Abort{Err: Limitf("query propagation exceeded %d steps", g.maxSteps)})
	}
	g.pollCtx()
}

// Check is the budget-free checkpoint (bDFS node visits, worker-pool
// iterations): it only samples the context.
func (g *Guard) Check() {
	if g == nil {
		return
	}
	g.pollCtx()
}

// CheckFn returns Check as a closure for callback-shaped hooks (the bDFS
// Config), or nil when the guard is disabled so the hook costs nothing.
func (g *Guard) CheckFn() func() {
	if g == nil {
		return nil
	}
	return g.Check
}

// Barrier polls the context immediately (no sampling): called at phase
// boundaries, where a fired deadline must not start the next phase. A
// deadline already past counts as fired even while the done channel is
// still open: the runtime closes it when the context's timer fires, which
// under load can lag the wall clock by longer than a whole compilation.
func (g *Guard) Barrier() {
	if g == nil || g.done == nil {
		return
	}
	select {
	case <-g.done:
		panic(&Abort{Err: Canceled(g.ctx.Err())})
	default:
	}
	if d, ok := g.ctx.Deadline(); ok && !time.Now().Before(d) {
		panic(&Abort{Err: Canceled(context.DeadlineExceeded)})
	}
}

func (g *Guard) pollCtx() {
	if g.done == nil {
		return
	}
	g.poll++
	if g.poll < pollEvery {
		return
	}
	g.poll = 0
	select {
	case <-g.done:
		panic(&Abort{Err: Canceled(g.ctx.Err())})
	default:
	}
}

// RecoverAbort converts an in-flight *Abort panic into *errp; any other
// panic is re-raised. Use as `defer comperr.RecoverAbort(&err)` at the one
// function that owns the compilation's error return.
func RecoverAbort(errp *error) {
	if r := recover(); r != nil {
		if a, ok := r.(*Abort); ok {
			*errp = a.Err
			return
		}
		panic(r)
	}
}
