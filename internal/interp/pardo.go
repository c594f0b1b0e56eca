package interp

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/sem"
)

// concurrentCycles is the work estimate, in simulated cycles, from which a
// parallel region runs its chunks on more than one goroutine. The estimate
// is the region's first iteration's cycles times its trip count. Below it a
// region stays on the calling goroutine, where every loop the tests force
// parallel wrongly runs, deterministically.
const concurrentCycles = 1 << 18

// offCallerChunks counts the chunks run off the calling goroutine; only
// tests read it.
var offCallerChunks atomic.Uint64

// region is the lowered state of one parallel loop. sem rejects recursion
// and nested regions run serially, so a region is never live twice and its
// buffers are reused from one execution to the next.
//
// A region runs its chunks on lanes, one per goroutine. lanes[0] belongs
// to the calling goroutine: it is the lowering every loop gets, and swaps
// each chunk's private copies into the shared storage. Every other lane
// belongs to an extra goroutine and lowers the body again, bound to
// storage of its own. An atomic counter hands out the chunks in schedule
// order; what a chunk leaves (its cycles, steps, reduction partials and
// failure) is kept by chunk index, and the lane that ran the chunk owning
// the final iteration keeps its private values, so the join sees what the
// serial chunk order gives.
type region struct {
	l       *lowerer // lowers the body again for an extra goroutine
	d       *doLoop
	name    string
	privs   []*sem.Symbol // the private scalars and arrays
	reds    []reduction
	unknown string // an unknown private or reduction variable
	// concurrent is set when the region may use extra goroutines: the run
	// has no observer, locality model or loop tracking, which all need the
	// accesses in serial order, and the body no PRINT, CALL, RETURN or STOP.
	concurrent bool
	lanes      []*lane // lanes[0] made by the lowering, the others on first use

	// One execution: the partition of the iterations and what each chunk
	// left, by chunk index.
	lo, step             int64
	n, chunks, base, rem uint64
	next                 atomic.Uint64 // the next chunk to hand out, in schedule order
	failed               atomic.Bool   // a chunk failed: hand out no more
	wg                   sync.WaitGroup
	costs, steps         []uint64
	partials             []value // one per chunk and reduction
	fails                []any   // what the chunk panicked with
	final                *lane   // the lane that ran the chunk owning the final iteration
}

// reduction is one reduction variable and its operator.
type reduction struct {
	sym *sem.Symbol
	op  lang.Op
}

// lane is one goroutine's binding of a region: the Interp its lowering
// charges, the loop variable and body, and the private and reduction
// variables it swaps for each chunk.
type lane struct {
	in    *Interp
	v     *value
	saved value // the shared loop variable while the region runs
	body  stmtFn
	// scalars are the private scalars, then (from nPriv on) the reduction
	// variables, so a reduction's identity wins over a private copy of the
	// same variable.
	scalars []*swapped
	nPriv   int
	arrays  []*privArray
}

// swapped is one scalar a chunk swaps into its lane's storage: fresh is
// the value each chunk starts with (a private copy or a reduction
// identity), saved the shared value while the region runs, and last the
// value the chunk owning the final iteration left.
type swapped struct {
	p                  *value
	fresh, saved, last value
}

// privArray is one private array: the storage the body is bound to, the
// shared contents while the region runs, and the chunks' private copies.
// bufs[1] belongs to the chunk that owns the final iteration, so its
// values survive for the copy-out; every other chunk reuses bufs[0].
type privArray struct {
	shared *array
	saved  array
	bufs   [2]*array
}

// save keeps the shared values of the loop variable and of the private and
// reduction variables while the region runs.
func (ln *lane) save() {
	ln.saved = *ln.v
	for _, sc := range ln.scalars {
		sc.saved = *sc.p
	}
	for _, pa := range ln.arrays {
		pa.saved = *pa.shared
	}
}

// enter swaps one chunk's fresh values into the lane's storage. A fresh
// private array is unseen by the locality model.
func (ln *lane) enter(final, poison bool) {
	for _, sc := range ln.scalars {
		*sc.p = sc.fresh
	}
	for _, pa := range ln.arrays {
		b := &pa.bufs[0]
		if final {
			b = &pa.bufs[1]
		}
		if *b == nil {
			*b = newArray(pa.shared.sym)
		}
		(*b).reset(poison)
		*pa.shared = **b
	}
}

// restore puts the shared values back, each shared array's last index
// for the locality model included.
func (ln *lane) restore() {
	*ln.v = ln.saved
	for _, sc := range ln.scalars {
		*sc.p = sc.saved
	}
	for _, pa := range ln.arrays {
		*pa.shared = pa.saved
	}
}

// parallelDo lowers a loop the parallelizer marked Parallel, on a machine
// with P > 1: iterations are block-partitioned over P virtual processors;
// each chunk runs with fresh private copies of the loop's Private
// variables and per-processor reduction partials; the region's simulated
// time is the slowest chunk plus the machine's fork/join overhead.
//
// Every symbol has one storage location, so each chunk the calling
// goroutine runs swaps its own values into the shared storage, and the
// shared values are restored after the last chunk (or when a chunk
// fails). A parallel body never contains a CALL, so nothing outside the
// body sees the swap.
func (l *lowerer) parallelDo(d *doLoop) stmtFn {
	in, s := l.in, d.s
	rg := &region{
		l: l, d: d, name: lang.LoopName(l.unit, s),
		concurrent: in.opts.Observe == nil && !in.opts.LocalityModel &&
			in.opts.TrackLoops == nil && !needsCaller(s.Body),
	}
	// Resolve private and reduction symbols; an unknown one fails when the
	// loop runs, after the serial flush.
	for _, name := range s.Private {
		sym := l.scope.Lookup(name)
		if sym == nil {
			rg.unknown = fmt.Sprintf("unknown private variable %q", name)
			break
		}
		if sym.Kind == sem.ScalarSym || sym.Kind == sem.ArraySym {
			rg.privs = append(rg.privs, sym)
		}
	}
	for _, r := range s.Reductions {
		sym := l.scope.Lookup(r.Var)
		if rg.unknown == "" && (sym == nil || sym.Kind != sem.ScalarSym) {
			rg.unknown = fmt.Sprintf("unknown reduction variable %q", r.Var)
		}
		if rg.unknown != "" {
			break
		}
		rg.reds = append(rg.reds, reduction{sym, r.Op})
	}
	rg.lanes = []*lane{rg.bind(l, d.body)}
	P := in.mach.P
	rg.costs, rg.steps, rg.fails = make([]uint64, P), make([]uint64, P), make([]any, P)
	rg.partials = make([]value, P*len(rg.reds))
	return rg.run
}

// needsCaller reports whether a loop body holds a PRINT, CALL, RETURN or
// STOP, which keep a region on the calling goroutine. The parallelizer
// never marks such a loop parallel; only tests force one.
func needsCaller(body []lang.Stmt) bool {
	found := false
	lang.WalkStmts(body, func(s lang.Stmt) bool {
		switch s.(type) {
		case *lang.PrintStmt, *lang.CallStmt, *lang.ReturnStmt, *lang.StopStmt:
			found = true
		}
		return !found
	})
	return found
}

// bind makes the lane of lowering l, whose lowered body is body: the
// storage l gives the loop variable and the private and reduction
// variables.
func (rg *region) bind(l *lowerer, body stmtFn) *lane {
	in := l.in
	ln := &lane{in: in, v: l.scalar(rg.d.sym), body: body}
	for _, sym := range rg.privs {
		if sym.Kind == sem.ArraySym {
			ln.arrays = append(ln.arrays, &privArray{shared: in.arrays[sym]})
			continue
		}
		fresh := zeroValue(sym.Type)
		if in.opts.Poison {
			fresh = poisonValue(sym.Type)
		}
		ln.scalars = append(ln.scalars, &swapped{p: l.scalar(sym), fresh: fresh})
	}
	ln.nPriv = len(ln.scalars)
	for _, r := range rg.reds {
		ln.scalars = append(ln.scalars, &swapped{p: l.scalar(r.sym), fresh: reductionIdentity(r.op, r.sym.Type)})
	}
	return ln
}

// lower lowers the body again for an extra goroutine. Its lane charges a
// sink of its own, an Interp whose inParallel keeps nested regions serial,
// and binds the loop variable, the private scalars and arrays and the
// reduction variables to storage of its own; every other name is bound to
// the shared storage. The calling goroutine's lowering already lowered the
// same body, so this one cannot fail.
func (rg *region) lower() *lane {
	in := rg.l.in
	sink := &Interp{
		info: in.info, opts: in.opts, mach: in.mach, inParallel: true, ctxDone: in.ctxDone,
		scalars: maps.Clone(in.scalars), arrays: maps.Clone(in.arrays),
	}
	sink.setNextCheck()
	sink.scalars[rg.d.sym] = new(value)
	for _, sym := range rg.privs {
		if sym.Kind == sem.ArraySym {
			sink.arrays[sym] = &array{sym: sym} // each chunk swaps a fresh copy in
		} else {
			sink.scalars[sym] = new(value)
		}
	}
	for _, r := range rg.reds {
		sink.scalars[r.sym] = new(value)
	}
	l := *rg.l
	l.in = sink
	return rg.bind(&l, l.list(rg.d.s.Body))
}

// run executes the region.
func (rg *region) run() (signal, int) {
	in, d := rg.l.in, rg.d
	if in.inParallel {
		return in.runDo(d, nil)
	}
	lo, hi, step := d.bounds(in)
	n := tripCountU(lo, hi, step)
	if n == 0 {
		*d.v = intV(lo)
		return sigNone, 0
	}

	// Flush serial time accumulated so far.
	in.mach.AddSerial(in.cost)
	in.cost = 0
	if rg.unknown != "" {
		in.fail(d.s.Pos(), "%s", rg.unknown)
	}

	// Partition [0, n) into P contiguous chunks.
	P := min(uint64(in.mach.P), n)
	rg.lo, rg.step, rg.n, rg.chunks = lo, step, n, P
	rg.base, rg.rem = n/P, n%P
	rg.next.Store(0)
	rg.failed.Store(false)
	caller := rg.lanes[0]
	caller.save()
	in.inParallel = true
	defer func() {
		if in.inParallel { // a chunk failed: leave shared storage as it was
			caller.restore()
		}
	}()
	rg.runChunks()
	in.inParallel = false
	in.cost = 0
	caller.restore()
	if in.mach.Rec.Enabled() {
		in.mach.AddParallelRegion(rg.name, rg.costs[:P])
	} else {
		in.mach.AddParallel(rg.costs[:P])
	}

	// Combine reductions in ascending processor order (deterministic).
	for i, r := range rg.reds {
		p := caller.scalars[caller.nPriv+i].p
		for c := range int(P) {
			*p = combine(r.op, *p, rg.partials[c*len(rg.reds)+i])
		}
	}

	// Copy out the final iteration's private values (live-out semantics).
	for i, sc := range caller.scalars[:caller.nPriv] {
		*sc.p = rg.final.scalars[i].last
	}
	for i, pa := range caller.arrays {
		last := rg.final.arrays[i].bufs[1]
		copy(pa.shared.ints, last.ints)
		copy(pa.shared.reals, last.reals)
		copy(pa.shared.bools, last.bools)
	}
	*d.v = intV(lo + int64(n)*step)
	return sigNone, 0
}

// runChunks runs chunks on the calling goroutine, and on the extra
// goroutines the first chunk may start, until none is left or one failed.
// After the join it walks the chunks in schedule order and raises, on the
// calling goroutine, what the serial chunk order raises first: a chunk's
// failure, or the steps crossing MaxSteps. Otherwise the run's steps are
// those of every chunk added up.
func (rg *region) runChunks() {
	in := rg.l.in
	before := in.steps
	rg.work(0)
	rg.wg.Wait()
	total := before
	for k := range rg.chunks {
		c := rg.order(k)
		if rg.steps[c] > in.opts.MaxSteps-total {
			panic(in.stepLimit())
		}
		if f := rg.fails[c]; f != nil {
			panic(f)
		}
		total += rg.steps[c]
	}
	in.steps = total
	in.setNextCheck()
}

// take hands out the next chunk in schedule order, or none once a chunk
// failed.
func (rg *region) take() uint64 {
	if rg.failed.Load() {
		return rg.chunks
	}
	return rg.next.Add(1) - 1
}

// order returns the chunk that runs k-th in schedule order.
func (rg *region) order(k uint64) uint64 {
	if rg.l.in.opts.Schedule == Reverse {
		return rg.chunks - 1 - k
	}
	return k
}

// chunk runs the k-th chunk in schedule order on lane ln and keeps its
// cycles, steps and reduction partials, and for the chunk owning the final
// iteration its lane and private values. A failure is recovered and kept
// with the chunk, and no further chunk is handed out.
func (rg *region) chunk(ln *lane, k uint64) {
	c := rg.order(k)
	start := c*rg.base + min(c, rg.rem)
	end := start + rg.base
	if c < rg.rem {
		end++
	}
	in := ln.in
	in.cost = 0
	before := in.steps
	defer func() {
		rg.steps[c] = in.steps - before
		if r := recover(); r != nil {
			rg.fails[c] = r
			rg.failed.Store(true)
		}
	}()
	ln.enter(end == rg.n, in.opts.Poison)
	if k == 0 {
		// The calling goroutine runs the first chunk; its first iteration
		// gives the work estimate.
		ln.iterate(rg, start, start+1)
		rg.spawn(in.cost)
		start++
	}
	ln.iterate(rg, start, end)
	for i, r := range ln.scalars[ln.nPriv:] {
		rg.partials[int(c)*len(rg.reds)+i] = *r.p
	}
	rg.costs[c] = in.cost
	if end == rg.n {
		for _, sc := range ln.scalars {
			sc.last = *sc.p
		}
		rg.final = ln
	}
}

// iterate runs the iterations [from, to) on lane ln.
func (ln *lane) iterate(rg *region, from, to uint64) {
	in, v, body := ln.in, ln.v, ln.body
	for idx := from; idx < to; idx++ {
		in.chargeN(3, 1)
		*v = intV(rg.lo + int64(idx)*rg.step)
		if sig, _ := body(); sig != sigNone {
			in.fail(rg.d.s.Pos(), "control left a parallel loop body")
		}
	}
}

// spawn starts the extra goroutines, up to min(GOMAXPROCS, chunks) with
// the calling one, when the region may run concurrently and its work
// estimate, the first iteration's cycles times the trip count (saturated),
// reaches concurrentCycles.
func (rg *region) spawn(first uint64) {
	if !rg.concurrent || rg.chunks < 2 {
		return
	}
	if hi, lo := bits.Mul64(first, rg.n); hi == 0 && lo < concurrentCycles {
		return
	}
	g := min(runtime.GOMAXPROCS(0), int(rg.chunks))
	for len(rg.lanes) < g {
		rg.lanes = append(rg.lanes, nil)
	}
	for w := 1; w < g; w++ {
		rg.wg.Add(1)
		go func() {
			defer rg.wg.Done()
			rg.work(w)
		}()
	}
}

// work runs chunks through lane w until none is left or one failed: lane
// 0 on the calling goroutine, any other on an extra goroutine, which
// lowers its lane before its first chunk.
func (rg *region) work(w int) {
	for k := rg.take(); k < rg.chunks; k = rg.take() {
		if w > 0 {
			if rg.lanes[w] == nil {
				rg.lanes[w] = rg.lower()
			}
			offCallerChunks.Add(1)
		}
		rg.chunk(rg.lanes[w], k)
	}
}

func reductionIdentity(op lang.Op, t lang.BasicType) value {
	switch op {
	case lang.OpAdd:
		return zeroValue(t)
	case lang.OpMul:
		if t == lang.TInteger {
			return intV(1)
		}
		return realV(1)
	case lang.OpLt: // min
		if t == lang.TInteger {
			return intV(math.MaxInt64)
		}
		return realV(math.Inf(1))
	case lang.OpGt: // max
		if t == lang.TInteger {
			return intV(math.MinInt64)
		}
		return realV(math.Inf(-1))
	}
	return zeroValue(t)
}

func combine(op lang.Op, a, b value) value {
	if a.k == lang.TInteger && b.k == lang.TInteger {
		switch op {
		case lang.OpAdd:
			return intV(a.i + b.i)
		case lang.OpMul:
			return intV(a.i * b.i)
		case lang.OpLt:
			if b.i < a.i {
				return b
			}
			return a
		case lang.OpGt:
			if b.i > a.i {
				return b
			}
			return a
		}
	}
	af, bf := a.toReal(), b.toReal()
	switch op {
	case lang.OpAdd:
		return realV(af + bf)
	case lang.OpMul:
		return realV(af * bf)
	case lang.OpLt:
		return realV(math.Min(af, bf))
	case lang.OpGt:
		return realV(math.Max(af, bf))
	}
	return a
}
