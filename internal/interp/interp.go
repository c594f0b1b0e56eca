// Package interp executes F-lite programs on the simulated parallel machine
// of package machine. It is the substrate that regenerates the paper's
// run-time results: sequential execution times (Table 2), and speedups of
// the three compiler configurations at various processor counts (Fig. 16).
//
// DO loops annotated Parallel by the parallelizer distribute their
// iterations over the machine's P virtual processors in contiguous blocks.
// Variables in the loop's Private list get per-processor copies — freshly
// poisoned, so an incorrectly privatized variable surfaces as a poisoned
// result rather than a silently wrong one — and recognised reductions run
// on per-processor partials combined afterwards. The chunk execution order
// is configurable (forward or reverse); a correctly parallelized loop must
// produce identical results under both, which the tests exploit.
//
// A region whose work estimate (its first iteration's cycles times its trip
// count) reaches 2^18 cycles runs its chunks on up to min(GOMAXPROCS, P)
// goroutines, the calling one included; every other region, and every
// region of a run with an observer, the locality model or loop tracking,
// runs on the calling goroutine. Either way the simulated cycles, the
// steps, the PRINT output, the error and the final memory are those of
// running the chunks one after another in schedule order.
package interp

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/comperr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// Schedule selects the order in which a parallel loop's chunks are handed
// out: on one goroutine, the order in which they run. A region's cycles,
// steps, output, error and memory are those of this serial order, also when
// its chunks run on several goroutines. Any order must give the same result
// when the parallelization is correct.
type Schedule int

// Schedules.
const (
	Forward Schedule = iota
	Reverse
)

// Options configure one execution.
type Options struct {
	Machine  *machine.Machine // nil: cost accounting into a 1-processor machine
	Out      io.Writer        // nil: print output discarded
	MaxSteps uint64           // 0: default limit
	Schedule Schedule
	// Ctx, when non-nil, cancels the execution cooperatively: the step
	// accounting polls it (sampled, every few thousand steps) and aborts
	// with a RuntimeError whose cause is comperr.ErrCanceled. A nil Ctx
	// never cancels.
	Ctx context.Context
	// Poison fills fresh private copies with a sentinel (NaN for reals,
	// a large negative value for integers) instead of zero.
	Poison bool
	// TrackLoops, when non-nil, selects loops whose executed cycles are
	// accumulated into LoopCycles() (meaningful in 1-processor runs; used
	// for Table 3's per-loop time shares). It keeps every parallel region
	// on the calling goroutine.
	TrackLoops map[*lang.DoStmt]bool
	// SafeRefs marks array references proven in bounds by the
	// bounds-check elimination analysis: the per-access check is skipped
	// and the access costs one cycle less.
	SafeRefs map[*lang.ArrayRef]bool
	// LocalityModel charges array accesses by spatial locality: an access
	// to the element following the previous access of the same array is
	// cheap (cache hit), any other one expensive (miss). Used to
	// demonstrate loop interchange; off by default so the headline
	// benchmarks use the flat memory model. It keeps every parallel region
	// on the calling goroutine, since it charges by access order.
	LocalityModel bool
	// Observe, when non-nil, reports memory accesses made inside selected
	// DO loops (see Observer). Observed loops always run serially, so the
	// footprints reflect the program's sequential semantics. Any Observer,
	// an empty one too, keeps every parallel region on the calling
	// goroutine.
	Observe *Observer
}

// A RuntimeError aborts execution (bad subscript, step limit, ...).
type RuntimeError struct {
	Pos lang.Pos
	Msg string
	// Cause, when non-nil, classifies the abort for errors.Is: the step
	// limit carries comperr.ErrResourceLimit, a fired context carries
	// comperr.ErrCanceled (which in turn wraps the context error).
	Cause error
}

// Error leaves the position out when the error has none, as the limits on
// processors, storage and steps, cancellation and an unresolved jump do.
func (e *RuntimeError) Error() string {
	if !e.Pos.IsValid() {
		return "runtime error: " + e.Msg
	}
	return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
}

// Unwrap exposes the typed cause, making errors.Is(err, ErrResourceLimit)
// and errors.Is(err, ErrCanceled) work through a RuntimeError.
func (e *RuntimeError) Unwrap() error { return e.Cause }

// value is a runtime value.
type value struct {
	k lang.BasicType
	i int64
	r float64
	b bool
}

func intV(i int64) value    { return value{k: lang.TInteger, i: i} }
func realV(r float64) value { return value{k: lang.TReal, r: r} }
func boolV(b bool) value    { return value{k: lang.TLogical, b: b} }

func (v value) toReal() float64 {
	if v.k == lang.TInteger {
		return float64(v.i)
	}
	return v.r
}

func (v value) toInt() int64 {
	if v.k == lang.TReal {
		return int64(v.r)
	}
	return v.i
}

// array is the runtime storage of one array symbol. Inside a parallel
// region the slices hold the running chunk's private copy. last and seen
// are the locality model's previous access.
type array struct {
	sym   *sem.Symbol
	ints  []int64
	reals []float64
	bools []bool
	last  int64
	seen  bool
}

func newArray(sym *sem.Symbol) *array {
	n := sym.NumElems()
	a := &array{sym: sym}
	switch sym.Type {
	case lang.TInteger:
		a.ints = make([]int64, n)
	case lang.TReal:
		a.reals = make([]float64, n)
	case lang.TLogical:
		a.bools = make([]bool, n)
	}
	return a
}

// reset makes the array fresh again: zeroed, or poisoned, and unseen.
func (a *array) reset(poison bool) {
	clear(a.ints)
	clear(a.reals)
	clear(a.bools)
	a.seen = false
	if poison {
		for i := range a.ints {
			a.ints[i] = poisonInt
		}
		for i := range a.reals {
			a.reals[i] = math.NaN()
		}
	}
}

const poisonInt = int64(-0x5EAD5EAD5EAD)

// maxElems bounds the array elements one run allocates over all units, so
// that a huge declaration ends in a RuntimeError instead of exhausting
// memory.
const maxElems = 1 << 24

// checkStorage returns a limit error when the arrays of one run, the
// globals and every unit's locals, exceed maxElems elements in total.
func checkStorage(info *sem.Info) *RuntimeError {
	left := uint64(maxElems)
	fits := func(syms map[string]*sem.Symbol) bool {
		for _, sym := range syms {
			n := uint64(1)
			for _, d := range sym.Dims { // only arrays have dimensions
				span := uint64(d.Hi) - uint64(d.Lo) // exact: sem ensures Hi >= Lo
				if span >= left || n*(span+1) > left {
					return false
				}
				n *= span + 1
			}
			if sym.Kind == sem.ArraySym {
				left -= n
			}
		}
		return true
	}
	ok := fits(info.Globals)
	for _, sc := range info.Scopes {
		ok = ok && fits(sc.Locals)
	}
	if ok {
		return nil
	}
	return &RuntimeError{
		Msg:   fmt.Sprintf("declared arrays exceed %d elements", maxElems),
		Cause: comperr.Limitf("declared arrays exceed %d elements", maxElems),
	}
}

// maxProcs bounds the simulated processor count. Lowering a parallel loop
// allocates chunk costs and reduction partials per processor, so a huge
// count would exhaust memory before the first step. The paper's Origin
// 2000 had 56 processors.
const maxProcs = 1024

// checkProcs returns a limit error when the machine has more than maxProcs
// processors.
func checkProcs(p int) *RuntimeError {
	if p <= maxProcs {
		return nil
	}
	return &RuntimeError{
		Msg:   fmt.Sprintf("%d simulated processors exceed the limit of %d", p, maxProcs),
		Cause: comperr.Limitf("%d simulated processors exceed the limit of %d", p, maxProcs),
	}
}

func zeroValue(t lang.BasicType) value {
	switch t {
	case lang.TInteger:
		return intV(0)
	case lang.TReal:
		return realV(0)
	default:
		return boolV(false)
	}
}

func poisonValue(t lang.BasicType) value {
	switch t {
	case lang.TInteger:
		return intV(poisonInt)
	case lang.TReal:
		return realV(math.NaN())
	default:
		return boolV(false)
	}
}

// Interp executes a checked program.
type Interp struct {
	info *sem.Info
	opts Options

	mach       *machine.Machine
	cost       uint64 // cycles pending in the current sink: the serial stretch or one chunk
	steps      uint64
	nextCheck  uint64 // the step at which charge next takes its slow path
	inParallel bool   // inside a parallel region (nested regions run serially)
	loopCycles map[*lang.DoStmt]uint64
	// ctxDone caches Options.Ctx.Done() so the slow step path polls a
	// channel, never re-deriving it; nil when no context was given.
	ctxDone <-chan struct{}
	// obsDepth counts currently-active observed loops; accesses are
	// reported to Options.Observe only while it is positive.
	obsDepth int
	// rg, while set, is the region whose chunks run on several goroutines,
	// this one included, and pos the schedule position of this one's
	// chunk, which stops at a poll when an earlier chunk failed.
	rg  *region
	pos uint64

	// scalars and arrays are the one storage location of every symbol for
	// the whole run: sem rejects recursion, so a unit has at most one live
	// activation. The lowering binds each name to its location once.
	scalars map[*sem.Symbol]*value
	arrays  map[*sem.Symbol]*array
	// tooBig, when set, is the processor or storage bound New found
	// exceeded; no array was allocated and Run returns it.
	tooBig *RuntimeError
}

// New builds an interpreter for a checked program.
func New(info *sem.Info, opts Options) *Interp {
	if opts.Machine == nil {
		opts.Machine = machine.New(machine.Origin2000, 1)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 2_000_000_000
	}
	tooBig := checkProcs(opts.Machine.P)
	if tooBig == nil {
		tooBig = checkStorage(info)
	}
	in := &Interp{
		info: info, opts: opts, mach: opts.Machine,
		scalars: map[*sem.Symbol]*value{},
		arrays:  map[*sem.Symbol]*array{},
		tooBig:  tooBig,
	}
	if opts.Ctx != nil {
		in.ctxDone = opts.Ctx.Done()
	}
	for _, sym := range info.Globals {
		in.alloc(sym)
	}
	return in
}

// alloc gives a scalar or array symbol its storage, once; arrays only
// while the storage bound holds.
func (in *Interp) alloc(sym *sem.Symbol) {
	switch {
	case sym.Kind == sem.ScalarSym && in.scalars[sym] == nil:
		v := zeroValue(sym.Type)
		in.scalars[sym] = &v
	case sym.Kind == sem.ArraySym && in.arrays[sym] == nil && in.tooBig == nil:
		in.arrays[sym] = newArray(sym)
	}
}

// Machine returns the machine charged by this execution.
func (in *Interp) Machine() *machine.Machine { return in.mach }

// LoopCycles returns the per-loop cycle counts collected for the loops in
// Options.TrackLoops.
func (in *Interp) LoopCycles() map[*lang.DoStmt]uint64 { return in.loopCycles }

// global returns the storage and type of a global scalar, or a throwaway
// cell and an error.
func (in *Interp) global(name string) (*value, lang.BasicType, error) {
	if sym := in.info.Globals[name]; sym != nil && sym.Kind == sem.ScalarSym {
		return in.scalars[sym], sym.Type, nil
	}
	return &value{}, 0, fmt.Errorf("interp: no global scalar %q", name)
}

// globalArray returns the storage of a global array of type t, or an empty
// array and an error.
func (in *Interp) globalArray(name string, t lang.BasicType) (*array, error) {
	if sym := in.info.Globals[name]; sym != nil && sym.Kind == sem.ArraySym && sym.Type == t && in.arrays[sym] != nil {
		return in.arrays[sym], nil
	}
	return &array{}, fmt.Errorf("interp: no global %s array %q", t, name)
}

// SetInt presets a global integer scalar before Run (input injection).
func (in *Interp) SetInt(name string, v int64) error {
	p, t, err := in.global(name)
	*p = convert(intV(v), t)
	return err
}

// SetArrayReal presets a global real array.
func (in *Interp) SetArrayReal(name string, vals []float64) error {
	a, err := in.globalArray(name, lang.TReal)
	copy(a.reals, vals)
	return err
}

// GlobalInt reads a global integer scalar after Run.
func (in *Interp) GlobalInt(name string) (int64, error) {
	p, _, err := in.global(name)
	return p.toInt(), err
}

// GlobalReal reads a global real scalar after Run.
func (in *Interp) GlobalReal(name string) (float64, error) {
	p, _, err := in.global(name)
	return p.toReal(), err
}

// GlobalArrayReal snapshots a global real array after Run.
func (in *Interp) GlobalArrayReal(name string) ([]float64, error) {
	a, err := in.globalArray(name, lang.TReal)
	return slices.Clone(a.reals), err
}

// GlobalArrayInt snapshots a global integer array after Run.
func (in *Interp) GlobalArrayInt(name string) ([]int64, error) {
	a, err := in.globalArray(name, lang.TInteger)
	return slices.Clone(a.ints), err
}

// Run executes the main program. Cost is charged to the machine.
func (in *Interp) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	if in.tooBig != nil {
		return in.tooBig
	}
	main := lower(in)
	in.cost = 0
	in.setNextCheck()
	main.call()
	in.mach.AddSerial(in.cost)
	return nil
}

func (in *Interp) fail(pos lang.Pos, format string, args ...any) {
	panic(&RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ctxPollMask samples the cancellation context once per 4096 steps: cheap
// enough for the hot path, prompt enough that a fired deadline aborts a
// simulated run within microseconds of real time.
const ctxPollMask = 1<<12 - 1

// chargeN adds cycles to the pending cost and steps to the step count. It
// is small enough to inline: the step limit and the context poll wait in
// chargeSlow until nextCheck.
func (in *Interp) chargeN(cycles, steps uint64) {
	in.cost += cycles
	in.steps += steps
	if in.steps >= in.nextCheck {
		in.chargeSlow()
	}
}

// chargeSlow fails a charge that takes the steps past MaxSteps, polls the
// context, and whether an earlier chunk of a concurrent region failed, at
// the first charge that reaches or passes each multiple of 4096 steps, and
// sets the next step at which any of them can happen.
func (in *Interp) chargeSlow() {
	if in.steps > in.opts.MaxSteps {
		panic(in.stepLimit())
	}
	// Below the limit, only a poll brings the steps to nextCheck.
	if in.ctxDone != nil {
		select {
		case <-in.ctxDone:
			panic(&RuntimeError{
				Msg:   "execution canceled",
				Cause: comperr.Canceled(in.opts.Ctx.Err()),
			})
		default:
		}
	}
	if in.rg != nil && in.rg.stop.Load() < in.pos {
		stoppedChunks.Add(1)
		panic(stopped{})
	}
	in.setNextCheck()
}

// stepLimit is the error of a run whose steps pass MaxSteps.
func (in *Interp) stepLimit() *RuntimeError {
	return &RuntimeError{
		Msg:   fmt.Sprintf("step limit exceeded (%d)", in.opts.MaxSteps),
		Cause: comperr.Limitf("simulated execution exceeded %d steps", in.opts.MaxSteps),
	}
}

// setNextCheck sets nextCheck to the first step after the current one at
// which chargeSlow has work: MaxSteps+1 (saturated), or the next poll.
func (in *Interp) setNextCheck() {
	in.nextCheck = in.opts.MaxSteps + 1
	if in.nextCheck == 0 {
		in.nextCheck = math.MaxUint64
	}
	if in.ctxDone != nil || in.rg != nil {
		in.nextCheck = min(in.nextCheck, (in.steps|ctxPollMask)+1)
	}
}

// tripCountU computes the F77 DO trip count max(0, (hi-lo+step)/step) in
// uint64 arithmetic: the span hi-lo can exceed MaxInt64 (e.g. lo negative,
// hi positive), and two's-complement conversion makes uint64(hi)-uint64(lo)
// exact for any in-range operands. -uint64(step) likewise negates
// step == MinInt64 without overflow.
// The one unrepresentable case — every int64 visited, span 2^64-1 with
// |step| 1 — saturates to MaxUint64 instead of wrapping to zero trips; the
// interpreter's step budget aborts such a loop long before it matters.
func tripCountU(lo, hi, step int64) uint64 {
	var q uint64
	if step > 0 {
		if lo > hi {
			return 0
		}
		q = (uint64(hi) - uint64(lo)) / uint64(step)
	} else {
		if lo < hi {
			return 0
		}
		q = (uint64(lo) - uint64(hi)) / (-uint64(step))
	}
	if q == math.MaxUint64 {
		return math.MaxUint64
	}
	return q + 1
}
