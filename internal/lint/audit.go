package lint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/expr"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/section"
	"repro/internal/sem"
)

// AuditOptions configures the verdict auditor.
type AuditOptions struct {
	// Ctx cancels the replay cooperatively (nil: background).
	Ctx context.Context
	// Guard is polled between audit stages (nil: no checkpoints).
	Guard *comperr.Guard
	// Rec receives lint.audit.* counters (nil: no telemetry).
	Rec *obs.Recorder
}

// The audit's bounds.
const (
	// maxReplaySteps bounds the replay execution in simulated steps.
	maxReplaySteps = 100_000_000
	// maxFootprint caps the tracked footprint entries per loop execution;
	// a loop exceeding it is reported unaudited, never guessed.
	maxFootprint = 1 << 20
	// maxStaticTrips bounds the small-bounds instantiation.
	maxStaticTrips = 12
)

// Audit re-derives every parallel/privatizable verdict through an
// independent oracle and reports IRR9xxx diagnostics where the oracle
// disagrees. Two derivation paths, both far simpler than the dependence
// tests they check:
//
//  1. an exhaustive check on small instantiated bounds: loop-variable-only
//     subscripts of unconditional accesses are evaluated for the first few
//     iterations and cross-iteration collisions on shared arrays reported;
//  2. an interpreter replay: the program runs once, serially, with
//     per-iteration read/write footprints collected inside every audited
//     loop — a cross-iteration conflict on a shared variable refutes a
//     parallel verdict, and a privatized variable reading a value it did
//     not write this iteration refutes a privatization verdict.
//
// It also surfaces IRR2003 for loops blocked by an unprovable index-array
// injectivity, attaching the failing query's propagation trace and, when
// the replay observed one, a concrete counterexample witness.
//
// The returned error is non-nil only for cancellation/step-limit aborts of
// the surrounding context (comperr-classified); audit findings are always
// diagnostics, never errors.
func Audit(info *sem.Info, prop *property.Analysis, reports []*parallel.LoopReport, opts AuditOptions) ([]Diag, error) {
	frames := map[*lang.DoStmt]*auditFrame{}
	var audited []*auditFrame
	for _, r := range reports {
		if !r.Parallel {
			continue
		}
		f := newParallelFrame(r)
		frames[r.Loop] = f
		audited = append(audited, f)
	}
	// Serial loops blocked by an array dependence whose subscripts go
	// through index arrays: observed too, to catch a concrete
	// non-injectivity witness for IRR2003.
	type blockedLoop struct {
		report  *parallel.LoopReport
		arrays  map[string][]string // blocked array -> index arrays
		at      lang.Stmt           // a statement referencing the blocked array
		witness *auditFrame
	}
	var blocked []*blockedLoop
	for _, r := range reports {
		if r.Parallel || len(r.Dependent) == 0 {
			continue
		}
		bl := &blockedLoop{report: r, arrays: map[string][]string{}}
		track := map[string]bool{}
		for _, arr := range r.Dependent {
			ias, at := indexArraysOf(r.Loop, arr)
			if len(ias) == 0 {
				continue
			}
			bl.arrays[arr] = ias
			track[arr] = true
			if bl.at == nil {
				bl.at = at
			}
		}
		if len(bl.arrays) == 0 {
			continue
		}
		bl.witness = newWitnessFrame(r, track)
		frames[r.Loop] = bl.witness
		blocked = append(blocked, bl)
	}

	var diags []Diag

	// Path 1: exhaustive small-bounds instantiation.
	opts.Guard.Check()
	for _, f := range audited {
		if c := staticConflict(info, f.report); c != nil {
			f.mismatch = c
			f.settle()
		}
	}

	// Path 2: serial replay with footprint collection. The finished
	// interpreter is kept: the recurrence audit reads index-array values
	// back out of it.
	var replayErr error
	var final *interp.Interp
	if len(frames) > 0 {
		opts.Guard.Check()
		final, replayErr = replay(info, frames, opts)
		if replayErr != nil {
			final = nil // partial state: the value oracle must not trust it
			if errors.Is(replayErr, comperr.ErrCanceled) {
				return nil, replayErr
			}
			d := New(CodeAuditIncomplete, lang.Pos{},
				"audit replay stopped early: %v; loops it did not reach are unaudited", replayErr)
			diags = append(diags, d)
		}
	}

	confirmed, mismatched, skipped := 0, 0, 0
	for _, f := range audited {
		switch {
		case f.mismatch != nil:
			mismatched++
			diags = append(diags, f.mismatchDiag())
		case f.privViol != nil:
			mismatched++
			diags = append(diags, f.privDiag())
		case f.over:
			skipped++
			d := New(CodeAuditIncomplete, f.report.Loop.Pos(),
				"audit of loop %s gave up: footprint exceeded %d entries", f.report.Name, maxFootprint)
			diags = append(diags, d)
		case f.iters == 0:
			// Never reached, or zero-trip on this input: the replay saw no
			// iteration, so there is no evidence either way. Vacuously
			// consistent, but say so only in telemetry — a loop that does
			// not execute is not a finding.
			skipped++
		default:
			confirmed++
		}
	}

	// Recurrence-derived verdicts: re-check every monotonic/injective fact
	// a parallel verdict cites against the loop that fills the array, via
	// the static increment oracle and the replayed values (recaudit.go).
	opts.Guard.Check()
	recDiags, recAudited := auditRecurrence(info, prop, reports, final)
	mismatched += len(recDiags)
	diags = append(diags, recDiags...)

	// IRR2003: replayed injectivity queries for blocked loops, with the
	// propagation trace and any replay witness attached.
	opts.Guard.Check()
	for _, bl := range blocked {
		arrs := make([]string, 0, len(bl.arrays))
		for a := range bl.arrays {
			arrs = append(arrs, a)
		}
		sort.Strings(arrs)
		for _, arr := range arrs {
			for _, ia := range bl.arrays[arr] {
				d, ok := nonInjectiveDiag(prop, bl.report, arr, ia, bl.at, bl.witness)
				if ok {
					diags = append(diags, d)
				}
			}
		}
	}

	if opts.Rec.Enabled() {
		opts.Rec.Count("lint.audit.loops", int64(len(audited)))
		opts.Rec.Count("lint.audit.confirmed", int64(confirmed))
		opts.Rec.Count("lint.audit.mismatch", int64(mismatched))
		opts.Rec.Count("lint.audit.skipped", int64(skipped))
		opts.Rec.Count("lint.audit.recurrence", int64(recAudited))
	}
	Sort(diags)
	return diags, nil
}

// ---------------------------------------------------------------------------
// Replay frames

// conflict is one cross-iteration collision.
type conflict struct {
	elem       int64 // -1 for scalars
	sym        *sem.Symbol
	iter1, it2 int64
	kind       string // "write/write", "read/write", "write/read"
	static     bool
}

// privEvent is a privatization violation: a claimed-private location read
// a value the current iteration did not write.
type privEvent struct {
	name  string
	elem  int64
	sym   *sem.Symbol
	iter  int64
	wIter int64 // iteration that wrote the value; -1 if never written
}

// auditFrame accumulates the replay footprint of one audited loop.
type auditFrame struct {
	report  *parallel.LoopReport
	exclude map[string]bool // loop var + private + reductions
	private map[string]bool // claimed privatized (subset of exclude)
	// track limits shared-conflict bookkeeping to these arrays (nil:
	// every shared variable) — witness frames watch only the blocked
	// arrays.
	track map[string]bool
	// witnessOnly frames (blocked serial loops) record conflicts as
	// witnesses without implying a verdict mismatch.
	witnessOnly bool

	haveIter bool
	curIter  int64
	iters    int64
	// epoch numbers the loop's dynamic executions: a location's record
	// belongs to the current execution only when stamped with it, so
	// entering the loop again forgets every record at once. The replay's
	// step bound keeps the count of executions far below 2^32.
	epoch uint32
	// size counts the records of the current execution, as maxFootprint
	// bounds them: each location written, read and privately written.
	size int
	// syms holds each symbol's footprint by its sem slot; nil until the
	// frame first sees the symbol.
	syms []*footprint

	over     bool
	mismatch *conflict
	privViol *privEvent
	// witnesses: first observed conflict per tracked array.
	witnesses map[string]*conflict
	// done is set once the frame can learn nothing more (see settle).
	done bool
}

// footprint is one symbol's records in a frame: a scalar's in place, an
// array's in pages of pageSize elements created on first touch. A private
// symbol is checked for write-before-read in each iteration, any other
// for cross-iteration conflicts.
type footprint struct {
	private bool
	scalar  loc
	elems   int64
	pages   []*[pageSize]loc
}

// pageSize is the number of array elements one footprint page records. A
// strided loop can touch one element per page, and then each location it
// touches costs a whole page; 8 records keep that within a few map
// entries' worth, and dense sweeps run no slower than with larger pages.
const pageSize = 8

// loc is one location's record: the iterations that last wrote and last
// read it, each valid only while its stamp equals the frame's epoch. A
// private symbol records only its writes.
type loc struct {
	wEpoch, rEpoch uint32
	w, r           int64
}

// ignored is the footprint of every symbol a frame does not record: the
// loop variable, reductions, and for a witness frame all but its arrays.
// It holds no records, so the frames share it.
var ignored = &footprint{}

// at returns the record of one element (-1 for a scalar).
func (fp *footprint) at(elem int64) *loc {
	if elem < 0 {
		return &fp.scalar
	}
	if fp.pages == nil {
		fp.pages = make([]*[pageSize]loc, (fp.elems+pageSize-1)/pageSize)
	}
	p := elem / pageSize
	if fp.pages[p] == nil {
		fp.pages[p] = new([pageSize]loc)
	}
	return &fp.pages[p][elem%pageSize]
}

func newParallelFrame(r *parallel.LoopReport) *auditFrame {
	f := &auditFrame{
		report:  r,
		exclude: map[string]bool{r.Loop.Var.Name: true},
		private: map[string]bool{},
	}
	for _, p := range r.Private {
		f.exclude[p] = true
		f.private[p] = true
	}
	for _, red := range r.Reductions {
		f.exclude[red.Var] = true
	}
	return f
}

func newWitnessFrame(r *parallel.LoopReport, track map[string]bool) *auditFrame {
	return &auditFrame{
		report:      r,
		exclude:     map[string]bool{r.Loop.Var.Name: true},
		private:     map[string]bool{},
		track:       track,
		witnessOnly: true,
		witnesses:   map[string]*conflict{},
	}
}

// reset starts one dynamic execution of the loop.
func (f *auditFrame) reset() {
	f.haveIter = false
	f.epoch++
	f.size = 0
}

// settle sets done when the frame can learn nothing more: it is over the
// footprint cap, a witness frame holds a witness for every tracked array,
// or a parallel frame holds both a mismatch and a privatization violation.
// The frame calls it whenever it records one of them.
func (f *auditFrame) settle() {
	if f.witnessOnly {
		f.done = f.over || len(f.witnesses) >= len(f.track)
	} else {
		f.done = f.over || f.mismatch != nil && f.privViol != nil
	}
}

// footprint returns the footprint of sym, classifying the symbol on its
// first access.
func (f *auditFrame) footprint(sym *sem.Symbol) *footprint {
	slot := int(sym.Slot)
	if slot >= len(f.syms) {
		f.syms = append(f.syms, make([]*footprint, slot+1-len(f.syms))...)
	}
	fp := f.syms[slot]
	if fp == nil {
		switch {
		case f.private[sym.Name]:
			fp = &footprint{private: true, elems: sym.NumElems()}
		case f.exclude[sym.Name], f.track != nil && (sym.Kind != sem.ArraySym || !f.track[sym.Name]):
			fp = ignored
		default:
			fp = &footprint{elems: sym.NumElems()}
		}
		f.syms[slot] = fp
	}
	return fp
}

// access records one memory access into the frame's footprint and checks
// it against the loop's verdict.
func (f *auditFrame) access(sym *sem.Symbol, elem int64, write bool) {
	if !f.haveIter || f.done {
		return
	}
	fp := f.footprint(sym)
	if fp == ignored || fp.private && f.privViol != nil {
		return
	}
	name := sym.Name
	l := fp.at(elem)
	if fp.private {
		if write {
			f.stamp(&l.wEpoch)
			l.w = f.curIter
		} else if l.wEpoch != f.epoch {
			f.privViol = &privEvent{name: name, elem: elem, sym: sym, iter: f.curIter, wIter: -1}
			f.settle()
		} else if l.w != f.curIter {
			f.privViol = &privEvent{name: name, elem: elem, sym: sym, iter: f.curIter, wIter: l.w}
			f.settle()
		}
		return
	}
	var c *conflict
	if write {
		if l.wEpoch == f.epoch && l.w != f.curIter {
			c = &conflict{elem: elem, sym: sym, iter1: l.w, it2: f.curIter, kind: "write/write"}
		} else if l.rEpoch == f.epoch && l.r != f.curIter {
			c = &conflict{elem: elem, sym: sym, iter1: l.r, it2: f.curIter, kind: "read/write"}
		}
		f.stamp(&l.wEpoch)
		l.w = f.curIter
	} else {
		if l.wEpoch == f.epoch && l.w != f.curIter {
			c = &conflict{elem: elem, sym: sym, iter1: l.w, it2: f.curIter, kind: "write/read"}
		}
		f.stamp(&l.rEpoch)
		l.r = f.curIter
	}
	if c != nil {
		if f.witnessOnly {
			if f.witnesses[name] == nil {
				f.witnesses[name] = c
			}
		} else if f.mismatch == nil {
			f.mismatch = c
		}
		f.settle()
	}
}

// stamp makes a record part of the current execution, counting it against
// maxFootprint the first time. Past the cap the frame gives up and drops
// its storage.
func (f *auditFrame) stamp(epoch *uint32) {
	if *epoch == f.epoch {
		return
	}
	*epoch = f.epoch
	f.size++
	if f.size > maxFootprint {
		f.over = true
		f.syms = nil
		f.settle()
	}
}

func (f *auditFrame) mismatchDiag() Diag {
	c := f.mismatch
	loc := elemString(c.sym, c.elem)
	d := New(CodeAuditParallel, f.report.Loop.Pos(),
		"audit mismatch: loop %s is classified parallel, but iterations %s=%d and %s=%d form a %s conflict on %s",
		f.report.Name, f.report.Loop.Var.Name, c.iter1, f.report.Loop.Var.Name, c.it2, c.kind, loc)
	evidence := "interpreter footprint replay"
	if c.static {
		evidence = "exhaustive small-bounds instantiation"
	}
	d.Related = append(d.Related, Related{Message: "independent oracle: " + evidence})
	d.FixHint = "either the dependence tests or the auditor is unsound for this pattern; do not trust the parallel verdict"
	return d
}

func (f *auditFrame) privDiag() Diag {
	v := f.privViol
	loc := elemString(v.sym, v.elem)
	var msg string
	if v.wIter < 0 {
		msg = fmt.Sprintf("audit mismatch: %s is privatized in loop %s, but iteration %s=%d reads %s before any write of it in the loop",
			v.name, f.report.Name, f.report.Loop.Var.Name, v.iter, loc)
	} else {
		msg = fmt.Sprintf("audit mismatch: %s is privatized in loop %s, but iteration %s=%d reads %s last written by iteration %s=%d",
			v.name, f.report.Name, f.report.Loop.Var.Name, v.iter, loc, f.report.Loop.Var.Name, v.wIter)
	}
	d := New(CodeAuditPrivate, f.report.Loop.Pos(), "%s", msg)
	d.Related = append(d.Related, Related{Message: "independent oracle: interpreter footprint replay (write-before-read per iteration is required for privatization)"})
	return d
}

// elemString renders a storage location: "q" for scalars, "a(3)" or
// "z(2,5)" for array elements (the flat index decomposed over the declared
// dimensions).
func elemString(sym *sem.Symbol, elem int64) string {
	if elem < 0 || sym.Kind != sem.ArraySym {
		return sym.Name
	}
	subs := make([]string, len(sym.Dims))
	for d, dim := range sym.Dims {
		subs[d] = fmt.Sprintf("%d", dim.Lo+elem%dim.Size())
		elem /= dim.Size()
	}
	return sym.Name + "(" + strings.Join(subs, ",") + ")"
}

// ---------------------------------------------------------------------------
// Replay driver

func replay(info *sem.Info, frames map[*lang.DoStmt]*auditFrame, opts AuditOptions) (*interp.Interp, error) {
	loops := map[*lang.DoStmt]bool{}
	for s := range frames {
		loops[s] = true
	}
	var stack []*auditFrame
	ob := &interp.Observer{
		Loops: loops,
		EnterLoop: func(s *lang.DoStmt) {
			f := frames[s]
			f.reset()
			stack = append(stack, f)
		},
		ExitLoop: func(s *lang.DoStmt) {
			if n := len(stack); n > 0 {
				stack = stack[:n-1]
			}
		},
		IterStart: func(s *lang.DoStmt, v int64) {
			f := frames[s]
			f.haveIter = true
			f.curIter = v
			f.iters++
		},
		Access: func(sym *sem.Symbol, elem int64, write bool) {
			for _, f := range stack {
				f.access(sym, elem, write)
			}
		},
	}
	in := interp.New(info, interp.Options{
		Machine:  machine.New(machine.Origin2000, 1),
		MaxSteps: maxReplaySteps,
		Ctx:      opts.Ctx,
		Observe:  ob,
	})
	return in, in.Run()
}

// ---------------------------------------------------------------------------
// Exhaustive small-bounds instantiation

// staticConflict instantiates the first few iterations of a parallel loop
// and collides the unconditional, loop-variable-only subscripts of its
// body. A collision between different iterations on a shared array refutes
// the parallel verdict with no interpreter in the loop — purely from the
// loop header and the subscript expressions.
func staticConflict(info *sem.Info, r *parallel.LoopReport) *conflict {
	sc := info.Scope(r.Unit)
	loop := r.Loop
	lo, okLo := constInt(sc, loop.Lo)
	hi, okHi := constInt(sc, loop.Hi)
	step := int64(1)
	okStep := true
	if loop.Step != nil {
		step, okStep = constInt(sc, loop.Step)
	}
	if !okLo || !okHi || !okStep || step == 0 {
		return nil
	}
	exclude := map[string]bool{loop.Var.Name: true}
	for _, p := range r.Private {
		exclude[p] = true
	}
	for _, red := range r.Reductions {
		exclude[red.Var] = true
	}

	// Unconditional accesses only: the top-level assignments of the body.
	// Guarded accesses may legitimately touch the same element in one
	// iteration only; auditing them statically would cry wolf.
	type sref struct {
		ref   *lang.ArrayRef
		write bool
	}
	var refs []sref
	for _, s := range loop.Body {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			continue
		}
		collect := func(e lang.Expr, write bool) {
			lang.WalkExpr(e, func(x lang.Expr) bool {
				if ar, ok := x.(*lang.ArrayRef); ok && !ar.Intrinsic && !exclude[ar.Name] {
					refs = append(refs, sref{ar, write})
					return false // subscripts handled by evalSub
				}
				return true
			})
		}
		if lhs, ok := as.Lhs.(*lang.ArrayRef); ok && !lhs.Intrinsic && !exclude[lhs.Name] {
			refs = append(refs, sref{lhs, true})
		}
		collect(as.Rhs, false)
	}
	if len(refs) == 0 {
		return nil
	}

	trips := min(tripCount(lo, hi, step), maxStaticTrips)
	writesAt := map[string]map[int64]int64{}
	readsAt := map[string]map[int64]int64{}
	record := func(m map[string]map[int64]int64, arr string, elem, iter int64) (int64, bool) {
		at := m[arr]
		if at == nil {
			at = map[int64]int64{}
			m[arr] = at
		}
		if prev, ok := at[elem]; ok && prev != iter {
			return prev, true
		}
		at[elem] = iter
		return 0, false
	}
	for k := int64(0); k < trips; k++ {
		v := lo + k*step
		for _, sr := range refs {
			sym := info.Symbol(sr.ref.Slot)
			if sym == nil || sym.Kind != sem.ArraySym || len(sym.Dims) != len(sr.ref.Args) {
				continue
			}
			elem, ok := flatElem(sc, sym, sr.ref, loop.Var.Name, v)
			if !ok {
				continue
			}
			if sr.write {
				if prev, hit := record(writesAt, sr.ref.Name, elem, v); hit {
					return &conflict{elem: elem, sym: sym, iter1: prev, it2: v, kind: "write/write", static: true}
				}
				if at := readsAt[sr.ref.Name]; at != nil {
					if prev, ok := at[elem]; ok && prev != v {
						return &conflict{elem: elem, sym: sym, iter1: prev, it2: v, kind: "read/write", static: true}
					}
				}
			} else {
				if at := writesAt[sr.ref.Name]; at != nil {
					if prev, ok := at[elem]; ok && prev != v {
						return &conflict{elem: elem, sym: sym, iter1: prev, it2: v, kind: "write/read", static: true}
					}
				}
				record(readsAt, sr.ref.Name, elem, v)
			}
		}
	}
	return nil
}

func tripCount(lo, hi, step int64) int64 {
	if step > 0 {
		if lo > hi {
			return 0
		}
		return (hi-lo)/step + 1
	}
	if lo < hi {
		return 0
	}
	return (lo-hi)/(-step) + 1
}

// flatElem evaluates a reference's subscripts at one loop-variable value,
// returning the flat element index. Fails (and the ref is skipped) when a
// subscript depends on anything but the loop variable, parameters and
// foldable intrinsics, or lands out of bounds (that is IRR3002's finding,
// not the auditor's).
func flatElem(sc *sem.Scope, sym *sem.Symbol, ref *lang.ArrayRef, loopVar string, v int64) (int64, bool) {
	var elem, stride int64 = 0, 1
	for d, arg := range ref.Args {
		sub, ok := evalSub(sc, arg, loopVar, v)
		if !ok {
			return 0, false
		}
		dim := sym.Dims[d]
		if sub < dim.Lo || sub > dim.Hi {
			return 0, false
		}
		elem += (sub - dim.Lo) * stride
		stride *= dim.Size()
	}
	return elem, true
}

// evalSub evaluates an integer expression over {loop var, params, int
// literals} with the foldable intrinsics (mod, abs, min, max, int).
func evalSub(sc *sem.Scope, e lang.Expr, loopVar string, v int64) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value, true
	case *lang.Ident:
		if e.Name == loopVar {
			return v, true
		}
		if sc != nil {
			if sym := sc.Lookup(e.Name); sym != nil && sym.Kind == sem.ParamSym {
				return sym.Value, true
			}
		}
	case *lang.Unary:
		if x, ok := evalSub(sc, e.X, loopVar, v); ok && e.Op == lang.OpNeg {
			return -x, true
		}
	case *lang.Binary:
		l, okL := evalSub(sc, e.X, loopVar, v)
		r, okR := evalSub(sc, e.Y, loopVar, v)
		if okL && okR {
			switch e.Op {
			case lang.OpAdd:
				return l + r, true
			case lang.OpSub:
				return l - r, true
			case lang.OpMul:
				return l * r, true
			case lang.OpDiv:
				if r != 0 {
					return l / r, true
				}
			}
		}
	case *lang.ArrayRef:
		if !e.Intrinsic {
			return 0, false
		}
		args := make([]int64, len(e.Args))
		for i, a := range e.Args {
			x, ok := evalSub(sc, a, loopVar, v)
			if !ok {
				return 0, false
			}
			args[i] = x
		}
		switch e.Name {
		case "mod":
			if len(args) == 2 && args[1] != 0 {
				return args[0] % args[1], true
			}
		case "abs":
			if len(args) == 1 {
				if args[0] < 0 {
					return -args[0], true
				}
				return args[0], true
			}
		case "min":
			if len(args) > 0 {
				m := args[0]
				for _, a := range args[1:] {
					if a < m {
						m = a
					}
				}
				return m, true
			}
		case "max":
			if len(args) > 0 {
				m := args[0]
				for _, a := range args[1:] {
					if a > m {
						m = a
					}
				}
				return m, true
			}
		case "int":
			if len(args) == 1 {
				return args[0], true
			}
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// IRR2003: non-injective index arrays with trace and witness

// indexArraysOf finds the index arrays appearing inside subscripts of arr
// within the loop body, and a statement referencing arr (the query's use
// site).
func indexArraysOf(loop *lang.DoStmt, arr string) ([]string, lang.Stmt) {
	seen := map[string]bool{}
	var names []string
	var at lang.Stmt
	lang.WalkStmts(loop.Body, func(s lang.Stmt) bool {
		lang.StmtExprs(s, func(e lang.Expr) {
			lang.WalkExpr(e, func(x lang.Expr) bool {
				ref, ok := x.(*lang.ArrayRef)
				if !ok || ref.Intrinsic || ref.Name != arr {
					return true
				}
				if at == nil {
					at = s
				}
				for _, a := range ref.Args {
					lang.WalkExpr(a, func(y lang.Expr) bool {
						if ia, ok := y.(*lang.ArrayRef); ok && !ia.Intrinsic && !seen[ia.Name] {
							seen[ia.Name] = true
							names = append(names, ia.Name)
						}
						return true
					})
				}
				return false
			})
		})
		return true
	})
	sort.Strings(names)
	return names, at
}

// nonInjectiveDiag replays the injectivity query for one index array of a
// blocked loop over the loop's index range, the section the injective
// dependence test queries, attaching the propagation trace of the failing
// query and any concrete witness the footprint replay observed. A loop
// whose step gives no range was never queried, and gets no diagnostic.
func nonInjectiveDiag(prop *property.Analysis, r *parallel.LoopReport, arr, ia string, at lang.Stmt, wf *auditFrame) (Diag, bool) {
	if prop == nil || at == nil {
		return Diag{}, false
	}
	lo, hi, _, ok := expr.DoRange(r.Loop)
	if !ok {
		return Diag{}, false
	}
	rec := obs.NewDebug() // the replay exists to capture per-node steps
	if prop.Replay(rec, property.NewInjective(ia), at, section.New(ia, lo, hi)) {
		// Injectivity holds; the dependence has another cause.
		return Diag{}, false
	}
	d := New(CodeNonInjective, r.Loop.Pos(),
		"loop %s stays serial: index array %q in subscripts of %q is not provably injective over %s",
		r.Name, ia, arr, expr.NewRange(lo, hi))
	d.FixHint = fmt.Sprintf("make the fill of %s injective (e.g. gather distinct indices), or restructure the %s accesses", ia, arr)
	if wf != nil {
		if w := wf.witnesses[arr]; w != nil {
			d.Related = append(d.Related, Related{Message: fmt.Sprintf(
				"concrete witness from replay: iterations %s=%d and %s=%d form a %s conflict on %s",
				r.Loop.Var.Name, w.iter1, r.Loop.Var.Name, w.it2, w.kind, elemString(w.sym, w.elem))})
		}
	}
	d.Related = append(d.Related, queryTrace(rec)...)
	return d, true
}

// queryTrace compresses the failing query's propagation steps into related
// notes: every killed step, bracketed by the first few propagations.
func queryTrace(rec *obs.Recorder) []Related {
	var out []Related
	kept := 0
	for _, e := range rec.Events() {
		if e.Kind != "query.step" {
			continue
		}
		outcome := e.Get("outcome")
		killed := strings.HasPrefix(outcome, "killed")
		if !killed && kept >= 4 {
			continue
		}
		kept++
		msg := fmt.Sprintf("query trace: %s at %s: %s", e.Get("class"), e.Get("node"), outcome)
		out = append(out, Related{Message: msg})
		if len(out) >= 8 {
			break
		}
	}
	return out
}
