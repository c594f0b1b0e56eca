package interp

import (
	"fmt"
	"math"

	"repro/internal/lang"
	"repro/internal/sem"
)

// region is the lowered state of one parallel loop. sem rejects recursion
// and nested regions run serially, so a region is never live twice and its
// buffers are reused from one execution to the next.
type region struct {
	loopVar *value
	saved   value // the shared loop variable while the region runs
	// scalars are the private scalars, then (from nPriv on) the reduction
	// variables, so a reduction's identity wins over a private copy of the
	// same variable.
	scalars []*swapped
	nPriv   int
	arrays  []*privArray
}

// swapped is one scalar a chunk swaps into shared storage: fresh is the
// value each chunk starts with (a private copy or a reduction identity),
// saved the shared value while the region runs, and last the value the
// chunk owning the final iteration left.
type swapped struct {
	p                  *value
	fresh, saved, last value
	op                 lang.Op // reductions only
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

// enter swaps one chunk's fresh values into shared storage; the first
// chunk saves all shared values before it swaps any. A fresh private array
// is unseen by the locality model.
func (rg *region) enter(first, final, poison bool) {
	if first {
		rg.saved = *rg.loopVar
		for _, sc := range rg.scalars {
			sc.saved = *sc.p
		}
		for _, pa := range rg.arrays {
			pa.saved = *pa.shared
		}
	}
	for _, sc := range rg.scalars {
		*sc.p = sc.fresh
	}
	for _, pa := range rg.arrays {
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
func (rg *region) restore() {
	*rg.loopVar = rg.saved
	for _, sc := range rg.scalars {
		*sc.p = sc.saved
	}
	for _, pa := range rg.arrays {
		*pa.shared = pa.saved
	}
}

// parallelDo lowers a loop the parallelizer marked Parallel, on a machine
// with P > 1: iterations are block-partitioned over P virtual processors;
// each chunk runs with fresh private copies of the loop's Private
// variables and per-processor reduction partials; the region's simulated
// time is the slowest chunk plus the machine's fork/join overhead.
//
// Every symbol has one storage location, so each chunk swaps its own
// values into the shared storage, and the shared values are restored after
// the last chunk (or when a chunk fails). A parallel body never contains a
// CALL, so nothing outside the body sees the swap.
func (l *lowerer) parallelDo(d *doLoop) stmtFn {
	in, s := l.in, d.s
	// Resolve private and reduction symbols; an unknown one fails when the
	// loop runs, after the serial flush.
	rg := &region{loopVar: d.v}
	var unknown string
	for _, name := range s.Private {
		sym := l.scope.Lookup(name)
		if sym == nil {
			unknown = fmt.Sprintf("unknown private variable %q", name)
			break
		}
		switch sym.Kind {
		case sem.ScalarSym:
			fresh := zeroValue(sym.Type)
			if in.opts.Poison {
				fresh = poisonValue(sym.Type)
			}
			rg.scalars = append(rg.scalars, &swapped{p: l.scalar(sym), fresh: fresh})
		case sem.ArraySym:
			rg.arrays = append(rg.arrays, &privArray{shared: in.arrays[sym]})
		}
	}
	rg.nPriv = len(rg.scalars)
	for _, r := range s.Reductions {
		sym := l.scope.Lookup(r.Var)
		if unknown == "" && (sym == nil || sym.Kind != sem.ScalarSym) {
			unknown = fmt.Sprintf("unknown reduction variable %q", r.Var)
		}
		if unknown != "" {
			break
		}
		rg.scalars = append(rg.scalars, &swapped{p: l.scalar(sym), fresh: reductionIdentity(r.Op, sym.Type), op: r.Op})
	}
	name := fmt.Sprintf("%s/do_%s@%d", l.unit.Name, s.Var.Name, s.Pos().Line)
	costs := make([]uint64, in.mach.P)
	reds := rg.scalars[rg.nPriv:]
	partials := make([]value, in.mach.P*len(reds))

	return func() (signal, int) {
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
		if unknown != "" {
			in.fail(s.Pos(), "%s", unknown)
		}

		// Partition [0, n) into P contiguous chunks.
		P := min(uint64(in.mach.P), n)
		base, rem := n/P, n%P
		in.inParallel = true
		defer func() {
			if in.inParallel { // a chunk failed: leave shared storage as it was
				rg.restore()
			}
		}()
		for k := range P {
			c := k
			if in.opts.Schedule == Reverse {
				c = P - 1 - k
			}
			start := c*base + min(c, rem)
			end := start + base
			if c < rem {
				end++
			}
			in.cost = 0
			rg.enter(k == 0, end == n, in.opts.Poison)
			for idx := start; idx < end; idx++ {
				in.chargeN(3, 1)
				*d.v = intV(lo + int64(idx)*step)
				if sig, _ := d.body(); sig != sigNone {
					in.fail(s.Pos(), "control left a parallel loop body")
				}
			}
			for i, r := range reds {
				partials[int(c)*len(reds)+i] = *r.p
			}
			costs[c] = in.cost
			if end == n {
				for _, sc := range rg.scalars {
					sc.last = *sc.p
				}
			}
		}
		in.inParallel = false
		in.cost = 0
		rg.restore()
		if in.mach.Rec.Enabled() {
			in.mach.AddParallelRegion(name, costs[:P])
		} else {
			in.mach.AddParallel(costs[:P])
		}

		// Combine reductions in ascending processor order (deterministic).
		for i, r := range reds {
			for c := range int(P) {
				*r.p = combine(r.op, *r.p, partials[c*len(reds)+i])
			}
		}

		// Copy out the final iteration's private values (live-out semantics).
		for _, sc := range rg.scalars[:rg.nPriv] {
			*sc.p = sc.last
		}
		for _, pa := range rg.arrays {
			copy(pa.shared.ints, pa.bufs[1].ints)
			copy(pa.shared.reals, pa.bufs[1].reals)
			copy(pa.shared.bools, pa.bufs[1].bools)
		}
		*d.v = intV(lo + int64(n)*step)
		return sigNone, 0
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
