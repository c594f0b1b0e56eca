package interp

import (
	"math"

	"repro/internal/lang"
	"repro/internal/sem"
)

// cost is what evaluating a lowered construct charges: its cycles, and its
// steps, one per charge of the cost model.
type cost struct{ cycles, steps uint64 }

func (k cost) plus(o cost) cost { return cost{k.cycles + o.cycles, k.steps + o.steps} }

// code is one lowered expression: a closure of the expression's type under
// sem's rules (exactly one of i, r and b is set), and the cost of
// evaluating it that the lowering can count. The statement holding the
// expression charges that cost before it evaluates anything. The closure
// charges only what the lowering cannot count: the right operand of AND or
// OR, when it runs, and the locality model's adjustment of an access.
type code struct {
	i func() int64
	r func() float64
	b func() bool
	// pi or pr, when set, holds the value of an integer or real leaf: a
	// constant, or a scalar whose reads the observer need not see. The
	// closures that use a leaf read it in place rather than call i or r.
	pi *int64
	pr *float64
	cost
}

// int returns c as an integer: a real truncates toward zero, and a logical
// (which sem rejects) reads 0.
func (c code) int() func() int64 {
	if c.i != nil {
		return c.i
	}
	if r := c.r; r != nil {
		return func() int64 { return int64(r()) }
	}
	b := c.b
	return func() int64 { b(); return 0 }
}

// real returns c as a real; a logical reads 0.
func (c code) real() func() float64 {
	if c.r != nil {
		return c.r
	}
	if p := c.pi; p != nil {
		return func() float64 { return float64(*p) }
	}
	if i := c.i; i != nil {
		return func() float64 { return float64(i()) }
	}
	b := c.b
	return func() float64 { b(); return 0 }
}

// bool returns c as a logical; a number (which sem rejects) reads false.
func (c code) bool() func() bool {
	if c.b != nil {
		return c.b
	}
	f := c.real()
	return func() bool { f(); return false }
}

// leaf reads a leaf in place.
func leaf[T any](p *T) func() T { return func() T { return *p } }

// unitCost is one step of one cycle: a literal, a named constant, a scalar
// read or store, a unary operator, a comparison, integer + - *.
var unitCost = cost{1, 1}

// expr lowers one expression.
func (l *lowerer) expr(x lang.Expr) code {
	in := l.in
	switch x := x.(type) {
	case *lang.IntLit:
		v := x.Value
		return code{i: leaf(&v), pi: &v, cost: unitCost}
	case *lang.RealLit:
		v := x.Value
		return code{r: leaf(&v), pr: &v, cost: unitCost}
	case *lang.BoolLit:
		v := x.Value
		return code{b: leaf(&v), cost: unitCost}
	case *lang.StrLit:
		return code{b: leaf(new(bool)), cost: unitCost} // only printable; value unused
	case *lang.Ident:
		sym := l.scope.Lookup(x.Name)
		switch {
		case sym == nil:
			return code{i: func() int64 {
				in.fail(x.NamePos, "undefined variable %q", x.Name)
				return 0
			}, cost: unitCost}
		case sym.Kind == sem.ParamSym:
			v := sym.Value
			return code{i: leaf(&v), pi: &v, cost: unitCost}
		}
		p, c := l.scalar(sym), code{cost: unitCost}
		switch sym.Type {
		case lang.TInteger:
			c.i, c.pi = load(l, sym, &p.i)
		case lang.TReal:
			c.r, c.pr = load(l, sym, &p.r)
		default:
			c.b, _ = load(l, sym, &p.b)
		}
		return c
	case *lang.ArrayRef:
		if x.Intrinsic {
			return l.intrinsic(x)
		}
		r, k := l.ref(x)
		switch {
		case r == nil:
			return code{i: l.notArray(x), cost: k}
		case r.a.sym.Type == lang.TInteger:
			return code{i: loadElem(r, &r.a.ints), cost: k}
		case r.a.sym.Type == lang.TReal:
			return code{r: loadElem(r, &r.a.reals), cost: k}
		}
		return code{b: loadElem(r, &r.a.bools), cost: k}
	case *lang.Unary:
		c := l.expr(x.X)
		k := c.cost.plus(unitCost)
		switch {
		case x.Op == lang.OpNot:
			f := c.bool()
			return code{b: func() bool { return !f() }, cost: k}
		case x.Op == lang.OpNeg && c.i != nil:
			f := c.i
			return code{i: func() int64 { return -f() }, cost: k}
		case x.Op == lang.OpNeg:
			f := c.real()
			return code{r: func() float64 { return -f() }, cost: k}
		}
	case *lang.Binary:
		return l.binary(x)
	}
	return code{i: func() int64 {
		in.fail(x.Pos(), "cannot evaluate %T", x)
		return 0
	}}
}

// load reads a scalar: a leaf when there is no observer to see the read.
func load[T any](l *lowerer, sym *sem.Symbol, p *T) (func() T, *T) {
	in := l.in
	if in.opts.Observe == nil {
		return leaf(p), p
	}
	return func() T {
		if in.obsDepth > 0 {
			in.obsAccess(sym, -1, false)
		}
		return *p
	}, nil
}

// binary lowers a binary operation. An arithmetic one is integer when both
// operands are, and real otherwise.
func (l *lowerer) binary(x *lang.Binary) code {
	in := l.in
	lc, rc := l.expr(x.X), l.expr(x.Y)
	k := lc.cost.plus(rc.cost).plus(unitCost)
	switch op := x.Op; {
	case op == lang.OpAnd || op == lang.OpOr:
		// Short-circuit: the right operand runs, and is charged, only when
		// the left one is runsOn, true for AND and false for OR.
		lf, rf, rk, runsOn := lc.bool(), rc.bool(), rc.cost, op == lang.OpAnd
		return code{b: func() bool {
			if lf() != runsOn {
				return !runsOn
			}
			in.chargeN(rk.cycles, rk.steps)
			return rf()
		}, cost: lc.cost.plus(unitCost)}
	case op.IsComparison():
		if (lc.b != nil || rc.b != nil) && (op == lang.OpEq || op == lang.OpNe) {
			lf, rf, eq := lc.bool(), rc.bool(), op == lang.OpEq
			return code{b: func() bool { return (lf() == rf()) == eq }, cost: k}
		}
		if lc.i != nil && rc.i != nil {
			return code{b: compare(op, lc.i, rc.i, rc.pi), cost: k}
		}
		return code{b: compare(op, lc.real(), rc.real(), rc.pr), cost: k}
	case lc.i != nil && rc.i != nil:
		lf, rf := lc.i, rc.i
		switch op {
		case lang.OpDiv:
			return code{i: func() int64 {
				a, b := lf(), rf()
				if b == 0 {
					in.fail(x.Pos(), "integer division by zero")
				}
				return a / b
			}, cost: k.plus(cost{7, 1})}
		case lang.OpPow:
			return code{i: func() int64 { return ipow(lf(), rf()) }, cost: k.plus(cost{7, 1})}
		}
		if f := arith(op, lf, lc.pi, rf, rc.pi); f != nil {
			return code{i: f, cost: k}
		}
	default:
		lf, rf := lc.real(), rc.real()
		k.cycles++
		switch op {
		case lang.OpDiv:
			return code{r: func() float64 { return lf() / rf() }, cost: k.plus(cost{6, 1})}
		case lang.OpPow:
			return code{r: func() float64 { return math.Pow(lf(), rf()) }, cost: k.plus(cost{10, 1})}
		}
		if f := arith(op, lf, lc.pr, rf, rc.pr); f != nil {
			return code{r: f, cost: k}
		}
	}
	return code{i: func() int64 {
		in.fail(x.Pos(), "cannot apply %s", x.Op)
		return 0
	}, cost: k}
}

// arith applies +, - or * to x and y, reading in place each that is a
// leaf (xp or yp set); it is nil for any other operator.
func arith[T int64 | float64](op lang.Op, x func() T, xp *T, y func() T, yp *T) func() T {
	switch {
	case xp != nil && yp != nil:
		switch op {
		case lang.OpAdd:
			return func() T { return *xp + *yp }
		case lang.OpSub:
			return func() T { return *xp - *yp }
		case lang.OpMul:
			return func() T { return *xp * *yp }
		}
	case yp != nil:
		switch op {
		case lang.OpAdd:
			return func() T { return x() + *yp }
		case lang.OpSub:
			return func() T { return x() - *yp }
		case lang.OpMul:
			return func() T { return x() * *yp }
		}
	case xp != nil:
		switch op {
		case lang.OpAdd:
			return func() T { return *xp + y() }
		case lang.OpSub:
			return func() T { return *xp - y() }
		case lang.OpMul:
			return func() T { return *xp * y() }
		}
	}
	switch op {
	case lang.OpAdd:
		return func() T { return x() + y() }
	case lang.OpSub:
		return func() T { return x() - y() }
	case lang.OpMul:
		return func() T { return x() * y() }
	}
	return nil
}

// compare applies a comparison operator, reading y in place when it is a
// leaf (yp set).
func compare[T int64 | float64](op lang.Op, x, y func() T, yp *T) func() bool {
	if yp != nil {
		switch op {
		case lang.OpEq:
			return func() bool { return x() == *yp }
		case lang.OpNe:
			return func() bool { return x() != *yp }
		case lang.OpLt:
			return func() bool { return x() < *yp }
		case lang.OpLe:
			return func() bool { return x() <= *yp }
		case lang.OpGt:
			return func() bool { return x() > *yp }
		}
		return func() bool { return x() >= *yp }
	}
	switch op {
	case lang.OpEq:
		return func() bool { return x() == y() }
	case lang.OpNe:
		return func() bool { return x() != y() }
	case lang.OpLt:
		return func() bool { return x() < y() }
	case lang.OpLe:
		return func() bool { return x() <= y() }
	case lang.OpGt:
		return func() bool { return x() > y() }
	}
	return func() bool { return x() >= y() }
}

// ipow computes base**exp by squaring, in wrapping int64 arithmetic:
// multiplication modulo 2^64 is associative, so the result equals exp
// repeated multiplications, in O(log exp) of them. A negative exponent
// gives 0.
func ipow(base, exp int64) int64 {
	if exp < 0 {
		return 0
	}
	r := int64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r *= base
		}
		base *= base
	}
	return r
}

// intrinsic lowers an intrinsic call: integer when sem types it so, that
// is when every argument is an integer (int always, real and the
// elementary functions never).
func (l *lowerer) intrinsic(x *lang.ArrayRef) code {
	in := l.in
	args := make([]code, len(x.Args))
	k, allInt := cost{8, 1}, true
	for i, a := range x.Args {
		args[i] = l.expr(a)
		k = k.plus(args[i].cost)
		allInt = allInt && args[i].i != nil
	}
	var f func(float64) float64
	switch x.Name {
	case "mod":
		if allInt {
			a, b := args[0].i, args[1].i
			return code{i: func() int64 {
				x0, x1 := a(), b()
				if x1 == 0 {
					in.fail(x.Pos(), "mod by zero")
				}
				return x0 % x1
			}, cost: k}
		}
		a, b := args[0].real(), args[1].real()
		return code{r: func() float64 { return math.Mod(a(), b()) }, cost: k}
	case "min", "max":
		if allInt {
			return code{i: minMax(args, code.int, x.Name == "min"), cost: k}
		}
		return code{r: minMax(args, code.real, x.Name == "min"), cost: k}
	case "abs":
		if a := args[0].i; a != nil {
			return code{i: func() int64 {
				v := a()
				if v < 0 {
					return -v
				}
				return v
			}, cost: k}
		}
		f = math.Abs
	case "int":
		return code{i: args[0].int(), cost: k}
	case "real":
		return code{r: args[0].real(), cost: k}
	case "sqrt":
		f = math.Sqrt
	case "sin":
		f = math.Sin
	case "cos":
		f = math.Cos
	case "exp":
		f = math.Exp
	case "log":
		f = math.Log
	default:
		return code{i: func() int64 {
			in.fail(x.Pos(), "unknown intrinsic %q", x.Name)
			return 0
		}, cost: k}
	}
	a := args[0].real()
	return code{r: func() float64 { return f(a()) }, cost: k}
}

// minMax is min (isMin) or max over the arguments, evaluated in order as
// T: the first argument wins ties.
func minMax[T int64 | float64](args []code, as func(code) func() T, isMin bool) func() T {
	fs := make([]func() T, len(args))
	for i, a := range args {
		fs[i] = as(a)
	}
	return func() T {
		m := fs[0]()
		for _, f := range fs[1:] {
			if v := f(); isMin && v < m || !isMin && v > m {
				m = v
			}
		}
		return m
	}
}

// elemRef is one lowered array element reference: its array, and its
// subscripts in dimension order. The flat index is the sum of each
// subscript times its stride, less off. touches, fixed at lowering, is set
// when the run has an observer or the locality model, which see each
// access through Interp.touch.
type elemRef struct {
	in      *Interp
	x       *lang.ArrayRef
	a       *array
	subs    []subscript
	off     int64
	touches bool
}

// subscript is one lowered subscript of an array reference: its closure,
// or its leaf to read in place, the bounds it is checked against and its
// stride.
type subscript struct {
	f              func() int64
	p              *int64
	lo, hi, stride int64
}

// ref lowers an array element reference to its subscripts, and the cost of
// one access through it, its subscripts included. A reference proven safe
// by the bounds-check elimination analysis costs 2 instead of 3, and its
// subscripts are checked against [MinInt64, MaxInt64], which nothing
// fails: a wrong proof surfaces as an index panic in the Go runtime rather
// than silent corruption, since the flat index is still range-bound by the
// backing slice. A name that is not an array gives nil.
func (l *lowerer) ref(x *lang.ArrayRef) (*elemRef, cost) {
	in := l.in
	sym := l.scope.Lookup(x.Name)
	if sym == nil || sym.Kind != sem.ArraySym {
		return nil, cost{}
	}
	safe, k := in.opts.SafeRefs[x], cost{3, 1}
	if safe {
		k = cost{2, 1}
	}
	r := &elemRef{in: in, x: x, a: in.arrays[sym], subs: make([]subscript, len(sym.Dims)),
		touches: in.opts.Observe != nil || in.opts.LocalityModel}
	stride := int64(1)
	for d, dim := range sym.Dims {
		sub := l.expr(x.Args[d])
		r.subs[d] = subscript{f: sub.int(), p: sub.pi, lo: dim.Lo, hi: dim.Hi, stride: stride}
		if safe {
			r.subs[d].lo, r.subs[d].hi = math.MinInt64, math.MaxInt64
		}
		k = k.plus(sub.cost)
		r.off += dim.Lo * stride
		stride *= dim.Size()
	}
	return r, k
}

// notArray is the lowered reference to a name that is not an array.
func (l *lowerer) notArray(x *lang.ArrayRef) func() int64 {
	in := l.in
	return func() int64 {
		in.fail(x.NamePos, "not an array: %q", x.Name)
		return 0
	}
}

// check fails the access when v, its d-th subscript, is outside [lo, hi].
func (r *elemRef) check(d int, v, lo, hi int64) {
	if v < lo || v > hi {
		r.outOfBounds(d, v)
	}
}

// touch reports the access of the element at flat index idx when the run
// touches.
func (r *elemRef) touch(idx int64, write bool) {
	if r.touches {
		r.in.touch(r.a, idx, write)
	}
}

// outOfBounds fails the access whose d-th subscript s is outside its
// dimension.
func (r *elemRef) outOfBounds(d int, s int64) {
	dim := r.a.sym.Dims[d]
	r.in.fail(r.x.NamePos, "subscript %d of %q out of bounds: %d not in [%d:%d]",
		d+1, r.x.Name, s, dim.Lo, dim.Hi)
}

// loadElem lowers a load through r, whose array's storage of type T is
// *elems, to one closure. It evaluates the subscripts in dimension order,
// checks each before the next runs, reports the access when the run
// touches, and loads the element. A rank-1 reference and a rank-2 one of
// two leaves are straight-line; any other loops over the dimensions.
func loadElem[T any](r *elemRef, elems *[]T) func() T {
	subs, off := r.subs, r.off
	switch s0 := subs[0]; {
	case len(subs) == 1 && s0.p != nil:
		p, lo, hi := s0.p, s0.lo, s0.hi
		return func() T {
			v := *p
			r.check(0, v, lo, hi)
			r.touch(v-off, false)
			return (*elems)[v-off]
		}
	case len(subs) == 1:
		f, lo, hi := s0.f, s0.lo, s0.hi
		return func() T {
			v := f()
			r.check(0, v, lo, hi)
			r.touch(v-off, false)
			return (*elems)[v-off]
		}
	case len(subs) == 2 && s0.p != nil && subs[1].p != nil:
		p0, lo0, hi0 := s0.p, s0.lo, s0.hi
		p1, lo1, hi1, st1 := subs[1].p, subs[1].lo, subs[1].hi, subs[1].stride
		return func() T {
			v0 := *p0
			r.check(0, v0, lo0, hi0)
			v1 := *p1
			r.check(1, v1, lo1, hi1)
			idx := v0 + v1*st1 - off
			r.touch(idx, false)
			return (*elems)[idx]
		}
	}
	return func() T {
		idx := -off
		for d := range subs {
			s := &subs[d]
			v := s.f()
			r.check(d, v, s.lo, s.hi)
			idx += v * s.stride
		}
		r.touch(idx, false)
		return (*elems)[idx]
	}
}

// touch reports one array element access to the observer and, under the
// locality model, adjusts its cost: -1 cycle for a sequential access
// (cache hit), +5 for any other one (miss). The adjustment is no step.
func (in *Interp) touch(a *array, idx int64, write bool) {
	if in.obsDepth > 0 {
		in.obsAccess(a.sym, idx, write)
	}
	if in.opts.LocalityModel {
		if a.seen && (idx == a.last+1 || idx == a.last) {
			in.cost--
		} else {
			in.cost += 5
		}
		a.last, a.seen = idx, true
	}
}

// convert coerces a value to the declared type of a target.
func convert(v value, t lang.BasicType) value {
	switch t {
	case lang.TInteger:
		return intV(v.toInt())
	case lang.TReal:
		return realV(v.toReal())
	default:
		return v
	}
}

// assign lowers an assignment: the value of the right side is stored into
// the left, after the left side's subscripts are evaluated. The statement
// charges its whole cost first.
func (l *lowerer) assign(s *lang.AssignStmt) stmtFn {
	in := l.in
	rhs := l.expr(s.Rhs)
	switch lhs := s.Lhs.(type) {
	case *lang.Ident:
		sym := l.scope.Lookup(lhs.Name)
		if sym == nil || sym.Kind != sem.ScalarSym {
			return func() (signal, int) {
				in.fail(lhs.NamePos, "cannot assign to %q", lhs.Name)
				return sigNone, 0
			}
		}
		p, k := l.scalar(sym), rhs.cost.plus(unitCost)
		switch sym.Type {
		case lang.TInteger:
			return store(l, sym, &p.i, rhs.int(), k)
		case lang.TReal:
			return store(l, sym, &p.r, rhs.real(), k)
		}
		return store(l, sym, &p.b, rhs.bool(), k)
	case *lang.ArrayRef:
		r, k := l.ref(lhs)
		if r == nil {
			fail := l.notArray(lhs)
			return func() (signal, int) { fail(); return sigNone, 0 }
		}
		k = k.plus(rhs.cost)
		switch r.a.sym.Type {
		case lang.TInteger:
			return storeElem(r, &r.a.ints, rhs.int(), k)
		case lang.TReal:
			return storeElem(r, &r.a.reals, rhs.real(), k)
		}
		return storeElem(r, &r.a.bools, rhs.bool(), k)
	}
	return func() (signal, int) {
		in.fail(s.Lhs.Pos(), "invalid assignment target")
		return sigNone, 0
	}
}

// store assigns the value of rhs to a scalar.
func store[T any](l *lowerer, sym *sem.Symbol, p *T, rhs func() T, k cost) stmtFn {
	in := l.in
	if in.opts.Observe == nil {
		return func() (signal, int) {
			in.chargeN(k.cycles, k.steps)
			*p = rhs()
			return sigNone, 0
		}
	}
	return func() (signal, int) {
		in.chargeN(k.cycles, k.steps)
		v := rhs()
		if in.obsDepth > 0 {
			in.obsAccess(sym, -1, true)
		}
		*p = v
		return sigNone, 0
	}
}

// storeElem lowers an assignment of the value of rhs through r, whose
// array's storage of type T is *elems, to one closure: it charges k,
// evaluates rhs, and then does what loadElem does up to the element, which
// it stores.
func storeElem[T any](r *elemRef, elems *[]T, rhs func() T, k cost) stmtFn {
	in, subs, off := r.in, r.subs, r.off
	switch s0 := subs[0]; {
	case len(subs) == 1 && s0.p != nil:
		p, lo, hi := s0.p, s0.lo, s0.hi
		return func() (signal, int) {
			in.chargeN(k.cycles, k.steps)
			x := rhs()
			v := *p
			r.check(0, v, lo, hi)
			r.touch(v-off, true)
			(*elems)[v-off] = x
			return sigNone, 0
		}
	case len(subs) == 1:
		f, lo, hi := s0.f, s0.lo, s0.hi
		return func() (signal, int) {
			in.chargeN(k.cycles, k.steps)
			x := rhs()
			v := f()
			r.check(0, v, lo, hi)
			r.touch(v-off, true)
			(*elems)[v-off] = x
			return sigNone, 0
		}
	case len(subs) == 2 && s0.p != nil && subs[1].p != nil:
		p0, lo0, hi0 := s0.p, s0.lo, s0.hi
		p1, lo1, hi1, st1 := subs[1].p, subs[1].lo, subs[1].hi, subs[1].stride
		return func() (signal, int) {
			in.chargeN(k.cycles, k.steps)
			x := rhs()
			v0 := *p0
			r.check(0, v0, lo0, hi0)
			v1 := *p1
			r.check(1, v1, lo1, hi1)
			idx := v0 + v1*st1 - off
			r.touch(idx, true)
			(*elems)[idx] = x
			return sigNone, 0
		}
	}
	return func() (signal, int) {
		in.chargeN(k.cycles, k.steps)
		x := rhs()
		idx := -off
		for d := range subs {
			s := &subs[d]
			v := s.f()
			r.check(d, v, s.lo, s.hi)
			idx += v * s.stride
		}
		r.touch(idx, true)
		(*elems)[idx] = x
		return sigNone, 0
	}
}
