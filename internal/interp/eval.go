package interp

import (
	"math"

	"repro/internal/lang"
	"repro/internal/sem"
)

// expr lowers one expression.
func (l *lowerer) expr(x lang.Expr) exprFn {
	in := l.in
	switch x := x.(type) {
	case *lang.IntLit:
		return in.constant(intV(x.Value))
	case *lang.RealLit:
		return in.constant(realV(x.Value))
	case *lang.BoolLit:
		return in.constant(boolV(x.Value))
	case *lang.StrLit:
		return in.constant(boolV(false)) // only printable; value unused
	case *lang.Ident:
		sym := l.scope.Lookup(x.Name)
		switch {
		case sym == nil:
			return func() value {
				in.charge(1)
				in.fail(x.NamePos, "undefined variable %q", x.Name)
				return value{}
			}
		case sym.Kind == sem.ParamSym:
			return in.constant(intV(sym.Value))
		}
		p := l.scalar(sym)
		return func() value {
			in.charge(1)
			if in.obsDepth > 0 {
				in.obsAccess(sym, -1, false)
			}
			return *p
		}
	case *lang.ArrayRef:
		if x.Intrinsic {
			return l.intrinsic(x)
		}
		a, cost, index := l.ref(x)
		if a == nil {
			return func() value { index(); return value{} }
		}
		switch a.sym.Type {
		case lang.TInteger:
			return func() value {
				idx := index()
				in.charge(in.access(a, idx, cost, false))
				return intV(a.ints[idx])
			}
		case lang.TReal:
			return func() value {
				idx := index()
				in.charge(in.access(a, idx, cost, false))
				return realV(a.reals[idx])
			}
		default:
			return func() value {
				idx := index()
				in.charge(in.access(a, idx, cost, false))
				return boolV(a.bools[idx])
			}
		}
	case *lang.Unary:
		operand := l.expr(x.X)
		switch x.Op {
		case lang.OpNeg:
			return func() value {
				v := operand()
				in.charge(1)
				if v.k == lang.TInteger {
					return intV(-v.i)
				}
				return realV(-v.r)
			}
		case lang.OpNot:
			return func() value {
				v := operand()
				in.charge(1)
				return boolV(!v.b)
			}
		}
		return func() value {
			operand()
			in.charge(1)
			in.fail(x.Pos(), "cannot evaluate %T", x)
			return value{}
		}
	case *lang.Binary:
		return l.binary(x)
	}
	return func() value {
		in.fail(x.Pos(), "cannot evaluate %T", x)
		return value{}
	}
}

// constant is a literal or a named constant: one step, one cycle.
func (in *Interp) constant(v value) exprFn {
	return func() value {
		in.charge(1)
		return v
	}
}

func (l *lowerer) binary(x *lang.Binary) exprFn {
	in := l.in
	left, right := l.expr(x.X), l.expr(x.Y)
	// Short-circuit logicals.
	switch x.Op {
	case lang.OpAnd:
		return func() value {
			in.charge(1)
			return boolV(left().b && right().b)
		}
	case lang.OpOr:
		return func() value {
			in.charge(1)
			return boolV(left().b || right().b)
		}
	}
	// The commonest operators get a closure of their own.
	switch op := x.Op; op {
	case lang.OpAdd:
		return func() value {
			a, b := left(), right()
			if a.k == lang.TInteger && b.k == lang.TInteger {
				in.charge(1)
				return intV(a.i + b.i)
			}
			in.charge(2)
			return realV(a.toReal() + b.toReal())
		}
	case lang.OpSub:
		return func() value {
			a, b := left(), right()
			if a.k == lang.TInteger && b.k == lang.TInteger {
				in.charge(1)
				return intV(a.i - b.i)
			}
			in.charge(2)
			return realV(a.toReal() - b.toReal())
		}
	case lang.OpMul:
		return func() value {
			a, b := left(), right()
			if a.k == lang.TInteger && b.k == lang.TInteger {
				in.charge(1)
				return intV(a.i * b.i)
			}
			in.charge(2)
			return realV(a.toReal() * b.toReal())
		}
	default:
		return func() value { return in.binaryOp(x, op, left(), right()) }
	}
}

// binaryOp applies a comparison or an arithmetic operator.
func (in *Interp) binaryOp(x *lang.Binary, op lang.Op, l, r value) value {
	if op.IsComparison() {
		in.charge(1)
		if l.k == lang.TLogical || r.k == lang.TLogical {
			switch op {
			case lang.OpEq:
				return boolV(l.b == r.b)
			case lang.OpNe:
				return boolV(l.b != r.b)
			}
		}
		if l.k == lang.TInteger && r.k == lang.TInteger {
			return boolV(cmpInt(op, l.i, r.i))
		}
		return boolV(cmpReal(op, l.toReal(), r.toReal()))
	}

	// Arithmetic.
	if l.k == lang.TInteger && r.k == lang.TInteger {
		in.charge(1)
		switch op {
		case lang.OpAdd:
			return intV(l.i + r.i)
		case lang.OpSub:
			return intV(l.i - r.i)
		case lang.OpMul:
			return intV(l.i * r.i)
		case lang.OpDiv:
			in.charge(7)
			if r.i == 0 {
				in.fail(x.Pos(), "integer division by zero")
			}
			return intV(l.i / r.i)
		case lang.OpPow:
			in.charge(7)
			return intV(ipow(l.i, r.i))
		}
	}
	in.charge(2)
	lf, rf := l.toReal(), r.toReal()
	switch op {
	case lang.OpAdd:
		return realV(lf + rf)
	case lang.OpSub:
		return realV(lf - rf)
	case lang.OpMul:
		return realV(lf * rf)
	case lang.OpDiv:
		in.charge(6)
		return realV(lf / rf)
	case lang.OpPow:
		in.charge(10)
		return realV(math.Pow(lf, rf))
	}
	in.fail(x.Pos(), "cannot apply %s", op)
	return value{}
}

func cmpInt(op lang.Op, a, b int64) bool {
	switch op {
	case lang.OpEq:
		return a == b
	case lang.OpNe:
		return a != b
	case lang.OpLt:
		return a < b
	case lang.OpLe:
		return a <= b
	case lang.OpGt:
		return a > b
	case lang.OpGe:
		return a >= b
	}
	return false
}

func cmpReal(op lang.Op, a, b float64) bool {
	switch op {
	case lang.OpEq:
		return a == b
	case lang.OpNe:
		return a != b
	case lang.OpLt:
		return a < b
	case lang.OpLe:
		return a <= b
	case lang.OpGt:
		return a > b
	case lang.OpGe:
		return a >= b
	}
	return false
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

// intrinsic lowers an intrinsic call. Its arguments are evaluated into one
// buffer per call site: an expression cannot re-enter itself, so the
// buffer is never live twice.
func (l *lowerer) intrinsic(x *lang.ArrayRef) exprFn {
	in := l.in
	argFns := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		argFns[i] = l.expr(a)
	}
	args := make([]value, len(x.Args))
	apply, isMod := intrinsics[x.Name], x.Name == "mod"
	return func() value {
		in.charge(8)
		allInt := true
		for i, f := range argFns {
			args[i] = f()
			if args[i].k != lang.TInteger {
				allInt = false
			}
		}
		if apply == nil {
			in.fail(x.Pos(), "unknown intrinsic %q", x.Name)
		}
		if isMod && allInt && args[1].i == 0 {
			in.fail(x.Pos(), "mod by zero")
		}
		return apply(args, allInt)
	}
}

// intrinsics apply an intrinsic to evaluated arguments; allInt reports
// whether every argument is an integer.
var intrinsics = map[string]func(args []value, allInt bool) value{
	"mod": func(args []value, allInt bool) value {
		if allInt {
			return intV(args[0].i % args[1].i)
		}
		return realV(math.Mod(args[0].toReal(), args[1].toReal()))
	},
	"min": func(args []value, allInt bool) value { return extremum(args, allInt, -1) },
	"max": func(args []value, allInt bool) value { return extremum(args, allInt, 1) },
	"abs": func(args []value, allInt bool) value {
		if allInt {
			if args[0].i < 0 {
				return intV(-args[0].i)
			}
			return args[0]
		}
		return realV(math.Abs(args[0].toReal()))
	},
	"sqrt": realFn(math.Sqrt),
	"sin":  realFn(math.Sin),
	"cos":  realFn(math.Cos),
	"exp":  realFn(math.Exp),
	"log":  realFn(math.Log),
	"int":  func(args []value, _ bool) value { return intV(args[0].toInt()) },
	"real": func(args []value, _ bool) value { return realV(args[0].toReal()) },
}

func realFn(f func(float64) float64) func([]value, bool) value {
	return func(args []value, _ bool) value { return realV(f(args[0].toReal())) }
}

// extremum is min (sign -1) or max (sign 1) over the arguments: the first
// argument wins ties.
func extremum(args []value, allInt bool, sign int) value {
	if allInt {
		m := args[0].i
		for _, a := range args[1:] {
			if sign < 0 && a.i < m || sign > 0 && a.i > m {
				m = a.i
			}
		}
		return intV(m)
	}
	m := args[0].toReal()
	for _, a := range args[1:] {
		if f := a.toReal(); sign < 0 && f < m || sign > 0 && f > m {
			m = f
		}
	}
	return realV(m)
}

// ref lowers an array element reference to its storage, the base cost of
// one access through it, and a closure that evaluates the subscripts to a
// flat index, with the bounds check. A reference proven safe by the
// bounds-check elimination analysis skips the check and costs 2 instead
// of 3; a wrong proof would surface as an index panic in the Go runtime
// rather than silent corruption, since the flat index is still range-bound
// by the backing slice. A name that is not an array gives a nil array and
// an index closure that fails.
func (l *lowerer) ref(x *lang.ArrayRef) (*array, uint64, func() int64) {
	in := l.in
	sym := l.scope.Lookup(x.Name)
	if sym == nil || sym.Kind != sem.ArraySym {
		return nil, 0, func() int64 {
			in.fail(x.NamePos, "not an array: %q", x.Name)
			return 0
		}
	}
	a := in.arrays[sym]
	checked, cost := true, uint64(3)
	if in.opts.SafeRefs[x] {
		checked, cost = false, 2
	}
	dims := sym.Dims
	subs := make([]exprFn, len(dims))
	strides := make([]int64, len(dims))
	stride := int64(1)
	for d := range dims {
		subs[d] = l.expr(x.Args[d])
		strides[d] = stride
		stride *= dims[d].Size()
	}
	outOfBounds := func(d int, s int64) {
		in.fail(x.NamePos, "subscript %d of %q out of bounds: %d not in [%d:%d]",
			d+1, x.Name, s, dims[d].Lo, dims[d].Hi)
	}
	if len(dims) == 1 {
		sub, lo, hi := subs[0], dims[0].Lo, dims[0].Hi
		return a, cost, func() int64 {
			s := sub().toInt()
			if checked && (s < lo || s > hi) {
				outOfBounds(0, s)
			}
			return s - lo
		}
	}
	return a, cost, func() int64 {
		var idx int64
		for d, sub := range subs {
			s := sub().toInt()
			if checked && (s < dims[d].Lo || s > dims[d].Hi) {
				outOfBounds(d, s)
			}
			idx += (s - dims[d].Lo) * strides[d]
		}
		return idx
	}
}

// access reports one array element access to the observer and returns
// its cost: base cost c, and under the locality model -1 for a sequential
// access (cache hit) or +5 for a non-sequential one (miss). The common
// case, with neither, stays small enough to inline.
func (in *Interp) access(a *array, idx int64, c uint64, write bool) uint64 {
	if in.obsDepth > 0 || in.opts.LocalityModel {
		return in.accessSlow(a, idx, c, write)
	}
	return c
}

func (in *Interp) accessSlow(a *array, idx int64, c uint64, write bool) uint64 {
	if in.obsDepth > 0 {
		in.obsAccess(a.sym, idx, write)
	}
	if in.opts.LocalityModel {
		if a.seen && (idx == a.last+1 || idx == a.last) {
			c--
		} else {
			c += 5
		}
		a.last, a.seen = idx, true
	}
	return c
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

// assign lowers an assignment: the value of rhs is stored into lhs.
func (l *lowerer) assign(lhs lang.Expr, rhs exprFn) stmtFn {
	in := l.in
	switch lhs := lhs.(type) {
	case *lang.Ident:
		sym := l.scope.Lookup(lhs.Name)
		if sym == nil || sym.Kind != sem.ScalarSym {
			return func() (signal, int) {
				rhs()
				in.charge(1)
				in.fail(lhs.NamePos, "cannot assign to %q", lhs.Name)
				return sigNone, 0
			}
		}
		p, t := l.scalar(sym), sym.Type
		return func() (signal, int) {
			v := rhs()
			in.charge(1)
			if in.obsDepth > 0 {
				in.obsAccess(sym, -1, true)
			}
			*p = convert(v, t)
			return sigNone, 0
		}
	case *lang.ArrayRef:
		a, cost, index := l.ref(lhs)
		if a == nil {
			return func() (signal, int) {
				rhs()
				index()
				return sigNone, 0
			}
		}
		switch a.sym.Type {
		case lang.TInteger:
			return func() (signal, int) {
				v, idx := rhs(), index()
				in.charge(in.access(a, idx, cost, true))
				a.ints[idx] = v.toInt()
				return sigNone, 0
			}
		case lang.TReal:
			return func() (signal, int) {
				v, idx := rhs(), index()
				in.charge(in.access(a, idx, cost, true))
				a.reals[idx] = v.toReal()
				return sigNone, 0
			}
		default:
			return func() (signal, int) {
				v, idx := rhs(), index()
				in.charge(in.access(a, idx, cost, true))
				a.bools[idx] = v.b
				return sigNone, 0
			}
		}
	}
	return func() (signal, int) {
		rhs()
		in.fail(lhs.Pos(), "invalid assignment target")
		return sigNone, 0
	}
}
