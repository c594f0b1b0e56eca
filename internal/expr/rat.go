package expr

import (
	"fmt"
	"math"
)

// rat is a rational coefficient n/d with d >= 1, kept normalized. Rational
// coefficients appear only through provably exact division (e.g. the
// triangular form i*(i-1)/2, whose divisibility by 2 follows from parity);
// truncating integer division otherwise stays an opaque atom.
//
// Arithmetic is checked: an int64 overflow yields ratInvalid instead of
// silently wrapping, and the Expr operations degrade any result carrying an
// invalid coefficient to an opaque atom (a sound "unknown"). ratInvalid has
// a nonzero numerator on purpose — isZero must stay false so a merge never
// silently drops an overflowed term before the degrade check sees it.
type rat struct {
	n, d int64
}

// ratInvalid marks an overflowed coefficient (the only rat with d == 0).
var ratInvalid = rat{1, 0}

func ratInt(n int64) rat { return rat{n, 1} }

func (r rat) invalid() bool { return r.d == 0 }

func (r rat) norm() rat {
	if r.d == 0 {
		return ratInvalid
	}
	if r.n == 0 {
		return rat{0, 1}
	}
	if r.d < 0 {
		r.n, r.d = -r.n, -r.d
	}
	g := gcdAbs(r.n, r.d)
	if g > 1 {
		r.n /= g
		r.d /= g
	}
	return r
}

func gcdAbs(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (r rat) isZero() bool { return r.n == 0 && r.d != 0 }
func (r rat) isInt() bool  { return r.d == 1 }
func (r rat) sign() int {
	switch {
	case r.d == 0:
		return 0 // invalid: no usable sign
	case r.n > 0:
		return 1
	case r.n < 0:
		return -1
	default:
		return 0
	}
}

// addOvf adds two int64s, reporting overflow.
func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulOvf multiplies two int64s, reporting overflow.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	// MinInt64 * -1 wraps back to MinInt64, so the division check below
	// would miss it.
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func (r rat) add(o rat) rat {
	if r.invalid() || o.invalid() {
		return ratInvalid
	}
	ad, ok1 := mulOvf(r.n, o.d)
	bc, ok2 := mulOvf(o.n, r.d)
	if !ok1 || !ok2 {
		return ratInvalid
	}
	n, ok3 := addOvf(ad, bc)
	d, ok4 := mulOvf(r.d, o.d)
	if !ok3 || !ok4 {
		return ratInvalid
	}
	return rat{n, d}.norm()
}

func (r rat) sub(o rat) rat { return r.add(o.neg()) }

func (r rat) mul(o rat) rat {
	if r.invalid() || o.invalid() {
		return ratInvalid
	}
	n, ok1 := mulOvf(r.n, o.n)
	d, ok2 := mulOvf(r.d, o.d)
	if !ok1 || !ok2 {
		return ratInvalid
	}
	return rat{n, d}.norm()
}

func (r rat) neg() rat {
	if r.invalid() || r.n == math.MinInt64 {
		return ratInvalid
	}
	return rat{-r.n, r.d}
}

// divInt divides by a nonzero integer.
func (r rat) divInt(c int64) rat {
	if r.invalid() {
		return ratInvalid
	}
	d, ok := mulOvf(r.d, c)
	if !ok || d == 0 {
		return ratInvalid
	}
	return rat{r.n, d}.norm()
}

func (r rat) String() string {
	if r.d == 1 {
		return fmt.Sprintf("%d", r.n)
	}
	return fmt.Sprintf("%d/%d", r.n, r.d)
}

// lcm64 returns the least common multiple (inputs positive), or 0 on
// overflow — callers treat a 0 denominator as "cannot scale".
func lcm64(a, b int64) int64 {
	m, ok := mulOvf(a/gcdAbs(a, b), b)
	if !ok {
		return 0
	}
	return m
}
