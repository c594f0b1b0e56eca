package interp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/machine"
)

// accessSrc's last loop runs eight iterations of about 40,000 simulated
// cycles each, one per chunk at P=8, which puts the region above the work
// threshold. Its seventh iteration runs a case's statements on line 28,
// where the loop variable i is 7, idx(i) is 7, the PARAM zero is 0 and k
// is 0.
const accessSrc = `program p
  param n = 8
  param zero = 0
  integer i, j, j2, j3, k, m, idx(n), ia(4), ib(3, 4), ic(2, 3, 4)
  real s, w, r, ra(-2:1)
  logical la(4)
  do i = 1, n
    idx(i) = i
  end do
  do j = 1, 4
    ia(j) = j
    ra(j - 3) = real(j) / 2.0
    la(j) = j > 2
    do j2 = 1, 3
      ib(j2, j) = 10 * j2 + j
      do j3 = 1, 2
        ic(j3, j2, j) = 100 * j3 + 10 * j2 + j
      end do
    end do
  end do
  do i = 1, n
    w = 0.0
    do j = 1, 5000
      w = w + 1.0
    end do
    s = s + w
    if (i == 7) then
%s
    end if
  end do
end
`

// accessCases are array references of rank 1, 2 and 3, with leaf
// subscripts (the loop variable, a PARAM, a literal) and computed ones, as
// loads and stores, each subscript out of bounds low and high. checked is
// what the run gives: an error, or m, r and the elements that differ from
// the initial memory, by flat index. safe is what it gives with every
// reference in SafeRefs: the flat index is not checked, so it either names
// another element or is the Go runtime's index panic.
var accessCases = []struct{ stmt, checked, safe string }{
	// Rank 1.
	{"m = ia(i)",
		`28:5: runtime error: subscript 1 of "ia" out of bounds: 7 not in [1:4]`,
		"panic: runtime error: index out of range [6] with length 4"},
	{"m = ia(zero)",
		`28:5: runtime error: subscript 1 of "ia" out of bounds: 0 not in [1:4]`,
		"panic: runtime error: index out of range [-1]"},
	{"m = ia(idx(i) - 3)", "m=4 r=0", "m=4 r=0"},
	{"m = ia(idx(i) + 1)",
		`28:5: runtime error: subscript 1 of "ia" out of bounds: 8 not in [1:4]`,
		"panic: runtime error: index out of range [7] with length 4"},
	{"ia(i) = 5",
		`28:1: runtime error: subscript 1 of "ia" out of bounds: 7 not in [1:4]`,
		"panic: runtime error: index out of range [6] with length 4"},
	{"ia(idx(i) - 7) = 5",
		`28:1: runtime error: subscript 1 of "ia" out of bounds: 0 not in [1:4]`,
		"panic: runtime error: index out of range [-1]"},
	{"ia(idx(i) - 6) = 5", "m=0 r=0 ia[0]=5", "m=0 r=0 ia[0]=5"},
	{"r = ra(idx(i) - 8)", "m=0 r=1", "m=0 r=1"},
	{"r = ra(zero - 3)",
		`28:5: runtime error: subscript 1 of "ra" out of bounds: -3 not in [-2:1]`,
		"panic: runtime error: index out of range [-1]"},
	{"ra(i) = 1.5",
		`28:1: runtime error: subscript 1 of "ra" out of bounds: 7 not in [-2:1]`,
		"panic: runtime error: index out of range [9] with length 4"},
	{"ra(zero) = 2.5", "m=0 r=0 ra[2]=2.5", "m=0 r=0 ra[2]=2.5"},
	{"la(idx(i) - 6) = true", "m=0 r=0 la[0]=true", "m=0 r=0 la[0]=true"},
	{"la(i) = true",
		`28:1: runtime error: subscript 1 of "la" out of bounds: 7 not in [1:4]`,
		"panic: runtime error: index out of range [6] with length 4"},
	// Rank 2, leaf subscripts.
	{"m = ib(3, 4)", "m=34 r=0", "m=34 r=0"},
	{"m = ib(i, 1)",
		`28:5: runtime error: subscript 1 of "ib" out of bounds: 7 not in [1:3]`,
		"m=13 r=0"},
	{"m = ib(1, i)",
		`28:5: runtime error: subscript 2 of "ib" out of bounds: 7 not in [1:4]`,
		"panic: runtime error: index out of range [18] with length 12"},
	{"m = ib(zero, 1)",
		`28:5: runtime error: subscript 1 of "ib" out of bounds: 0 not in [1:3]`,
		"panic: runtime error: index out of range [-1]"},
	{"m = ib(1, zero)",
		`28:5: runtime error: subscript 2 of "ib" out of bounds: 0 not in [1:4]`,
		"panic: runtime error: index out of range [-3]"},
	{"ib(i, 1) = 5",
		`28:1: runtime error: subscript 1 of "ib" out of bounds: 7 not in [1:3]`,
		"m=0 r=0 ib[6]=5"},
	{"ib(2, zero) = 5",
		`28:1: runtime error: subscript 2 of "ib" out of bounds: 0 not in [1:4]`,
		"panic: runtime error: index out of range [-2]"},
	// Rank 2, computed subscripts.
	{"m = ib(zero + 3, i - 3)", "m=34 r=0", "m=34 r=0"},
	{"m = ib(1, idx(i) - 2)",
		`28:5: runtime error: subscript 2 of "ib" out of bounds: 5 not in [1:4]`,
		"panic: runtime error: index out of range [12] with length 12"},
	{"ib(idx(i) - 5, idx(i) - 3) = 5", "m=0 r=0 ib[10]=5", "m=0 r=0 ib[10]=5"},
	{"ib(idx(i) - 7, 1) = 5",
		`28:1: runtime error: subscript 1 of "ib" out of bounds: 0 not in [1:3]`,
		"panic: runtime error: index out of range [-1]"},
	// Rank 3.
	{"m = ic(1, 1, i)",
		`28:5: runtime error: subscript 3 of "ic" out of bounds: 7 not in [1:4]`,
		"panic: runtime error: index out of range [36] with length 24"},
	{"m = ic(zero, 1, 1)",
		`28:5: runtime error: subscript 1 of "ic" out of bounds: 0 not in [1:2]`,
		"panic: runtime error: index out of range [-1]"},
	{"m = ic(1, idx(i) - 3, 1)",
		`28:5: runtime error: subscript 2 of "ic" out of bounds: 4 not in [1:3]`,
		"m=112 r=0"},
	{"m = ic(2, 3, idx(i) - 3)", "m=234 r=0", "m=234 r=0"},
	{"ic(idx(i) - 5, i - 4, 4) = 5", "m=0 r=0 ic[23]=5", "m=0 r=0 ic[23]=5"},
	{"ic(2, i, 1) = 5",
		`28:1: runtime error: subscript 2 of "ic" out of bounds: 7 not in [1:3]`,
		"m=0 r=0 ic[13]=5"},
	{"ic(1, 1, zero) = 5",
		`28:1: runtime error: subscript 3 of "ic" out of bounds: 0 not in [1:4]`,
		"panic: runtime error: index out of range [-6]"},
	// Order: a store's right side runs before its subscripts, and each
	// subscript is checked before the next one runs.
	{"ia(i) = 1 / k",
		`28:9: runtime error: integer division by zero`,
		`28:9: runtime error: integer division by zero`},
	{"ia(1 / k) = ia(i)",
		`28:13: runtime error: subscript 1 of "ia" out of bounds: 7 not in [1:4]`,
		"panic: runtime error: index out of range [6] with length 4"},
	{"m = ib(zero, 1 / k)",
		`28:5: runtime error: subscript 1 of "ib" out of bounds: 0 not in [1:3]`,
		`28:14: runtime error: integer division by zero`},
	{"ib(zero, 1 / k) = 5",
		`28:1: runtime error: subscript 1 of "ib" out of bounds: 0 not in [1:3]`,
		`28:10: runtime error: integer division by zero`},
	{"m = ic(1, 1 / k, zero)",
		`28:11: runtime error: integer division by zero`,
		`28:11: runtime error: integer division by zero`},
}

// TestArrayAccessErrors pins what each array access in accessCases gives,
// checked and with every reference in SafeRefs: at P=1, inside a region
// above the work threshold at P=8 (when GOMAXPROCS allows a second
// goroutine), and at P=8 with an empty Observer and with the locality
// model, whose accesses go through Interp.touch.
func TestArrayAccessErrors(t *testing.T) {
	p8 := func() *machine.Machine { return machine.New(machine.Origin2000, 8) }
	modes := []struct {
		name string
		opts func() Options
	}{
		{"P=1", func() Options { return Options{} }},
		{"region", func() Options { return Options{Machine: p8()} }},
		{"observed", func() Options { return Options{Machine: p8(), Observe: &Observer{}} }},
		{"locality", func() Options { return Options{Machine: p8(), LocalityModel: true} }},
	}
	in0, _ := runAccess(t, "m = 0", Options{}, false)
	initial := accessMemory(in0)
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			before := offCallerChunks.Load()
			if mode.name == "region" {
				needCores(t)
			}
			for _, c := range accessCases {
				for _, safe := range []bool{false, true} {
					in, got := runAccess(t, c.stmt, mode.opts(), safe)
					if got == "" {
						got = accessResult(in, initial)
					}
					want := c.checked
					if safe {
						want = c.safe
					}
					if got != want {
						t.Errorf("%q, safe %v:\n got %s\nwant %s", c.stmt, safe, got, want)
					}
				}
			}
			if mode.name == "region" && offCallerChunks.Load() == before {
				t.Error("every chunk ran on the calling goroutine")
			}
		})
	}
}

// runAccess runs accessSrc with stmt in its seventh iteration, forced
// parallel, and with every array reference in SafeRefs when safe is set. It
// returns the interpreter, and the error, or the Go runtime panic prefixed
// with "panic: ", or "" when the run succeeded.
func runAccess(t *testing.T, stmt string, opts Options, safe bool) (in *Interp, got string) {
	t.Helper()
	info := forceLast(t, fmt.Sprintf(accessSrc, stmt))
	if safe {
		opts.SafeRefs = arrayRefs(info.Program)
	}
	in = New(info, opts)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(runtime.Error); !ok {
				panic(r)
			}
			got = fmt.Sprint("panic: ", r)
		}
	}()
	if err := in.Run(); err != nil {
		return in, err.Error()
	}
	return in, ""
}

// accessMemory renders every element of the arrays a case may change, by
// flat index.
func accessMemory(in *Interp) []string {
	var mem []string
	for _, name := range []string{"ia", "ib", "ic"} {
		vals, _ := in.GlobalArrayInt(name)
		for f, v := range vals {
			mem = append(mem, fmt.Sprintf("%s[%d]=%d", name, f, v))
		}
	}
	vals, _ := in.GlobalArrayReal("ra")
	for f, v := range vals {
		mem = append(mem, fmt.Sprintf("ra[%d]=%g", f, v))
	}
	a, _ := in.globalArray("la", lang.TLogical)
	for f, v := range a.bools {
		mem = append(mem, fmt.Sprintf("la[%d]=%t", f, v))
	}
	return mem
}

// accessResult renders m, r and the elements that differ from initial.
func accessResult(in *Interp, initial []string) string {
	m, _ := in.GlobalInt("m")
	r, _ := in.GlobalReal("r")
	parts := []string{fmt.Sprintf("m=%d r=%g", m, r)}
	for i, e := range accessMemory(in) {
		if e != initial[i] {
			parts = append(parts, e)
		}
	}
	return strings.Join(parts, " ")
}
