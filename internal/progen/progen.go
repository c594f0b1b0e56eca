// Package progen generates random, well-formed, terminating F-lite
// programs for differential testing: the same program must produce the
// same results (all global scalars and arrays) before and after the
// transformation pipeline, and — once parallelized — at every processor
// count and chunk schedule.
//
// Generated programs are built from the idioms the analyses target:
// affine fill loops, scalar reductions, index-gathering loops with
// indirect uses, stack push/pop regions, conditional updates, while-loop
// countdowns and subroutine calls. All subscripts are in bounds by
// construction and every loop terminates.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated program.
type Config struct {
	// N is the array extent (default 32).
	N int
	// MaxBlocks is the number of top-level constructs (default 6).
	MaxBlocks int
	// Subroutines enables a generated helper subroutine.
	Subroutines bool
}

// Generate builds a random F-lite program as source text.
func Generate(r *rand.Rand, cfg Config) string {
	if cfg.N <= 0 {
		cfg.N = 32
	}
	if cfg.MaxBlocks <= 0 {
		cfg.MaxBlocks = 6
	}
	g := &gen{r: r, cfg: cfg}
	return g.program()
}

type gen struct {
	r   *rand.Rand
	cfg Config

	body     strings.Builder
	hasSub   bool
	blockIdx int
}

const (
	realArrays = 3 // a1..a3
	intArrays  = 2 // n1..n2 (index arrays)
	scalars    = 3 // s1..s3
)

func (g *gen) rint(n int) int { return g.r.Intn(n) }

// pick returns a random element.
func pick[T any](g *gen, xs []T) T { return xs[g.rint(len(xs))] }

func (g *gen) realArray() string { return fmt.Sprintf("a%d", 1+g.rint(realArrays)) }
func (g *gen) scalar() string    { return fmt.Sprintf("s%d", 1+g.rint(scalars)) }

// realExpr builds a side-effect-free real expression over the loop variable
// v (may be "") and the declared arrays/scalars, depth-bounded.
func (g *gen) realExpr(v string, depth int) string {
	if depth <= 0 {
		switch g.rint(4) {
		case 0:
			return fmt.Sprintf("%d.%d", g.rint(9), g.rint(10))
		case 1:
			return g.scalar()
		case 2:
			if v != "" {
				return fmt.Sprintf("real(%s)", v)
			}
			return "1.5"
		default:
			if v != "" {
				return fmt.Sprintf("%s(%s)", g.realArray(), v)
			}
			return fmt.Sprintf("%s(%d)", g.realArray(), 1+g.rint(g.cfg.N))
		}
	}
	x := g.realExpr(v, depth-1)
	y := g.realExpr(v, depth-1)
	switch g.rint(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	case 2:
		return fmt.Sprintf("(%s * %s)", x, y)
	case 3:
		return fmt.Sprintf("(%s / (abs(%s) + 1.0))", x, y)
	case 4:
		return fmt.Sprintf("min(%s, %s)", x, y)
	default:
		return fmt.Sprintf("abs(%s)", x)
	}
}

// intExpr builds an in-bounds subscript expression over the loop var.
func (g *gen) safeSubscript(v string) string {
	switch g.rint(4) {
	case 0:
		return v
	case 1:
		// N+1-v stays within [1:N].
		return fmt.Sprintf("%d + 1 - %s", g.cfg.N, v)
	case 2:
		return fmt.Sprintf("mod(%s * %d, %d) + 1", v, 1+g.rint(5), g.cfg.N)
	default:
		return fmt.Sprintf("%d", 1+g.rint(g.cfg.N))
	}
}

func (g *gen) line(w *strings.Builder, depth int, format string, args ...any) {
	for i := 0; i < depth; i++ {
		w.WriteString("  ")
	}
	fmt.Fprintf(w, format, args...)
	w.WriteByte('\n')
}

// program emits the full source.
func (g *gen) program() string {
	nBlocks := 2 + g.rint(g.cfg.MaxBlocks)
	for b := 0; b < nBlocks; b++ {
		g.blockIdx = b
		g.block(&g.body, 1)
	}

	var sb strings.Builder
	sb.WriteString("program fuzz\n")
	g.line(&sb, 1, "param nn = %d", g.cfg.N)
	for i := 1; i <= realArrays; i++ {
		g.line(&sb, 1, "real a%d(nn)", i)
	}
	for i := 1; i <= intArrays; i++ {
		g.line(&sb, 1, "integer n%d(nn)", i)
	}
	for i := 1; i <= scalars; i++ {
		g.line(&sb, 1, "real s%d", i)
	}
	sb.WriteString("  integer i, j, k, q, p, w\n")
	sb.WriteString("  real acc\n")

	// Deterministic initialisation so results are data-dependent but
	// reproducible.
	g.line(&sb, 1, "do i = 1, nn")
	g.line(&sb, 2, "a1(i) = real(mod(i * 7, 11)) - 4.0")
	g.line(&sb, 2, "a2(i) = real(mod(i * 3, 5)) * 0.5")
	g.line(&sb, 2, "a3(i) = real(i) * 0.125")
	g.line(&sb, 2, "n1(i) = mod(i * 5, nn) + 1")
	g.line(&sb, 2, "n2(i) = i")
	g.line(&sb, 1, "end do")

	sb.WriteString(g.body.String())

	// Final observable accumulation over everything.
	g.line(&sb, 1, "acc = 0.0")
	g.line(&sb, 1, "do i = 1, nn")
	for a := 1; a <= realArrays; a++ {
		g.line(&sb, 2, "acc = acc + a%d(i)", a)
	}
	for a := 1; a <= intArrays; a++ {
		g.line(&sb, 2, "acc = acc + real(n%d(i)) * 0.001", a)
	}
	g.line(&sb, 1, "end do")
	g.line(&sb, 1, "print \"acc\", acc")
	sb.WriteString("end\n")

	if g.hasSub {
		sb.WriteString("\nsubroutine helper\n")
		sb.WriteString("  integer hi\n")
		g.line(&sb, 1, "do hi = 1, nn")
		g.line(&sb, 2, "a3(hi) = a3(hi) * 0.5 + 1.0")
		g.line(&sb, 1, "end do")
		sb.WriteString("end\n")
	}
	return sb.String()
}

// block emits one random top-level construct.
func (g *gen) block(w *strings.Builder, depth int) {
	switch g.rint(9) {
	case 0:
		g.fillLoop(w, depth)
	case 1:
		g.reductionLoop(w, depth)
	case 2:
		g.gatherUse(w, depth)
	case 3:
		g.stackRegion(w, depth)
	case 4:
		g.whileCountdown(w, depth)
	case 5:
		g.conditionalUpdate(w, depth)
	case 6:
		g.scalarChain(w, depth)
	case 7:
		g.gotoLoop(w, depth)
	default:
		if g.cfg.Subroutines {
			g.hasSub = true
			g.line(w, depth, "call helper")
		} else {
			g.fillLoop(w, depth)
		}
	}
}

// gotoLoop: a goto-formed countdown (natural loop without DO/WHILE syntax),
// exercising label handling in every layer.
func (g *gen) gotoLoop(w *strings.Builder, depth int) {
	label := 100 + g.blockIdx*10
	arr := g.realArray()
	g.line(w, depth, "w = %d", 2+g.rint(g.cfg.N-2))
	g.line(w, depth, "%d continue", label)
	g.line(w, depth, "%s(w) = %s(w) * 0.5 + 1.0", arr, arr)
	g.line(w, depth, "w = w - 1")
	g.line(w, depth, "if (w >= 1) goto %d", label)
}

// fillLoop: affine writes, possibly reading other arrays.
func (g *gen) fillLoop(w *strings.Builder, depth int) {
	arr := g.realArray()
	v := pick(g, []string{"i", "j", "k"})
	g.line(w, depth, "do %s = 1, nn", v)
	g.line(w, depth+1, "%s(%s) = %s", arr, v, g.realExpr(v, 1+g.rint(2)))
	if g.rint(2) == 0 {
		g.line(w, depth+1, "%s(%s) = %s(%s) * 0.75 + 0.25", arr, v, arr, v)
	}
	g.line(w, depth, "end do")
}

// reductionLoop: acc-style sum or min/max.
func (g *gen) reductionLoop(w *strings.Builder, depth int) {
	s := g.scalar()
	v := pick(g, []string{"i", "j"})
	g.line(w, depth, "%s = %d.0", s, g.rint(3))
	g.line(w, depth, "do %s = 1, nn", v)
	switch g.rint(3) {
	case 0:
		g.line(w, depth+1, "%s = %s + %s", s, s, g.realExpr(v, 1))
	case 1:
		g.line(w, depth+1, "%s = max(%s, %s(%s))", s, s, g.realArray(), v)
	default:
		g.line(w, depth+1, "%s = min(%s, %s(%s) + 0.5)", s, s, g.realArray(), v)
	}
	g.line(w, depth, "end do")
}

// gatherUse: index gathering followed by an indirect use — the Fig. 14
// idiom.
func (g *gen) gatherUse(w *strings.Builder, depth int) {
	src := g.realArray()
	dst := g.realArray()
	thr := fmt.Sprintf("%d.%d", g.rint(3), g.rint(10))
	g.line(w, depth, "q = 0")
	g.line(w, depth, "do i = 1, nn")
	g.line(w, depth+1, "if (%s(i) > %s) then", src, thr)
	g.line(w, depth+2, "q = q + 1")
	g.line(w, depth+2, "n1(q) = i")
	g.line(w, depth+1, "end if")
	g.line(w, depth, "end do")
	g.line(w, depth, "do j = 1, q")
	g.line(w, depth+1, "%s(n1(j)) = %s(n1(j)) + 1.0", dst, dst)
	g.line(w, depth, "end do")
}

// stackRegion: bounded push/pop with the Table 1 discipline.
func (g *gen) stackRegion(w *strings.Builder, depth int) {
	g.line(w, depth, "do k = 1, %d", 2+g.rint(4))
	g.line(w, depth+1, "p = 0")
	g.line(w, depth+1, "do j = 1, nn")
	g.line(w, depth+2, "if (a1(j) > 0.0) then")
	g.line(w, depth+3, "p = p + 1")
	g.line(w, depth+3, "a3(p) = a1(j) + real(k)")
	g.line(w, depth+2, "else")
	g.line(w, depth+3, "if (p >= 1) then")
	g.line(w, depth+4, "a2(j) = a3(p)")
	g.line(w, depth+4, "p = p - 1")
	g.line(w, depth+3, "end if")
	g.line(w, depth+2, "end if")
	g.line(w, depth+1, "end do")
	g.line(w, depth, "end do")
}

// whileCountdown: a terminating while loop.
func (g *gen) whileCountdown(w *strings.Builder, depth int) {
	g.line(w, depth, "w = %d", 3+g.rint(g.cfg.N-3))
	g.line(w, depth, "do while (w >= 1)")
	g.line(w, depth+1, "a%d(w) = a%d(w) + 0.5", 1+g.rint(realArrays), 1+g.rint(realArrays))
	g.line(w, depth+1, "w = w - %d", 1+g.rint(2))
	g.line(w, depth, "end do")
}

// conditionalUpdate: branching writes through safe subscripts.
func (g *gen) conditionalUpdate(w *strings.Builder, depth int) {
	arr := g.realArray()
	v := pick(g, []string{"i", "k"})
	g.line(w, depth, "do %s = 1, nn", v)
	g.line(w, depth+1, "if (mod(%s, %d) == 0) then", v, 2+g.rint(3))
	g.line(w, depth+2, "%s(%s) = %s", arr, g.safeSubscript(v), g.realExpr(v, 1))
	if g.rint(2) == 0 {
		g.line(w, depth+1, "else if (%s(%s) < 2.0) then", arr, v)
		g.line(w, depth+2, "%s(%s) = %s(%s) + 0.125", arr, v, arr, v)
	}
	g.line(w, depth+1, "end if")
	g.line(w, depth, "end do")
}

// scalarChain: straight-line scalar arithmetic (constant propagation and
// forward substitution fodder).
func (g *gen) scalarChain(w *strings.Builder, depth int) {
	a, b, c := g.scalar(), g.scalar(), g.scalar()
	g.line(w, depth, "%s = %d.0", a, 1+g.rint(5))
	g.line(w, depth, "%s = %s * 2.0 + 1.0", b, a)
	g.line(w, depth, "%s = %s - %s", c, b, a)
	g.line(w, depth, "a1(%d) = %s", 1+g.rint(g.cfg.N), c)
}
