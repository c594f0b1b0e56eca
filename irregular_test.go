package irregular

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

const demoSrc = `
program demo
  param n = 128
  real a(n), b(n)
  integer i
  real total
  do i = 1, n
    b(i) = real(mod(i * 3, 7))
  end do
  total = 0.0
  do i = 1, n
    a(i) = b(i) * 2.0
    total = total + a(i)
  end do
  print "total", total
end
`

func TestCompileAndRun(t *testing.T) {
	res, err := Compile(demoSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Summary(), "PARALLEL") {
		t.Errorf("expected a parallel loop:\n%s", res.Summary())
	}
	var buf bytes.Buffer
	out, err := res.Run(RunOptions{Processors: 4, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if out.Time == 0 {
		t.Error("no simulated time")
	}
	if !strings.Contains(buf.String(), "total") {
		t.Errorf("print output missing: %q", buf.String())
	}
	total, err := out.Global("total")
	if err != nil || total <= 0 {
		t.Errorf("total = %v, %v", total, err)
	}
}

func TestModesDiffer(t *testing.T) {
	src, err := KernelSource("tree")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compile(src, Options{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(src, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(r *Result, p int) uint64 {
		out, err := r.Run(RunOptions{Processors: p})
		if err != nil {
			t.Fatal(err)
		}
		return out.Time
	}
	fullSeq, full8 := runAt(full, 1), runAt(full, 8)
	baseSeq, base8 := runAt(base, 1), runAt(base, 8)
	fullSpeed := float64(fullSeq) / float64(full8)
	baseSpeed := float64(baseSeq) / float64(base8)
	if fullSpeed < 2 {
		t.Errorf("full-mode tree should scale: %.2fx", fullSpeed)
	}
	if baseSpeed > 1.2 {
		t.Errorf("baseline tree should stay flat: %.2fx", baseSpeed)
	}
	// Both must agree on the result.
	fo, _ := full.Run(RunOptions{Processors: 8})
	bo, _ := base.Run(RunOptions{Processors: 8})
	fc, _ := fo.Global("checksum")
	bc, _ := bo.Global("checksum")
	if math.Abs(fc-bc) > 1e-6*math.Max(1, math.Abs(fc)) {
		t.Errorf("checksums differ: %v vs %v", fc, bc)
	}
}

func TestKernelsListed(t *testing.T) {
	ks := Kernels()
	if len(ks) != 8 {
		t.Fatalf("kernels: %v", ks)
	}
	for _, name := range ks {
		if _, err := KernelSource(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := KernelSource("nope"); err == nil {
		t.Error("expected error for unknown kernel")
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("program p\n x = \nend\n", Options{}); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Compile("program p\n x = 1\nend\n", Options{}); err == nil {
		t.Error("expected semantic error (undeclared x)")
	}
}

func TestIntraproceduralOption(t *testing.T) {
	src, err := KernelSource("dyfesm")
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	intra, err := Compile(src, Options{Intraprocedural: true})
	if err != nil {
		t.Fatal(err)
	}
	usesOffsetLength := func(r *Result) bool {
		for _, lr := range r.ParallelLoops() {
			if lr.Tests["x"] == "offset-length" {
				return true
			}
		}
		return false
	}
	if !usesOffsetLength(inter) {
		t.Error("interprocedural analysis should prove the offset-length independence")
	}
	if usesOffsetLength(intra) {
		t.Error("intraprocedural analysis must not prove the cross-unit offset-length independence")
	}
}

func TestBadMachineProfile(t *testing.T) {
	if err := MachineProfile("").Validate(); err != nil {
		t.Errorf("the empty profile selects Origin2000, got %v", err)
	}
	res, err := Compile(demoSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Run(RunOptions{Profile: "vax"}); !errors.Is(err, ErrParse) {
		t.Errorf("Run with profile vax: err = %v, want an ErrParse-classified error", err)
	}
}

// TestScalarPassesKeepMeaning compiles programs the scalar passes once
// rewrote into wrong code and compares their serial PRINT output with what
// the source means. Forward propagation and ipcp may let a literal or
// expression stand for a scalar only when the two have one type, or the
// assignment's implicit conversion is lost. Induction-variable
// substitution's closed form holds only for an integer counter of an
// unlabelled DO whose lower bound the body does not write.
func TestScalarPassesKeepMeaning(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{{"integer literal for a real", `
program p
  real r, y
  r = 3
  y = r / 2
  print "y", y
end
`, "y 1.5"}, {"real literal for an integer", `
program p
  real q, y
  integer k
  q = 2.5
  k = q
  y = k * 2
  print "y", y
end
`, "y 4"}, {"integer expression for a real", `
program p
  integer k, a(2)
  real r, y
  a(1) = 1
  a(2) = 4
  k = 3
  r = k + a(2)
  y = r / 2
  print "y", y
end
`, "y 3.5"}, {"real element for an integer", `
program p
  real q(2), y
  integer k
  q(1) = 2.5
  k = q(1)
  y = k * 2
  print "y", y
end
`, "y 4"}, {"integer literal for a real global", `
program p
  real r, w
  r = 3
  call work
end
subroutine work
  w = r / 2
  print "w", w
end
`, "w 1.5"}, {"lower bound the body writes", `
program p
  integer i, m, n, q
  integer x(5)
  m = 1
  n = 5
  q = 0
  do i = m, n
    q = q + 1
    m = m + 10
    x(q) = q
  end do
  print "x", x(1), x(2), x(3), x(4), x(5)
end
`, "x 1 2 3 4 5"}, {"lower bound is the counter", `
program p
  integer i, n, q
  integer x(4)
  n = 3
  q = 1
  do i = q, n
    q = q + 1
    x(q) = i
  end do
  print "x", x(1), x(2), x(3), x(4)
end
`, "x 0 1 2 3"}, {"labelled DO entered by GOTO", `
program p
  integer i, k, q
  integer x(6)
  k = 0
  q = 0
20 do i = 1, 3
    q = q + 1
    x(q) = i + k
  end do
  k = k + 10
  if (k < 20) goto 20
  print "x", x(1), x(2), x(3), x(4), x(5), x(6)
end
`, "x 1 2 3 11 12 13"}, {"real counter", `
program p
  integer i
  real q
  real x(4)
  q = 0
  do i = 1, 4
    q = q + 1
    x(i) = q / 2
  end do
  print "x", x(1), x(2), x(3), x(4)
end
`, "x 0.5 1 1.5 2"}} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Compile(tc.src, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := res.Run(RunOptions{Processors: 1, Out: &out}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := strings.TrimSpace(out.String()); got != tc.want {
				t.Errorf("printed %q, want %q", got, tc.want)
			}
		})
	}
}
