package interp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/comperr"
	"repro/internal/lang"
	"repro/internal/sem"
)

func TestIntegerPowMatchesRepeatedMultiplication(t *testing.T) {
	for base := int64(-3); base <= 3; base++ {
		want := int64(1)
		for exp := int64(0); exp <= 70; exp++ {
			if got := ipow(base, exp); got != want {
				t.Fatalf("ipow(%d, %d) = %d, want %d", base, exp, got, want)
			}
			want *= base
		}
		if got := ipow(base, -1); got != 0 {
			t.Errorf("ipow(%d, -1) = %d, want 0", base, got)
		}
	}
}

// TestIntegerPowHugeExponentFinishes raises 2 to an exponent of 4e18. The
// power is one step, so it must not take time proportional to the
// exponent: the step limit and the context could not stop it.
func TestIntegerPowHugeExponentFinishes(t *testing.T) {
	src := `
program p
  integer a(2), k, n
  a(1) = 2
  a(2) = 4000000000000000000
  k = a(2)
  n = a(1) ** k
end
`
	info := check(t, src)
	in := New(info, Options{})
	done := make(chan error, 1)
	go func() { done <- in.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := in.GlobalInt("n"); n != 0 {
			t.Errorf("n = %d, want 0 (2**4e18 wraps to 0)", n)
		}
	case <-time.After(time.Second):
		t.Fatal("2 ** 4e18 did not finish within 1s")
	}
}

func check(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestHugeArrayIsResourceLimit declares arrays over the run's storage
// bound: Run fails with a resource-limit error and allocates nothing.
func TestHugeArrayIsResourceLimit(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"1-D over the bound", `
program p
  real a(4000000000)
  a(1) = 1.0
end
`},
		{"3-D product overflows int64", `
program p
  real a(3000000000, 3000000000, 3000000000)
  a(1, 1, 1) = 1.0
end
`},
		{"local arrays over the bound together", `
program p
  real a(9000000)
  call s
end
subroutine s
  integer b(9000000)
  b(1) = 1
end
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := New(check(t, tc.src), Options{})
			if err := in.Run(); !errors.Is(err, comperr.ErrResourceLimit) {
				t.Fatalf("Run = %v, want a resource-limit error", err)
			}
			if _, err := in.GlobalArrayReal("a"); err == nil {
				t.Error("a was allocated")
			}
		})
	}
}
