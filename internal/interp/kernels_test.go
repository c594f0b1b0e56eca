package interp_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/sem"
)

// kernelRun is what one run of a kernel leaves: its simulated time and
// regions, its output and every global array.
type kernelRun struct {
	time    uint64
	regions int
	out     string
	arrays  map[string][]uint64 // element bits, so that NaNs compare
}

func runKernel(t *testing.T, info *sem.Info, sched interp.Schedule, observe *interp.Observer) kernelRun {
	t.Helper()
	var out strings.Builder
	in := interp.New(info, interp.Options{
		Machine:  machine.New(machine.Origin2000, 8),
		Out:      &out,
		Schedule: sched,
		Poison:   true,
		Observe:  observe,
	})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	r := kernelRun{time: in.Machine().Time(), regions: in.Machine().ParallelRegions(), out: out.String(), arrays: map[string][]uint64{}}
	for name, sym := range info.Globals {
		switch {
		case sym.Kind != sem.ArraySym:
		case sym.Type == lang.TReal:
			reals, err := in.GlobalArrayReal(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range reals {
				r.arrays[name] = append(r.arrays[name], math.Float64bits(v))
			}
		case sym.Type == lang.TInteger:
			ints, err := in.GlobalArrayInt(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ints {
				r.arrays[name] = append(r.arrays[name], uint64(v))
			}
		}
	}
	return r
}

// TestConcurrentKernelsMatchSerial runs four kernels at the default size
// on 8 processors, in both chunk orders with poisoned private copies. Each
// has a region above the work threshold (trfd/do_olda__i, bdna/do_k,
// p3m/do_k and tree's accel/do_k), whose chunks run on several goroutines
// when GOMAXPROCS allows; under -race this is a conflict oracle that
// shares no code with the analysis. Time, regions, output and every global
// array must equal the run with an empty Observer, which keeps every
// region on the calling goroutine and charges the same cycles.
func TestConcurrentKernelsMatchSerial(t *testing.T) {
	for _, name := range []string{"trfd", "bdna", "p3m", "tree"} {
		k, err := kernels.ByName(name, kernels.Default)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.Compile(k.Source, parallel.Full)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []interp.Schedule{interp.Forward, interp.Reverse} {
			got := runKernel(t, res.Info, sched, nil)
			want := runKernel(t, res.Info, sched, &interp.Observer{})
			if got.time != want.time || got.regions != want.regions {
				t.Errorf("%s schedule %d: time %d in %d regions, want %d in %d", name, sched, got.time, got.regions, want.time, want.regions)
			}
			if got.out != want.out {
				t.Errorf("%s schedule %d: output\n%s\nwant\n%s", name, sched, got.out, want.out)
			}
			for arr, w := range want.arrays {
				if !slices.Equal(got.arrays[arr], w) {
					t.Errorf("%s schedule %d: array %s differs from the serial run", name, sched, arr)
				}
			}
		}
	}
}
