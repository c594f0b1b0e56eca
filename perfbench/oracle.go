package main

// The correctness oracles. None of them shares code with the analysis: the
// references come from running the parse+sem-only (untransformed) program
// on the interpreter, and the comparisons read only what the compiler
// returns (its summary text, PRINT output and final memory).

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// relTol is the relative tolerance of numeric comparisons, the one the
// kernel tests use.
const relTol = 1e-6

// maxSteps bounds every reference execution.
const maxSteps = 200_000_000

// verdictLines extracts the per-loop verdict lines ("PARALLEL ..." and
// "serial ...") of a compilation summary, dropping the header and phase
// lines, which carry timings.
func verdictLines(summary string) string {
	var sb strings.Builder
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "  PARALLEL ") || strings.HasPrefix(line, "  serial ") {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// checkVerdicts reports the first verdict line where got departs from want.
func checkVerdicts(want, got string) error {
	if want == got {
		return nil
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Errorf("verdict line %d: got %q, want %q", i+1, strings.TrimSpace(gl), strings.TrimSpace(wl))
		}
	}
	return fmt.Errorf("verdict lines differ")
}

// checkTargetParallel requires the verdict line naming target to be
// PARALLEL.
func checkTargetParallel(verdicts, target string) error {
	for _, line := range strings.Split(verdicts, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && strings.Contains(f[1], target) {
			if f[0] != "PARALLEL" {
				return fmt.Errorf("target loop %s reported serial", target)
			}
			return nil
		}
	}
	return fmt.Errorf("target loop %s not reported", target)
}

// checkOutput compares PRINT output token by token: numbers within relTol,
// everything else exactly.
func checkOutput(want, got string) error {
	w, g := strings.Fields(want), strings.Fields(got)
	if len(w) != len(g) {
		return fmt.Errorf("output %q, want %q", got, want)
	}
	for i := range w {
		if w[i] == g[i] {
			continue
		}
		x, errx := strconv.ParseFloat(w[i], 64)
		y, erry := strconv.ParseFloat(g[i], 64)
		if errx != nil || erry != nil || !closeTo(x, y) {
			return fmt.Errorf("output token %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return nil
}

func closeTo(want, got float64) bool {
	if want == got { // also equal infinities
		return true
	}
	if math.IsNaN(want) || math.IsNaN(got) {
		// A NaN where the reference has a number is a poisoned (wrongly
		// privatized) read; a NaN the reference computes too is not.
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return math.Abs(want-got) <= relTol*math.Max(1, math.Abs(want))
}

// execution is the observable result of one interpreter run: PRINT output,
// simulated cycles and every global array.
type execution struct {
	output string
	cycles uint64
	reals  map[string][]float64
	ints   map[string][]int64
}

// checkedProgram parses and checks src without transforming it.
func checkedProgram(src string) (*sem.Info, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("reference parse: %w", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("reference sem: %w", err)
	}
	return info, nil
}

// execute runs a checked program on the Origin 2000 model with procs
// processors. Fresh private copies are poisoned, so a wrongly privatized
// read shows up as NaN.
func execute(ctx context.Context, info *sem.Info, procs int) (*execution, error) {
	var out strings.Builder
	in := interp.New(info, interp.Options{
		Machine:  machine.New(machine.Origin2000, procs),
		Out:      &out,
		MaxSteps: maxSteps,
		Poison:   true,
		Ctx:      ctx,
	})
	if err := in.Run(); err != nil {
		return nil, err
	}
	ex := &execution{
		output: out.String(),
		cycles: in.Machine().Time(),
		reals:  map[string][]float64{},
		ints:   map[string][]int64{},
	}
	for name, sym := range info.Globals {
		if sym.Kind != sem.ArraySym {
			continue
		}
		var err error
		switch sym.Type {
		case lang.TReal:
			ex.reals[name], err = in.GlobalArrayReal(name)
		case lang.TInteger:
			ex.ints[name], err = in.GlobalArrayInt(name)
		}
		if err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// reference runs the untransformed program serially.
func reference(ctx context.Context, src string) (*execution, error) {
	info, err := checkedProgram(src)
	if err != nil {
		return nil, err
	}
	return execute(ctx, info, 1)
}

// checkSameMemory compares two executions: PRINT output and every global
// array (reals within relTol, integers exactly). Scalars are left out: the
// passes may legitimately delete dead scalar stores.
func checkSameMemory(want, got *execution) error {
	if err := checkOutput(want.output, got.output); err != nil {
		return err
	}
	for name, w := range want.reals {
		g := got.reals[name]
		if len(g) != len(w) {
			return fmt.Errorf("array %s has %d elements, want %d", name, len(g), len(w))
		}
		for i := range w {
			if !closeTo(w[i], g[i]) {
				return fmt.Errorf("%s(%d) = %v, want %v", name, i+1, g[i], w[i])
			}
		}
	}
	for name, w := range want.ints {
		g := got.ints[name]
		if len(g) != len(w) {
			return fmt.Errorf("array %s has %d elements, want %d", name, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("%s(%d) = %d, want %d", name, i+1, g[i], w[i])
			}
		}
	}
	return nil
}
