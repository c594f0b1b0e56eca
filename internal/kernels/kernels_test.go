package kernels

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// compileKernel compiles one kernel through the full pipeline.
func compileKernel(t *testing.T, k *Kernel, mode parallel.Mode) *pipeline.Result {
	t.Helper()
	res, err := pipeline.Compile(k.Source, mode)
	if err != nil {
		t.Fatalf("%s: compile: %v", k.Name, err)
	}
	return res
}

func targetReport(res *pipeline.Result, k *Kernel) *parallel.LoopReport {
	for _, r := range res.Reports {
		if strings.Contains(r.Name, k.TargetLoop) {
			return r
		}
	}
	return nil
}

func TestKernelsCompile(t *testing.T) {
	for _, k := range All(Small) {
		t.Run(k.Name, func(t *testing.T) {
			res := compileKernel(t, k, parallel.Full)
			if len(res.Reports) == 0 {
				t.Fatal("no loops analyzed")
			}
		})
	}
}

func TestTargetLoopsParallelOnlyWithIAA(t *testing.T) {
	for _, k := range All(Small) {
		t.Run(k.Name, func(t *testing.T) {
			full := compileKernel(t, k, parallel.Full)
			rFull := targetReport(full, k)
			if rFull == nil {
				t.Fatalf("target loop %q not found; loops: %v", k.TargetLoop, names(full))
			}
			if !rFull.Parallel {
				t.Fatalf("target loop not parallel with IAA: %v", rFull.Blockers)
			}

			no := compileKernel(t, k, parallel.NoIAA)
			rNo := targetReport(no, k)
			if rNo == nil {
				t.Fatalf("target loop missing in NoIAA compile; loops: %v", names(no))
			}
			if rNo.Parallel {
				t.Fatalf("%s target loop must stay serial without IAA", k.Name)
			}

			base := compileKernel(t, k, parallel.Baseline)
			rBase := targetReport(base, k)
			if rBase != nil && rBase.Parallel {
				t.Fatalf("%s target loop must stay serial under the baseline", k.Name)
			}
		})
	}
}

// TestRecurrenceKernelsNeedDerivation pins down the ablation story: the
// three recurrence kernels parallelize with the definition-site derivation
// and go serial under -no-recurrence, while the five paper kernels are
// untouched by the flag (their index arrays have closed forms or
// offset/length patterns that never needed the derivation).
func TestRecurrenceKernelsNeedDerivation(t *testing.T) {
	recur := map[string]bool{"csr": true, "pfgather": true, "tstep": true}
	for _, k := range All(Small) {
		t.Run(k.Name, func(t *testing.T) {
			res, err := pipeline.CompileOpts(k.Source, parallel.Full,
				pipeline.Options{NoRecurrence: true})
			if err != nil {
				t.Fatalf("compile -no-recurrence: %v", err)
			}
			r := targetReport(res, k)
			if r == nil {
				t.Fatalf("target loop %q not found; loops: %v", k.TargetLoop, names(res))
			}
			if recur[k.Name] {
				if r.Parallel {
					t.Fatalf("%s target loop must stay serial without recurrence derivation", k.Name)
				}
			} else if !r.Parallel {
				t.Fatalf("%s must not depend on recurrence derivation: %v", k.Name, r.Blockers)
			}
		})
	}
}

// TestRecurrenceSpeedupDelta prices the derivation on the simulated
// machine: at P=8 and default size, each recurrence kernel loses more than
// 0.5x speedup under -no-recurrence, while the five paper kernels' speedup
// does not move at all.
func TestRecurrenceSpeedupDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("default-size kernels in -short mode")
	}
	recur := map[string]bool{"csr": true, "pfgather": true, "tstep": true}
	for _, k := range All(Default) {
		t.Run(k.Name, func(t *testing.T) {
			ablated, err := pipeline.CompileOpts(k.Source, parallel.Full,
				pipeline.Options{NoRecurrence: true})
			if err != nil {
				t.Fatalf("compile -no-recurrence: %v", err)
			}
			delta := speedup8(t, compileKernel(t, k, parallel.Full)) - speedup8(t, ablated)
			if recur[k.Name] {
				if delta <= 0.5 {
					t.Errorf("%s: derivation gains %+.3fx at P=8, want > 0.5x", k.Name, delta)
				}
			} else if math.Abs(delta) >= 1e-9 {
				t.Errorf("%s: -no-recurrence moved the P=8 speedup by %+g", k.Name, delta)
			}
		})
	}
}

// speedup8 runs a compiled program serially and on 8 processors of the
// Origin-2000 profile and returns the simulated cycle ratio.
func speedup8(t *testing.T, res *pipeline.Result) float64 {
	t.Helper()
	cycles := func(p int) uint64 {
		in := interp.New(res.Info, interp.Options{Machine: machine.New(machine.Origin2000, p)})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.Machine().Time()
	}
	return float64(cycles(1)) / float64(cycles(8))
}

func names(res *pipeline.Result) []string {
	var out []string
	for _, r := range res.Reports {
		status := "serial"
		if r.Parallel {
			status = "par"
		}
		out = append(out, r.Name+"("+status+")")
	}
	return out
}

func TestExpectedTechniques(t *testing.T) {
	expect := map[string]func(r *parallel.LoopReport) bool{
		"trfd": func(r *parallel.LoopReport) bool {
			return r.Tests["xrsiq"] == "closed-form"
		},
		"dyfesm": func(r *parallel.LoopReport) bool {
			return r.Tests["x"] == "offset-length"
		},
		"bdna": func(r *parallel.LoopReport) bool {
			return r.PrivReasons["xdt"] == "indirect-bounds" && r.PrivReasons["ind"] == "consecutively-written"
		},
		"p3m": func(r *parallel.LoopReport) bool {
			return r.PrivReasons["x0"] == "indirect-bounds" && r.PrivReasons["jpr"] == "consecutively-written"
		},
		"tree": func(r *parallel.LoopReport) bool {
			return r.PrivReasons["stak"] == "stack"
		},
		"csr": func(r *parallel.LoopReport) bool {
			return r.Tests["a"] == "recurrence-window"
		},
		"pfgather": func(r *parallel.LoopReport) bool {
			return r.Tests["y"] == "injective"
		},
		"tstep": func(r *parallel.LoopReport) bool {
			return r.Tests["a"] == "recurrence-window"
		},
	}
	for _, k := range All(Small) {
		t.Run(k.Name, func(t *testing.T) {
			res := compileKernel(t, k, parallel.Full)
			r := targetReport(res, k)
			if r == nil || !r.Parallel {
				t.Fatalf("target not parallel: %+v", r)
			}
			if !expect[k.Name](r) {
				t.Errorf("unexpected evidence: tests=%v privReasons=%v props=%v",
					r.Tests, r.PrivReasons, r.Properties)
			}
		})
	}
}

func TestKernelsParallelCorrectness(t *testing.T) {
	for _, k := range All(Small) {
		t.Run(k.Name, func(t *testing.T) {
			res := compileKernel(t, k, parallel.Full)

			run := func(p int, sched interp.Schedule) map[string]float64 {
				in := interp.New(res.Info, interp.Options{
					Machine:  machine.New(machine.Origin2000, p),
					Schedule: sched,
					Poison:   true,
				})
				if err := in.Run(); err != nil {
					t.Fatalf("run p=%d: %v", p, err)
				}
				out := map[string]float64{}
				for _, v := range k.CheckVars {
					val, err := in.GlobalReal(v)
					if err != nil {
						t.Fatalf("checkvar %s: %v", v, err)
					}
					out[v] = val
				}
				return out
			}

			serial := run(1, interp.Forward)
			for _, p := range []int{2, 4, 8} {
				for _, sched := range []interp.Schedule{interp.Forward, interp.Reverse} {
					par := run(p, sched)
					for v, want := range serial {
						got := par[v]
						if math.IsNaN(got) {
							t.Fatalf("p=%d sched=%d: %s is NaN (bad privatization)", p, sched, v)
						}
						if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
							t.Errorf("p=%d sched=%d: %s = %v, want %v", p, sched, v, got, want)
						}
					}
				}
			}
		})
	}
}

func TestKernelsSpeedupShape(t *testing.T) {
	// At default sizes, the four big programs must speed up with
	// processors; DYFESM (tiny data) must not scale on the Origin-like
	// profile — the Fig. 16 shape.
	if testing.Short() {
		t.Skip("default-size kernels in -short mode")
	}
	for _, k := range All(Default) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			speedup := speedup8(t, compileKernel(t, k, parallel.Full))
			switch k.Name {
			case "dyfesm":
				if speedup > 1.5 {
					t.Errorf("dyfesm should barely scale (tiny data), got %.2fx", speedup)
				}
			default:
				if speedup < 1.5 {
					t.Errorf("%s should speed up at 8 processors, got %.2fx", k.Name, speedup)
				}
			}
		})
	}
}

func TestLargeKernelsCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("large kernels in -short mode")
	}
	for _, k := range All(Large) {
		t.Run(k.Name, func(t *testing.T) {
			res := compileKernel(t, k, parallel.Full)
			r := targetReport(res, k)
			if r == nil || !r.Parallel {
				t.Fatalf("target loop not parallel at Large size: %+v", r)
			}
		})
	}
}
