// Package bench regenerates the paper's evaluation artifacts from the
// bundled kernels: Table 2 (compilation time and the share spent in array
// property analysis, plus sequential execution time), Table 3 (the loops
// with irregular accesses, the properties found and the tests used), and
// Fig. 16 (speedup series of the three compiler configurations on the
// simulated Origin 2000, plus DYFESM on the simulated Challenge).
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// CompileMetrics compiles every kernel in Full mode with telemetry on and
// returns one metrics document per program — the payload of `irrbench
// -metrics`. The kernels compile as one batch over a worker pool of jobs
// goroutines (0: GOMAXPROCS); the documents are the same for every job
// count.
func CompileMetrics(size kernels.Size, jobs int) (map[string]*pipeline.Metrics, error) {
	br := pipeline.CompileBatch(kernelInputs(size), parallel.Full,
		pipeline.Options{Recorder: obs.New(), Jobs: jobs})
	if err := br.Err(); err != nil {
		return nil, err
	}
	out := map[string]*pipeline.Metrics{}
	for _, it := range br.Items {
		out[it.Name] = it.Result.Metrics()
	}
	return out, nil
}

func kernelInputs(size kernels.Size) []pipeline.BatchInput {
	var ins []pipeline.BatchInput
	for _, k := range kernels.All(size) {
		ins = append(ins, pipeline.BatchInput{Name: k.Name, Src: k.Source})
	}
	return ins
}

// Table2Row is one program's compilation and sequential-execution record.
type Table2Row struct {
	Program      string
	LoC          int
	CompileTime  time.Duration
	PropertyTime time.Duration
	OverheadPct  float64
	// SeqCycles is the simulated sequential execution time.
	SeqCycles uint64
	// Queries summarizes the property-analysis work.
	Queries int
}

// Table2 compiles and serially executes every kernel.
func Table2(size kernels.Size) ([]Table2Row, error) {
	var rows []Table2Row
	for _, k := range kernels.All(size) {
		res, err := pipeline.Compile(k.Source, parallel.Full)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		in := interp.New(res.Info, interp.Options{Machine: machine.New(machine.Origin2000, 1)})
		if err := in.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rows = append(rows, Table2Row{
			Program:      k.Name,
			LoC:          res.LoC,
			CompileTime:  res.CompileTime,
			PropertyTime: res.PropertyTime,
			OverheadPct:  100 * float64(res.PropertyTime) / float64(max(int64(1), int64(res.CompileTime))),
			SeqCycles:    in.Machine().Time(),
			Queries:      res.PropertyStats.Queries,
		})
	}
	return rows, nil
}

// FormatTable2 renders the rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: compilation time and array property analysis overhead\n")
	fmt.Fprintf(&sb, "%-8s %6s %14s %14s %9s %12s %8s\n",
		"program", "LoC", "compile", "prop.analysis", "overhead", "seq.cycles", "queries")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %6d %14s %14s %8.1f%% %12d %8d\n",
			r.Program, r.LoC,
			r.CompileTime.Round(time.Microsecond),
			r.PropertyTime.Round(time.Microsecond),
			r.OverheadPct, r.SeqCycles, r.Queries)
	}
	return sb.String()
}

// Table3Row is one analyzed loop of one program.
type Table3Row struct {
	Program string
	Loop    string
	// NewlyParallel marks loops parallel only with irregular access
	// analysis (the paper's "*" loops).
	NewlyParallel bool
	// Properties lists the index-array properties the verdicts used.
	Properties []string
	// Tests lists the dependence tests that fired (array:test).
	Tests []string
	// PrivReasons lists privatized arrays with their technique.
	PrivReasons []string
	// PctSeq is the loop's share of sequential execution time.
	PctSeq float64
	// PctPar32 is the loop's share of total execution time at 32
	// processors when the loop is NOT parallelized (compiled without
	// irregular access analysis) — the paper's column eleven, showing how
	// a small serial loop grows into the bottleneck (TRFD: 5% → 24%).
	PctPar32 float64
}

// Table3 reports, for every kernel, the target irregular loops: whether
// they parallelize, with which properties/tests, and their share of
// sequential time.
func Table3(size kernels.Size) ([]Table3Row, error) {
	var rows []Table3Row
	for _, k := range kernels.All(size) {
		full, err := pipeline.Compile(k.Source, parallel.Full)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		noiaa, err := pipeline.Compile(k.Source, parallel.NoIAA)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		serialWithout := map[string]bool{}
		noiaaByName := map[string]*parallel.LoopReport{}
		for _, r := range noiaa.Reports {
			if !r.Parallel {
				serialWithout[r.Name] = true
			}
			noiaaByName[r.Name] = r
		}

		// Residual share at 32 processors without IAA: track the target
		// loops (serial there) in a parallel run of the NoIAA program.
		noiaaTracked := map[*lang.DoStmt]bool{}
		for _, r := range full.Reports {
			if r.Parallel {
				if nr := noiaaByName[r.Name]; nr != nil && !nr.Parallel {
					noiaaTracked[nr.Loop] = true
				}
			}
		}
		var par32Total uint64
		par32Cycles := map[*lang.DoStmt]uint64{}
		if len(noiaaTracked) > 0 {
			in32 := interp.New(noiaa.Info, interp.Options{
				Machine:    machine.New(machine.Origin2000, 32),
				TrackLoops: noiaaTracked,
			})
			if err := in32.Run(); err != nil {
				return nil, fmt.Errorf("%s (par32): %w", k.Name, err)
			}
			par32Total = in32.Machine().Time()
			par32Cycles = in32.LoopCycles()
		}

		// Track cycles of every parallel loop in a sequential run.
		tracked := map[*lang.DoStmt]bool{}
		for _, r := range full.Reports {
			if r.Parallel {
				tracked[r.Loop] = true
			}
		}
		in := interp.New(full.Info, interp.Options{
			Machine:    machine.New(machine.Origin2000, 1),
			TrackLoops: tracked,
		})
		if err := in.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		total := in.Machine().Time()
		cycles := in.LoopCycles()

		for _, r := range full.Reports {
			if !r.Parallel {
				continue
			}
			interesting := len(r.Properties) > 0 || hasIrregularEvidence(r)
			if !interesting {
				continue
			}
			row := Table3Row{
				Program:       k.Name,
				Loop:          r.Name,
				NewlyParallel: serialWithout[r.Name],
				Properties:    r.Properties,
				PctSeq:        100 * float64(cycles[r.Loop]) / float64(max(uint64(1), total)),
			}
			if nr := noiaaByName[r.Name]; nr != nil && par32Total > 0 {
				row.PctPar32 = 100 * float64(par32Cycles[nr.Loop]) / float64(par32Total)
			}
			var tests, privs []string
			for arr, tst := range r.Tests {
				if tst != "" && tst != "affine" {
					tests = append(tests, arr+":"+string(tst))
				}
			}
			for arr, reason := range r.PrivReasons {
				privs = append(privs, arr+":"+string(reason))
			}
			sort.Strings(tests)
			sort.Strings(privs)
			row.Tests = tests
			row.PrivReasons = privs
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func hasIrregularEvidence(r *parallel.LoopReport) bool {
	for _, t := range r.Tests {
		if t != "" && t != "affine" && t != "range" {
			return true
		}
	}
	for _, reason := range r.PrivReasons {
		if reason != "affine" {
			return true
		}
	}
	return false
}

// FormatTable3 renders the rows like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 3: loops with irregular accesses analyzed and parallelized\n")
	fmt.Fprintf(&sb, "%-8s %-22s %-4s %6s %8s  %s\n", "program", "loop", "new", "%seq", "%par@32", "evidence")
	for _, r := range rows {
		star := ""
		if r.NewlyParallel {
			star = "*"
		}
		var ev []string
		ev = append(ev, r.Tests...)
		ev = append(ev, r.PrivReasons...)
		fmt.Fprintf(&sb, "%-8s %-22s %-4s %5.1f%% %7.1f%%  %s\n",
			r.Program, r.Loop, star, r.PctSeq, r.PctPar32, strings.Join(ev, " "))
		for _, p := range r.Properties {
			fmt.Fprintf(&sb, "%-8s %-22s      %6s  property: %s\n", "", "", "", p)
		}
	}
	return sb.String()
}

// Fig16Series is one speedup curve: a program compiled in one mode, run on
// one machine profile across processor counts.
type Fig16Series struct {
	Program  string
	Mode     parallel.Mode
	Profile  string
	Procs    []int
	Speedups []float64
}

// Fig16 regenerates the speedup curves of Fig. 16: every kernel × three
// compiler configurations on the Origin-2000 profile, plus DYFESM on the
// Challenge profile (Fig. 16(f)).
func Fig16(size kernels.Size, procs []int) ([]Fig16Series, error) {
	if len(procs) == 0 {
		procs = []int{1, 2, 4, 8, 16, 32}
	}
	var out []Fig16Series
	for _, k := range kernels.All(size) {
		for _, mode := range []parallel.Mode{parallel.Full, parallel.NoIAA, parallel.Baseline} {
			s, err := speedupSeries(k, mode, machine.Origin2000, procs)
			if err != nil {
				return nil, err
			}
			out = append(out, *s)
		}
	}
	// Fig. 16(f): DYFESM on the 4-processor Challenge.
	dy, err := kernels.ByName("dyfesm", size)
	if err != nil {
		return nil, err
	}
	chProcs := []int{1, 2, 4}
	s, err := speedupSeries(dy, parallel.Full, machine.Challenge, chProcs)
	if err != nil {
		return nil, err
	}
	out = append(out, *s)
	return out, nil
}

func speedupSeries(k *kernels.Kernel, mode parallel.Mode, prof machine.Profile, procs []int) (*Fig16Series, error) {
	res, err := pipeline.Compile(k.Source, mode)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", k.Name, mode, err)
	}
	run := func(p int) (uint64, error) {
		in := interp.New(res.Info, interp.Options{Machine: machine.New(prof, p)})
		if err := in.Run(); err != nil {
			return 0, fmt.Errorf("%s/%s p=%d: %w", k.Name, mode, p, err)
		}
		return in.Machine().Time(), nil
	}
	seq, err := run(1)
	if err != nil {
		return nil, err
	}
	s := &Fig16Series{Program: k.Name, Mode: mode, Profile: prof.Name, Procs: procs}
	for _, p := range procs {
		t, err := run(p)
		if err != nil {
			return nil, err
		}
		s.Speedups = append(s.Speedups, float64(seq)/float64(max(uint64(1), t)))
	}
	return s, nil
}

// FormatFig16 renders the speedup series as aligned text tables.
func FormatFig16(series []Fig16Series) string {
	var sb strings.Builder
	sb.WriteString("Fig. 16: speedups on the simulated machines\n")
	byProgram := map[string][]Fig16Series{}
	var order []string
	for _, s := range series {
		if _, ok := byProgram[s.Program]; !ok {
			order = append(order, s.Program)
		}
		byProgram[s.Program] = append(byProgram[s.Program], s)
	}
	for _, prog := range order {
		group := byProgram[prog]
		fmt.Fprintf(&sb, "\n%s:\n", prog)
		fmt.Fprintf(&sb, "  %-22s", "config")
		for _, p := range group[0].Procs {
			fmt.Fprintf(&sb, " %6s", fmt.Sprintf("P=%d", p))
		}
		sb.WriteByte('\n')
		for _, s := range group {
			label := fmt.Sprintf("%s/%s", s.Mode, s.Profile)
			fmt.Fprintf(&sb, "  %-22s", label)
			for _, v := range s.Speedups {
				fmt.Fprintf(&sb, " %6.2f", v)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
