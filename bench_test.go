// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table and figure) plus ablation benchmarks for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig. 16 benchmarks report the measured speedups as custom metrics
// (speedup_p2, speedup_p8, ...); the tables print once per run.
package irregular

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/core/property"
	"repro/internal/core/singleindex"
	"repro/internal/dataflow"
	"repro/internal/deptest"
	"repro/internal/expr"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/section"
	"repro/internal/sem"
)

// ---------------------------------------------------------------------------
// Batch compilation: the kernel batch through the worker pool, serial vs
// parallel. The pair reports real wall clock — on a single-core host the
// parallel number is expectedly no better.

func kernelBatch() []pipeline.BatchInput {
	var ins []pipeline.BatchInput
	for _, k := range kernels.All(kernels.Default) {
		ins = append(ins, pipeline.BatchInput{Name: k.Name, Src: k.Source})
	}
	return ins
}

func benchBatch(b *testing.B, opts pipeline.Options) {
	b.Helper()
	ins := kernelBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := pipeline.CompileBatch(ins, parallel.Full, opts)
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSerial(b *testing.B)   { benchBatch(b, pipeline.Options{Jobs: 1}) }
func BenchmarkBatchParallel(b *testing.B) { benchBatch(b, pipeline.Options{Jobs: 0}) }

// ---------------------------------------------------------------------------
// Table 2: compilation time, property-analysis share, sequential time.

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(kernels.Default)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.FormatTable2(rows))
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3: loops, properties and tests.

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(kernels.Default)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.FormatTable3(rows))
		}
		// The paper's headline: the target loops parallelize only with
		// irregular access analysis.
		stars := 0
		for _, r := range rows {
			if r.NewlyParallel {
				stars++
			}
		}
		if stars < 5 {
			b.Fatalf("expected all five target loops newly parallel, got %d", stars)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig. 16: speedup curves per program (Full mode on the Origin profile),
// reported as custom metrics.

func benchFig16(b *testing.B, name string, mode parallel.Mode, prof machine.Profile, procs []int) {
	k, err := kernels.ByName(name, kernels.Default)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Compile(k.Source, mode)
	if err != nil {
		b.Fatal(err)
	}
	run := func(p int) uint64 {
		in := interp.New(res.Info, interp.Options{Machine: machine.New(prof, p)})
		if err := in.Run(); err != nil {
			b.Fatal(err)
		}
		return in.Machine().Time()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := run(1)
		for _, p := range procs {
			t := run(p)
			if i == b.N-1 {
				b.ReportMetric(float64(seq)/float64(t), fmt.Sprintf("speedup_p%d", p))
			}
		}
	}
}

func BenchmarkFig16TRFD(b *testing.B) {
	benchFig16(b, "trfd", parallel.Full, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

func BenchmarkFig16DYFESM(b *testing.B) {
	benchFig16(b, "dyfesm", parallel.Full, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

func BenchmarkFig16BDNA(b *testing.B) {
	benchFig16(b, "bdna", parallel.Full, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

func BenchmarkFig16P3M(b *testing.B) {
	benchFig16(b, "p3m", parallel.Full, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

func BenchmarkFig16TREE(b *testing.B) {
	benchFig16(b, "tree", parallel.Full, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

// BenchmarkFig16TRFDNoIAA is the "without irregular access analysis" line
// of Fig. 16(a): the affine phase still parallelizes, the irregular loop
// stays serial.
func BenchmarkFig16TRFDNoIAA(b *testing.B) {
	benchFig16(b, "trfd", parallel.NoIAA, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

// BenchmarkFig16TREEBaseline is the APO stand-in on TREE: flat at 1.0
// because 90+% of the time sits in the stack-walk loop.
func BenchmarkFig16TREEBaseline(b *testing.B) {
	benchFig16(b, "tree", parallel.Baseline, machine.Origin2000, []int{2, 4, 8, 16, 32})
}

// BenchmarkFig16DYFESMChallenge is Fig. 16(f): DYFESM on the slower
// 4-processor Challenge profile, where the relative overhead is smaller.
func BenchmarkFig16DYFESMChallenge(b *testing.B) {
	benchFig16(b, "dyfesm", parallel.Full, machine.Challenge, []int{2, 4})
}

// ---------------------------------------------------------------------------
// Compilation micro-benchmarks (per kernel, Full mode).

func benchCompile(b *testing.B, name string, mode parallel.Mode) {
	k, err := kernels.ByName(name, kernels.Small)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Compile(k.Source, mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileTRFD(b *testing.B)   { benchCompile(b, "trfd", parallel.Full) }
func BenchmarkCompileDYFESM(b *testing.B) { benchCompile(b, "dyfesm", parallel.Full) }
func BenchmarkCompileBDNA(b *testing.B)   { benchCompile(b, "bdna", parallel.Full) }
func BenchmarkCompileP3M(b *testing.B)    { benchCompile(b, "p3m", parallel.Full) }
func BenchmarkCompileTREE(b *testing.B)   { benchCompile(b, "tree", parallel.Full) }

// BenchmarkCompileProgen compiles progen seeds 0–63 at the behaviour
// golden's generator settings in Full mode; one op is the 64 compiles.
// The compiles are deterministic, so allocs/op repeat run to run.
func BenchmarkCompileProgen(b *testing.B) {
	srcs := make([]string, 64)
	for seed := range srcs {
		srcs[seed] = progen.Generate(rand.New(rand.NewSource(int64(seed))), goldenProgen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := pipeline.Compile(src, parallel.Full); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileCorpus is the in-process twin of perfbench's
// compile-corpus workload: one op compiles, in Full mode, the 8 default
// kernels and 384 progen programs on that workload's size grid (N 32–96,
// MaxBlocks 6–40, a subroutine in every third program). Every eighth
// program is drawn from a fixed second seed, as the workload draws it from
// its run seed, and the others from base seed 1.
func BenchmarkCompileCorpus(b *testing.B) {
	var srcs []string
	for _, k := range kernels.All(kernels.Default) {
		srcs = append(srcs, k.Source)
	}
	seeded, base := rand.New(rand.NewSource(corpusSecondSeed)), rand.New(rand.NewSource(1))
	for i := 0; i < 384; i++ {
		cfg := progen.Config{N: 32 + i*37%65, MaxBlocks: 6 + i*11%35, Subroutines: i%3 == 0}
		rng := base
		if i%8 == 0 {
			rng = seeded
		}
		srcs = append(srcs, progen.Generate(rng, cfg))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := pipeline.Compile(src, parallel.Full); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// corpusSecondSeed draws every eighth program of BenchmarkCompileCorpus.
const corpusSecondSeed = 1205

// BenchmarkLintProgen is the lint twin of BenchmarkCompileProgen: it lints
// the 200 generated programs TestGoldenProgenDiagnostics pins, each drawn
// with its generator settings from one seed the way the service
// benchmark's mix draws them, in Full mode; one op is the 200 lints.
func BenchmarkLintProgen(b *testing.B) {
	srcs := make([]string, 200)
	for seed := range srcs {
		rng := rand.New(rand.NewSource(int64(seed)))
		cfg := progen.Config{N: 16 + rng.Intn(33), MaxBlocks: 4 + rng.Intn(9), Subroutines: rng.Intn(3) == 0}
		srcs[seed] = progen.Generate(rng, cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := Lint(src, Options{Mode: Full}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLintKernels lints the 8 bundled kernels at the default size in
// Full mode; one op is the 8 lints. Their audit replays run the kernels'
// real loops, so this is the benchmark where the replay's per-access cost
// shows.
func BenchmarkLintKernels(b *testing.B) {
	ks := kernels.All(kernels.Default)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			if _, err := Lint(k.Source, Options{Mode: Full}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Telemetry overhead: the same compilation with the recorder disabled (a nil
// *obs.Recorder, one branch per call site) and enabled. Off vs. the plain
// BenchmarkCompileTRFD must be within noise.

func benchCompileTelemetry(b *testing.B, rec func() *obs.Recorder) {
	k, err := kernels.ByName("trfd", kernels.Small)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := pipeline.CompileOpts(k.Source, parallel.Full,
			pipeline.Options{Recorder: rec()})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileTelemetryOff(b *testing.B) {
	benchCompileTelemetry(b, func() *obs.Recorder { return nil })
}

func BenchmarkCompileTelemetryOn(b *testing.B) {
	benchCompileTelemetry(b, obs.New)
}

// BenchmarkCompileTelemetryDebug measures the full-trace configuration
// (per-node query propagation steps) — the -explain path, not production.
func BenchmarkCompileTelemetryDebug(b *testing.B) {
	benchCompileTelemetry(b, obs.NewDebug)
}

// ---------------------------------------------------------------------------
// Ablation: Fig. 15 phase organization. The reorganized order allows
// interprocedural property queries; restricting them to one unit, the view
// of the original order (Options.Intraprocedural), DYFESM's target loop
// (whose index arrays are defined in a different subroutine) stops
// parallelizing.

func benchPipelineOrder(b *testing.B, intra bool) {
	k, err := kernels.ByName("dyfesm", kernels.Small)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.CompileOpts(k.Source, parallel.Full, pipeline.Options{Intraprocedural: intra})
		if err != nil {
			b.Fatal(err)
		}
		got := false
		for _, r := range res.Reports {
			if r.Parallel && r.Tests["x"] == "offset-length" {
				got = true
			}
		}
		if got == intra {
			b.Fatalf("intraprocedural %v: offset-length parallelization = %v, want %v", intra, got, !intra)
		}
	}
}

func BenchmarkPipelineOrderReorganized(b *testing.B) {
	benchPipelineOrder(b, false)
}

func BenchmarkPipelineOrderOriginal(b *testing.B) {
	benchPipelineOrder(b, true)
}

// ---------------------------------------------------------------------------
// Ablation: demand-driven vs. exhaustive property analysis. The paper's
// argument for demand-driven analysis (§3) is that interprocedural array
// analysis is too expensive to run for every array everywhere; the
// exhaustive variant queries every index-array property at every loop.

func propertyWorld(b *testing.B) (*sem.Info, *property.Analysis, []*lang.DoStmt, []string) {
	k, err := kernels.ByName("bdna", kernels.Small)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(k.Source)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
	an := property.New(dataflow.NewContext(info), hp)
	var loops []*lang.DoStmt
	var arrays []string
	seen := map[string]bool{}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			if d, ok := s.(*lang.DoStmt); ok {
				loops = append(loops, d)
			}
			f := dataflow.Facts(s)
			for _, r := range f.ArrayReads {
				if sym := info.Symbol(r.Slot); sym != nil && sym.Type == lang.TInteger && !seen[r.Array] {
					seen[r.Array] = true
					arrays = append(arrays, r.Array)
				}
			}
			return true
		})
	}
	return info, an, loops, arrays
}

func BenchmarkPropertyDemandDriven(b *testing.B) {
	// One query, issued where the privatizer actually needs it.
	info, an, loops, _ := propertyWorld(b)
	var use lang.Stmt
	lang.WalkStmts(info.Program.Units()[0].Body, func(s lang.Stmt) bool { return true })
	for _, u := range info.Program.Units() {
		lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
			f := dataflow.Facts(s)
			for _, r := range f.ArrayReads {
				if r.Array == "xdt" && use == nil {
					use = s
				}
			}
			return true
		})
	}
	if use == nil {
		b.Fatal("no use site")
	}
	_ = loops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop := property.NewBounds("ind")
		an.Verify(prop, use, section.New("ind", expr.One, expr.Var("q")))
	}
}

func BenchmarkPropertyExhaustive(b *testing.B) {
	// Every property of every integer array at every loop's first
	// statement — what a non-demand-driven analyzer would precompute.
	_, an, loops, arrays := propertyWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range loops {
			if len(d.Body) == 0 {
				continue
			}
			at := d.Body[0]
			for _, arr := range arrays {
				an.Verify(property.NewBounds(arr), at, section.New(arr, expr.One, expr.Var("q")))
				an.Verify(property.NewInjective(arr), at, section.New(arr, expr.One, expr.Var("q")))
				an.Verify(property.NewMonotonic(arr), at, section.New(arr, expr.One, expr.Var("q")))
				an.Verify(property.NewClosedFormValue(arr), at, section.New(arr, expr.One, expr.Var("q")))
				an.Verify(property.NewClosedFormDistance(arr), at, section.New(arr, expr.One, expr.Var("q")))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation: QuerySolver early termination. A query that is killed at the
// first examined node returns much faster than one that must traverse to
// the definition — the reverse-topological worklist order is what makes
// this possible (§3.2.2).

func BenchmarkQuerySolverEarlyTermination(b *testing.B) {
	src := `
program p
  param nmax = 100
  integer n, q, i, j, jj
  real x(nmax)
  integer ind(nmax)
  q = 0
  do i = 1, n
    if (x(i) > 0.0) then
      q = q + 1
      ind(q) = i
    end if
  end do
  ind(1) = 7
  do j = 1, q
    jj = ind(j)
  end do
end
`
	prog, _ := lang.Parse(src)
	info, err := sem.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
	an := property.New(dataflow.NewContext(info), hp)
	var use lang.Stmt
	lang.WalkStmts(prog.Main.Body, func(s lang.Stmt) bool {
		if as, ok := s.(*lang.AssignStmt); ok {
			if id, ok := as.Lhs.(*lang.Ident); ok && id.Name == "jj" {
				use = s
			}
		}
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The spoiling write ind(1)=7 kills the query immediately.
		an.Verify(property.NewInjective("ind"), use, section.New("ind", expr.One, expr.Var("q")))
	}
}

// ---------------------------------------------------------------------------
// Core-analysis micro-benchmarks.

func BenchmarkSingleIndexedCW(b *testing.B) {
	src := `
program p
  param nmax = 1000
  integer n, i, pp
  real x(nmax), y(nmax)
  pp = 0
  do i = 1, n
    pp = pp + 1
    x(pp) = y(i)
  end do
end
`
	prog, _ := lang.Parse(src)
	info, err := sem.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	fc := dataflow.NewContext(info)
	g := fc.Graph(prog.Main)
	loop := g.NaturalLoops()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accs := singleindex.Find(fc, g, loop)
		for _, a := range accs {
			if a.Array == "x" {
				if cw := singleindex.CheckConsecutivelyWritten(a); cw == nil {
					b.Fatal("CW lost")
				}
			}
		}
	}
}

func BenchmarkInterpreterSerial(b *testing.B) {
	k, err := kernels.ByName("tree", kernels.Small)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Compile(k.Source, parallel.Full)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(res.Info, interp.Options{Machine: machine.New(machine.Origin2000, 1)})
		if err := in.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterParallel runs trfd at the default size on 8
// processors, so the parallel regions' private swaps are on the measured
// path.
func BenchmarkInterpreterParallel(b *testing.B) {
	k, err := kernels.ByName("trfd", kernels.Default)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Compile(k.Source, parallel.Full)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(res.Info, interp.Options{Machine: machine.New(machine.Origin2000, 8)})
		if err := in.Run(); err != nil {
			b.Fatal(err)
		}
		if in.Machine().ParallelRegions() == 0 {
			b.Fatal("no parallel region ran")
		}
	}
}

// BenchmarkRunKernels compiles the 8 bundled kernels at the default size
// and runs each at P=8 on the Origin 2000 profile, with its PRINT output
// kept; one op is the 8 compiles and runs. It mirrors one round of
// perfbench's run-kernels workload, where execution dominates.
func BenchmarkRunKernels(b *testing.B) {
	ks := kernels.All(kernels.Default)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			res, err := CompileContext(ctx, k.Source, Options{Mode: Full})
			if err != nil {
				b.Fatal(err)
			}
			var out strings.Builder
			rr, err := res.RunContext(ctx, RunOptions{Processors: 8, Profile: Origin2000, Out: &out})
			if err != nil {
				b.Fatal(err)
			}
			if rr.ParallelRegions == 0 {
				b.Fatalf("%s: no parallel region ran", k.Name)
			}
		}
	}
}

// BenchmarkExecuteKernels is BenchmarkRunKernels without the compiles: the
// 8 kernels are compiled once before the timer, and one op is their 8 runs
// at P=8, with a context and the PRINT output kept.
func BenchmarkExecuteKernels(b *testing.B) {
	ctx := context.Background()
	var compiled []*Result
	for _, k := range kernels.All(kernels.Default) {
		res, err := CompileContext(ctx, k.Source, Options{Mode: Full})
		if err != nil {
			b.Fatal(err)
		}
		compiled = append(compiled, res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range compiled {
			var out strings.Builder
			if _, err := res.RunContext(ctx, RunOptions{Processors: 8, Profile: Origin2000, Out: &out}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// The offset–length test on one loop, through the extended range-test path
// of §5.1.5 that every mode runs.

func offsetLengthWorld(b *testing.B) (*deptest.Analyzer, *sem.Info, *lang.DoStmt) {
	src := `
program sol
  param nmax = 64
  param smax = 10000
  integer n, i, j
  integer pptr(nmax), iblen(nmax)
  real x(smax)
  do i = 1, n
    iblen(i) = 2 + mod(i, 4)
  end do
  pptr(1) = 1
  do i = 1, n
    pptr(i + 1) = pptr(i) + iblen(i)
  end do
  do i = 1, n
    do j = 1, iblen(i)
      x(pptr(i) + j - 1) = real(i)
    end do
  end do
end
`
	prog, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	fc := dataflow.NewContext(info)
	hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
	dep := deptest.New(fc, property.New(fc, hp))
	var target *lang.DoStmt
	count := 0
	lang.WalkStmts(prog.Main.Body, func(s lang.Stmt) bool {
		if d, ok := s.(*lang.DoStmt); ok && d.Var.Name == "i" {
			if count == 2 {
				target = d
				return false
			}
			count++
			return false // top-level do i loops only
		}
		return true
	})
	if target == nil {
		b.Fatal("target loop not found")
	}
	return dep, info, target
}

func BenchmarkOffsetLengthExtended(b *testing.B) {
	dep, info, loop := offsetLengthWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := dep.AnalyzeLoop(info.Program.Main, loop)
		if v := vs["x"]; v == nil || !v.Independent {
			b.Fatal("extended test failed")
		}
	}
}
