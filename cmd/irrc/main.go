// Command irrc is the F-lite parallelizing compiler CLI: it parses a
// program, runs the Polaris-like pipeline with the irregular-access
// analyses of Lin & Padua (PLDI 2000), reports which loops parallelize and
// why, and optionally executes the result on the simulated parallel
// machine.
//
// Usage:
//
//	irrc [flags] file.fl
//	irrc [flags] a.fl b.fl dir/      (batch: many files and/or directories)
//	irrc [flags] -kernel trfd
//
// With more than one input (a directory counts as its *.fl files, sorted)
// the compilations run as a batch, -jobs of them at a time; the summaries
// print in input order and are identical for every -jobs value. Batch
// mode rejects -run, -dump and -bounds, which are single-program reports.
//
// Flags:
//
//	-mode full|noiaa|baseline   compiler configuration (default full)
//	-intra                      intraprocedural property analysis only
//	-jobs N                     batch inputs compiled at once (default GOMAXPROCS)
//	-dump                       print the transformed program
//	-run                        execute on the simulated machine
//	-procs N                    processors for -run (default 1, at most 1024)
//	-machine origin2000|challenge
//	-explain                    print the per-loop decision log (telemetry)
//	-metrics out.json           write the metrics JSON document ("-": stdout)
//	-no-recurrence              disable recurrence-based property derivation (ablation)
//	-timeout d                  abort compilation (and -run) after d (e.g. 30s)
//	-max-query-steps N          bound property-query propagation
//	-cpuprofile out.pprof       write a CPU profile of the compilation
//	-memprofile out.pprof       write an allocation profile at exit
//
// Exit codes follow the error taxonomy of the library: 0 success,
// 1 internal error, 2 usage, 3 parse error, 4 analysis error, 5 resource
// limit exceeded, 6 canceled (timeout).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	irregular "repro"
	"repro/internal/comperr"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// writeOut streams a document to a path ("-" for stdout).
func writeOut(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	mode := flag.String("mode", "full", "compiler configuration: full, noiaa or baseline")
	intra := flag.Bool("intra", false, "restrict property analysis to single units")
	dump := flag.Bool("dump", false, "print the transformed program")
	run := flag.Bool("run", false, "execute on the simulated machine")
	procs := flag.Int("procs", 1, "processors for -run (at most 1024)")
	mach := flag.String("machine", "origin2000", "machine profile for -run")
	kernel := flag.String("kernel", "", "compile a bundled kernel instead of a file")
	jobs := flag.Int("jobs", 0, "batch inputs compiled at once (0: GOMAXPROCS)")
	bounds := flag.Bool("bounds", false, "report bounds-check elimination and apply it when running")
	interchange := flag.Bool("interchange", false, "enable the loop-interchange companion pass")
	lintFlag := flag.Bool("lint", false, "run the diagnostics phase and print the findings")
	explain := flag.Bool("explain", false, "print the per-loop decision log (query traces for failed properties)")
	metrics := flag.String("metrics", "", "write the metrics JSON document to this path (\"-\" for stdout)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event file (load in Perfetto) to this path (\"-\" for stdout)")
	noRecurrence := flag.Bool("no-recurrence", false, "disable definition-site recurrence derivation (ablation: recurrence-filled index arrays stay unproven)")
	timeout := flag.Duration("timeout", 0, "abort compilation (and -run) after this duration (0: none)")
	maxQuerySteps := flag.Int("max-query-steps", 0, "bound property-query propagation steps (0: unlimited)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path at exit")
	flag.Parse()

	m, err := parallel.ParseMode(*mode)
	if err != nil {
		usage(err)
	}
	if err := irregular.MachineProfile(*mach).Validate(); err != nil {
		usage(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	var inputs []irregular.BatchInput
	switch {
	case *kernel != "":
		k, err := kernels.ByName(*kernel, kernels.Default)
		if err != nil {
			usage(err)
		}
		inputs = []irregular.BatchInput{{Name: k.Name, Src: k.Source}}
	case flag.NArg() >= 1:
		inputs, err = collectInputs(flag.Args())
		if err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: irrc [flags] file.fl [file2.fl dir ...]  (or -kernel name); see -h")
		os.Exit(comperr.ExitUsage)
	}

	copts := irregular.Options{
		Mode:            m,
		Intraprocedural: *intra,
		Interchange:     *interchange,
		Telemetry:       *explain || *metrics != "" || *traceOut != "",
		Trace:           *explain || *traceOut != "",
		Jobs:            *jobs,
		NoRecurrence:    *noRecurrence,
		Limits:          irregular.Limits{MaxQuerySteps: *maxQuerySteps},
		Lint:            *lintFlag,
	}

	if len(inputs) > 1 {
		if *run || *dump || *bounds || *traceOut != "" {
			usage(fmt.Errorf("-run, -dump, -bounds and -trace-out are single-program flags; got %d inputs", len(inputs)))
		}
		compileBatch(ctx, inputs, copts, *explain, *metrics)
		return
	}

	res, err := irregular.CompileContext(ctx, inputs[0].Src, copts)
	if err != nil {
		fail(err)
	}
	printResult(res.Result, copts)
	if *explain {
		fmt.Println()
		fmt.Print(res.Explain())
	}
	if *dump {
		fmt.Println()
		fmt.Print(res.Format())
	}
	if *bounds {
		fmt.Println()
		fmt.Print(res.BoundsChecks().Summary())
	}
	if *run {
		out, err := res.RunContext(ctx, irregular.RunOptions{
			Processors:            *procs,
			Profile:               irregular.MachineProfile(*mach),
			Out:                   os.Stdout,
			EliminateBoundsChecks: *bounds,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nsimulated time: %d cycles on %s x%d (%d parallel regions)\n",
			out.Time, *mach, *procs, out.ParallelRegions)
	}
	// The trace and metrics documents are written last so that, with -run,
	// the machine.loop.* counters and events of the execution are included.
	if *traceOut != "" {
		if err := writeOut(*traceOut, func(w *os.File) error {
			return obs.WriteChromeTrace(w, res.Recorder.Events())
		}); err != nil {
			fail(err)
		}
	}
	if *metrics != "" {
		data, err := res.SummaryJSON()
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if *metrics == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*metrics, data, 0o644); err != nil {
			fail(err)
		}
	}
}

// collectInputs expands the positional arguments into batch inputs: a
// regular file is read as-is; a directory contributes its *.fl entries,
// sorted by name.
func collectInputs(args []string) ([]irregular.BatchInput, error) {
	var paths []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			paths = append(paths, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		var fl []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".fl") {
				fl = append(fl, filepath.Join(arg, e.Name()))
			}
		}
		if len(fl) == 0 {
			return nil, fmt.Errorf("%s: no .fl files", arg)
		}
		sort.Strings(fl)
		paths = append(paths, fl...)
	}
	inputs := make([]irregular.BatchInput, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, irregular.BatchInput{Name: p, Src: string(data)})
	}
	return inputs, nil
}

// printResult prints one input's summary, followed by how many loop nests
// were interchanged under -interchange and by its lint findings, or that
// it has none, under -lint.
func printResult(res *pipeline.Result, opts irregular.Options) {
	fmt.Print(res.Summary())
	if opts.Interchange && res.Interchanged > 0 {
		fmt.Printf("loop nests interchanged: %d\n", res.Interchanged)
	}
	if !opts.Lint {
		return
	}
	if len(res.Diags) == 0 {
		fmt.Println("lint: no findings")
	} else {
		fmt.Print(irregular.RenderDiags(res.Diags))
	}
}

// compileBatch runs the multi-input mode: each input's result as
// printResult prints it, in input order, then the optional decision logs
// and the metrics document (one entry per input). A failed input does not
// stop the others; the exit code is the first failed input's (in input
// order).
func compileBatch(ctx context.Context, inputs []irregular.BatchInput, opts irregular.Options, explain bool, metrics string) {
	br := irregular.CompileBatchContext(ctx, inputs, opts)
	for _, it := range br.Items {
		fmt.Printf("== %s ==\n", it.Name)
		if it.Err != nil {
			fmt.Printf("error: %v\n", it.Err)
			continue
		}
		printResult(it.Result, opts)
	}
	if explain {
		fmt.Println()
		fmt.Print(br.Explain())
	}
	if metrics != "" {
		type item struct {
			Name    string      `json:"name"`
			Error   string      `json:"error,omitempty"`
			Metrics interface{} `json:"metrics,omitempty"`
		}
		doc := struct {
			Schema string `json:"schema"`
			Items  []item `json:"items"`
		}{Schema: "irr-metrics-batch/1"}
		for _, it := range br.Items {
			bi := item{Name: it.Name}
			if it.Err != nil {
				bi.Error = it.Err.Error()
			} else {
				bi.Metrics = it.Result.Metrics()
			}
			doc.Items = append(doc.Items, bi)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if metrics == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(metrics, data, 0o644); err != nil {
			fail(err)
		}
	}
	if err := br.Err(); err != nil {
		fail(err)
	}
}

// usage reports a bad flag value or flag combination and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "irrc:", err)
	os.Exit(comperr.ExitUsage)
}

// fail reports err and exits with the code of its error kind (3 parse,
// 4 analysis, 5 resource limit, 6 canceled, 1 otherwise).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "irrc:", err)
	os.Exit(comperr.ExitCode(err))
}
