// Command irrbench regenerates the paper's evaluation artifacts (Lin &
// Padua, PLDI 2000): Table 2, Table 3 and the Fig. 16 speedup curves, from
// the bundled benchmark kernels on the simulated parallel machine.
//
// Usage:
//
//	irrbench [-size small|default|large] [-procs 1,2,4,8,16,32] [-table2] [-table3] [-fig16]
//	irrbench -metrics out.json [-jobs N]
//
// With no selection flags, everything is printed. -metrics additionally
// writes one machine-readable metrics document per kernel ("-": stdout);
// the kernels compile as a batch over -jobs workers.
// -cpuprofile / -memprofile write pprof profiles of whatever the invocation
// ran. The repository's benchmark (end-to-end and per-layer timings of the
// compiler, its execution and its service) is perfbench/, not irrbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/comperr"
	"repro/internal/kernels"
)

func main() {
	size := flag.String("size", "default", "kernel size: small, default or large")
	procsFlag := flag.String("procs", "1,2,4,8,16,32", "processor counts for fig16")
	t2 := flag.Bool("table2", false, "print Table 2 only")
	t3 := flag.Bool("table3", false, "print Table 3 only")
	f16 := flag.Bool("fig16", false, "print Fig. 16 only")
	metrics := flag.String("metrics", "", "write per-kernel metrics JSON to this path (\"-\" for stdout)")
	jobs := flag.Int("jobs", 0, "worker pool size for batch compilation (0: GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path at exit")
	flag.Parse()

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

	var sz kernels.Size
	switch *size {
	case "small":
		sz = kernels.Small
	case "default", "":
		sz = kernels.Default
	case "large":
		sz = kernels.Large
	default:
		fmt.Fprintf(os.Stderr, "irrbench: unknown size %q\n", *size)
		os.Exit(2)
	}

	var procs []int
	for _, f := range strings.Split(*procsFlag, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "irrbench: bad processor count %q\n", f)
			os.Exit(2)
		}
		procs = append(procs, n)
	}

	if *metrics != "" {
		docs, err := bench.CompileMetrics(sz, *jobs)
		if err != nil {
			fail(err)
		}
		data, err := json.MarshalIndent(docs, "", "  ")
		if err != nil {
			fail(err)
		}
		writeOut(*metrics, append(data, '\n'))
	}
	all := !*t2 && !*t3 && !*f16
	if *metrics != "" && all {
		return
	}

	if all || *t2 {
		rows, err := bench.Table2(sz)
		if err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatTable2(rows))
		fmt.Println()
	}
	if all || *t3 {
		rows, err := bench.Table3(sz)
		if err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatTable3(rows))
		fmt.Println()
	}
	if all || *f16 {
		series, err := bench.Fig16(sz, procs)
		if err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatFig16(series))
	}
}

func writeOut(path string, data []byte) {
	if path == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
}

// fail reports err and exits with the code of its error kind (3 parse,
// 4 analysis, 5 resource limit, 6 canceled, 1 otherwise).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "irrbench:", err)
	os.Exit(comperr.ExitCode(err))
}
