// Command irrlint runs the diagnostics engine and the parallelization
// verdict auditor over F-lite programs: source lints (use-before-def,
// unreachable code, degenerate DO loops, provable out-of-bounds
// subscripts, non-injective index arrays with the failing query's
// propagation trace) plus the IRR9xxx audit that re-derives every
// parallel/privatization verdict through an independent oracle.
//
// Usage:
//
//	irrlint [flags] file.fl [file2.fl dir ...]
//	irrlint [flags] -kernel trfd
//
// A directory argument counts as its *.fl files, sorted by name.
//
// Flags:
//
//	-mode full|noiaa|baseline   compiler configuration (default full)
//	-json                       emit one JSON document instead of text
//	-fail-on info|warn|error    exit 7 when a finding reaches this
//	                            severity (default error)
//	-timeout d                  abort after d (e.g. 30s)
//	-max-query-steps N          bound property-query propagation
//
// Inputs are linted one at a time, in order.
//
// Exit codes: 0 no findings at the -fail-on threshold, 1 internal error,
// 2 usage, 3 parse error, 4 analysis error, 5 resource limit, 6 canceled,
// 7 diagnostics at or above the threshold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	irregular "repro"
	"repro/internal/comperr"
	"repro/internal/kernels"
	"repro/internal/lint"
	"repro/internal/parallel"
)

func main() {
	mode := flag.String("mode", "full", "compiler configuration: full, noiaa or baseline")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text")
	failOn := flag.String("fail-on", "error", "exit 7 when a finding reaches this severity: info, warn or error")
	kernel := flag.String("kernel", "", "lint a bundled kernel instead of a file")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0: none)")
	maxQuerySteps := flag.Int("max-query-steps", 0, "bound property-query propagation steps (0: unlimited)")
	flag.Parse()

	threshold, err := lint.ParseSeverity(*failOn)
	if err != nil {
		usage(err)
	}
	m, err := parallel.ParseMode(*mode)
	if err != nil {
		usage(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	type input struct{ name, src string }
	var inputs []input
	switch {
	case *kernel != "":
		k, err := kernels.ByName(*kernel, kernels.Default)
		if err != nil {
			usage(err)
		}
		inputs = []input{{k.Name, k.Source}}
	case flag.NArg() >= 1:
		paths, err := collectPaths(flag.Args())
		if err != nil {
			fail(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				fail(err)
			}
			inputs = append(inputs, input{p, string(data)})
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: irrlint [flags] file.fl [file2.fl dir ...]  (or -kernel name); see -h")
		os.Exit(comperr.ExitUsage)
	}

	opts := irregular.Options{
		Mode:   m,
		Limits: irregular.Limits{MaxQuerySteps: *maxQuerySteps},
	}

	var items []item
	var firstErr error
	tripped := false
	for _, in := range inputs {
		diags, err := irregular.LintContext(ctx, in.src, opts)
		it := item{Name: in.name, Diags: diags, Counts: lint.Count(diags)}
		if err != nil {
			it.Error = err.Error()
			if firstErr == nil {
				firstErr = err
			}
		}
		if lint.AtLeast(diags, threshold) {
			tripped = true
		}
		items = append(items, it)
	}

	if *jsonOut {
		doc := struct {
			Schema string `json:"schema"`
			Items  []item `json:"items"`
		}{Schema: "irr-lint/1", Items: items}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		for _, it := range items {
			if it.Error != "" {
				fmt.Fprintf(os.Stderr, "irrlint: %s: %s\n", it.Name, it.Error)
				continue
			}
			printDiags(it.Name, it.Diags)
		}
		if !*jsonOut && firstErr == nil && !anyDiags(items) {
			fmt.Println("no findings")
		}
	}

	switch {
	case firstErr != nil:
		os.Exit(comperr.ExitCode(firstErr))
	case tripped:
		os.Exit(comperr.ExitDiagnostics)
	}
}

// item is one input's outcome in the JSON document.
type item struct {
	Name   string           `json:"name"`
	Error  string           `json:"error,omitempty"`
	Diags  []irregular.Diag `json:"diags"`
	Counts lint.Counts      `json:"counts"`
}

func anyDiags(items []item) bool {
	for _, it := range items {
		if len(it.Diags) > 0 {
			return true
		}
	}
	return false
}

// printDiags renders one input's findings in the canonical text format,
// prefixing each primary line with the input name.
func printDiags(name string, diags []irregular.Diag) {
	for _, d := range diags {
		loc := d.Span.Start.String()
		if d.Unit != "" {
			loc += " (in " + d.Unit + ")"
		}
		fmt.Printf("%s:%s: %s: %s [%s]\n", name, loc, d.Severity, d.Message, d.Code)
		for _, r := range d.Related {
			if r.Pos.IsValid() {
				fmt.Printf("    %s: %s\n", r.Pos, r.Message)
			} else {
				fmt.Printf("    %s\n", r.Message)
			}
		}
		if d.FixHint != "" {
			fmt.Printf("    hint: %s\n", d.FixHint)
		}
	}
}

// collectPaths expands the positional arguments: a regular file is taken
// as-is, a directory contributes its *.fl entries sorted by name.
func collectPaths(args []string) ([]string, error) {
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
	return paths, nil
}

// usage reports a bad flag value and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "irrlint:", err)
	os.Exit(comperr.ExitUsage)
}

// fail reports err and exits with the code of its error kind.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "irrlint:", err)
	os.Exit(comperr.ExitCode(err))
}
