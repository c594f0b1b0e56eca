// Command irrview inspects the compiler's intermediate structures for an
// F-lite program: the token stream, the (formatted) AST, the flat
// control-flow graph with its natural loops, the hierarchical control
// graph, the single-indexed access classification of every loop, and the
// raw telemetry event stream of a full compilation (-trace).
//
// Usage:
//
//	irrview [-tokens] [-ast] [-cfg] [-hcg] [-access] file.fl
//	irrview -kernel tree -cfg
//	irrview -kernel trfd -trace
//	irrview -kernel trfd -trace-out trfd.trace.json   (load in Perfetto)
//
// With no selection flags everything except -trace is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	irregular "repro"
	"repro/internal/cfg"
	"repro/internal/core/singleindex"
	"repro/internal/dataflow"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/sem"
)

func main() {
	tokens := flag.Bool("tokens", false, "dump the token stream")
	ast := flag.Bool("ast", false, "dump the formatted AST")
	cfgF := flag.Bool("cfg", false, "dump the flat CFG and its natural loops")
	hcg := flag.Bool("hcg", false, "dump the hierarchical control graph")
	access := flag.Bool("access", false, "dump single-indexed access classification per loop")
	defs := flag.Bool("defs", false, "dump scalar reaching definitions per unit")
	trace := flag.Bool("trace", false, "compile with telemetry and dump the raw event stream")
	traceOut := flag.String("trace-out", "", "compile with telemetry and write a Chrome trace-event file (load in Perfetto; \"-\" for stdout)")
	kernel := flag.String("kernel", "", "inspect a bundled kernel instead of a file")
	flag.Parse()

	var src string
	switch {
	case *kernel != "":
		k, err := kernels.ByName(*kernel, kernels.Small)
		if err != nil {
			fail(err)
		}
		src = k.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: irrview [flags] file.fl  (or -kernel name); see -h")
		os.Exit(2)
	}

	all := !*tokens && !*ast && !*cfgF && !*hcg && !*access && !*defs && !*trace && *traceOut == ""

	// -trace / -trace-out run the whole pipeline (the other views work
	// pre-pipeline on the untransformed program), so handle them first and
	// on their own. Both use the debug-level recorder: the point of the
	// views is the full per-node propagation stream.
	if *trace || *traceOut != "" {
		res, err := irregular.Compile(src, irregular.Options{Trace: true})
		if err != nil {
			fail(err)
		}
		if *trace {
			fmt.Println("=== telemetry event stream ===")
			if err := res.TraceTo(os.Stdout); err != nil {
				fail(err)
			}
		}
		if *traceOut != "" {
			w := os.Stdout
			if *traceOut != "-" {
				f, err := os.Create(*traceOut)
				if err != nil {
					fail(err)
				}
				defer f.Close()
				w = f
			}
			if err := obs.WriteChromeTrace(w, res.Recorder.Events()); err != nil {
				fail(err)
			}
		}
	}

	if all || *tokens {
		dumpTokens(src)
	}

	prog, err := lang.Parse(src)
	if err != nil {
		fail(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		fail(err)
	}

	if all || *ast {
		fmt.Println("=== AST (formatted) ===")
		fmt.Print(lang.Format(prog))
		fmt.Println()
	}
	if all || *cfgF {
		dumpCFG(prog)
	}
	if all || *hcg {
		dumpHCG(prog)
	}
	if all || *access {
		dumpAccess(prog, info)
	}
	if all || *defs {
		dumpDefs(prog, info)
	}
}

// dumpDefs prints, for each scalar use, the statements whose definitions
// reach it (classic reaching-definitions, interprocedural effects via call
// summaries).
func dumpDefs(prog *lang.Program, info *sem.Info) {
	fc := dataflow.NewContext(info)
	for _, u := range prog.Units() {
		g := fc.Graph(u)
		rd := dataflow.ComputeReaching(g, fc)
		fmt.Printf("=== reaching definitions in %s ===\n", u.Name)
		for _, n := range g.Nodes {
			f := fc.Node(n)
			seen := map[string]bool{}
			for _, r := range f.ScalarReads {
				if seen[r.Name] {
					continue
				}
				seen[r.Name] = true
				var ids []string
				for _, d := range rd.DefsOf(n, r.Slot) {
					ids = append(ids, fmt.Sprintf("#%d", d.ID))
				}
				if len(ids) > 0 {
					fmt.Printf("  %-40s uses %-8s defined at %s\n", n, r.Name, strings.Join(ids, " "))
				}
			}
		}
		fmt.Println()
	}
}

func dumpTokens(src string) {
	fmt.Println("=== tokens ===")
	toks, err := lang.Tokenize(src)
	if err != nil {
		fail(err)
	}
	line := 0
	for _, t := range toks {
		if t.Kind == lang.NEWLINE {
			fmt.Println()
			line = 0
			continue
		}
		if line > 0 {
			fmt.Print(" ")
		}
		fmt.Print(t)
		line++
	}
	fmt.Println()
}

func dumpCFG(prog *lang.Program) {
	for _, u := range prog.Units() {
		fmt.Printf("=== CFG of %s ===\n", u.Name)
		g := cfg.Build(u)
		for _, n := range g.Nodes {
			var succs []string
			for _, s := range n.Succs {
				succs = append(succs, fmt.Sprintf("#%d", s.ID))
			}
			fmt.Printf("  %-48s -> %s\n", n, strings.Join(succs, " "))
		}
		loops := g.NaturalLoops()
		fmt.Printf("  natural loops: %d\n", len(loops))
		for _, l := range loops {
			kind := "goto-formed"
			switch l.Stmt.(type) {
			case *lang.DoStmt:
				kind = "do"
			case *lang.WhileStmt:
				kind = "while"
			}
			fmt.Printf("    head #%d (%s), %d nodes\n", l.Head.ID, kind, len(l.Body()))
		}
		fmt.Println()
	}
}

func dumpHCG(prog *lang.Program) {
	hp, _ := cfg.BuildHCG(context.Background(), prog, cfg.Build) // never cancelled, so never an error
	for _, u := range prog.Units() {
		fmt.Printf("=== HCG of %s ===\n", u.Name)
		dumpSection(hp.Units[u], 1)
		fmt.Println()
	}
}

func dumpSection(g *cfg.HGraph, depth int) {
	ind := strings.Repeat("  ", depth)
	cyc := ""
	if g.Cyclic {
		cyc = " (cyclic: conservative summaries)"
	}
	fmt.Printf("%ssection%s\n", ind, cyc)
	for _, n := range g.Nodes {
		var succs []string
		for _, s := range n.Succs {
			succs = append(succs, fmt.Sprintf("h%d", s.ID))
		}
		fmt.Printf("%s  %-44s -> %s\n", ind, n, strings.Join(succs, " "))
		if n.Body != nil {
			dumpSection(n.Body, depth+2)
		}
	}
}

func dumpAccess(prog *lang.Program, info *sem.Info) {
	fc := dataflow.NewContext(info)
	for _, u := range prog.Units() {
		g := cfg.Build(u)
		for _, l := range g.NaturalLoops() {
			name := "goto-loop"
			switch s := l.Stmt.(type) {
			case *lang.DoStmt:
				name = "do " + s.Var.Name
			case *lang.WhileStmt:
				name = "while"
			}
			accs := singleindex.Find(fc, g, l)
			if len(accs) == 0 {
				continue
			}
			fmt.Printf("=== %s: %s @ node #%d ===\n", u.Name, name, l.Head.ID)
			for _, a := range accs {
				fmt.Printf("  %s(%s): evolution %s, %d writes, %d reads\n",
					a.Array, a.Index, a.ClassifyEvolution(), len(a.Writes), len(a.Reads))
				if cw := singleindex.CheckConsecutivelyWritten(a); cw != nil {
					dir := "increasing"
					if !cw.Increasing {
						dir = "decreasing"
					}
					fmt.Printf("    consecutively written (%s), reads covered: %v\n", dir, cw.ReadsCovered)
				}
				if st := singleindex.CheckStack(a); st != nil {
					fmt.Printf("    array stack, bottom %s, reset-first: %v\n",
						lang.FormatExpr(st.Bottom), st.ResetFirst)
				}
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "irrview:", err)
	os.Exit(1)
}
