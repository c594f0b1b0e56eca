package pipeline

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
)

// Explain renders the per-loop decision log from the telemetry event
// stream: for every analyzed loop, the verdict, the dependence-test outcome
// per array, and the property queries issued while deciding it. Failed
// queries are expanded into their propagation trace — one line per HCG node
// the query visited, with the node class and outcome — which is the replay
// the paper's demand-driven framework makes possible. Returns a hint when
// the compilation ran without telemetry.
func (r *Result) Explain() string {
	if !r.Recorder.Enabled() {
		return "no telemetry recorded: compile with a recorder (irrc -explain enables one)\n"
	}
	roots := buildSpanTree(r.Recorder.Events())
	var sb strings.Builder
	sb.WriteString("decision log\n")
	for _, n := range roots {
		explainNode(&sb, n)
	}
	return sb.String()
}

// TraceTo writes the raw telemetry event stream, one line per event.
func (r *Result) TraceTo(w io.Writer) error {
	if !r.Recorder.Enabled() {
		_, err := fmt.Fprintln(w, "no telemetry recorded")
		return err
	}
	return obs.WriteTrace(w, r.Recorder.Events())
}

// spanNode is one node of the tree rebuilt from the flat event stream: a
// span ("<kind>.begin"/".end" pair) with its children, or a leaf event.
type spanNode struct {
	ev   obs.Event // begin event for spans, the event itself for leaves
	kind string    // span/event kind without the .begin/.end suffix
	kids []*spanNode
}

// buildSpanTree folds the flat event stream back into span nesting.
func buildSpanTree(events []obs.Event) []*spanNode {
	root := &spanNode{}
	stack := []*spanNode{root}
	for _, ev := range events {
		top := stack[len(stack)-1]
		switch {
		case strings.HasSuffix(ev.Kind, ".begin"):
			n := &spanNode{ev: ev, kind: strings.TrimSuffix(ev.Kind, ".begin")}
			top.kids = append(top.kids, n)
			stack = append(stack, n)
		case strings.HasSuffix(ev.Kind, ".end"):
			// Pop only a matching open span: when the event log wrapped
			// mid-span the begin event is gone and its end must not close an
			// ancestor.
			if len(stack) > 1 && top.kind == strings.TrimSuffix(ev.Kind, ".end") {
				stack = stack[:len(stack)-1]
			}
		default:
			top.kids = append(top.kids, &spanNode{ev: ev, kind: ev.Kind})
		}
	}
	return root.kids
}

// find returns the first direct child of the given kind.
func (n *spanNode) find(kind string) *spanNode {
	for _, k := range n.kids {
		if k.kind == kind {
			return k
		}
	}
	return nil
}

func explainNode(sb *strings.Builder, n *spanNode) {
	switch n.kind {
	case "phase":
		// Loops are analyzed inside the parallelize (and interchange)
		// phases; descend without printing phase chrome — the Summary
		// already carries the phase breakdown.
		for _, k := range n.kids {
			explainNode(sb, k)
		}
	case "loop":
		explainLoop(sb, n)
	}
}

func explainLoop(sb *strings.Builder, loop *spanNode) {
	name := loop.ev.Get("name")
	verdict := "serial"
	blockers := ""
	if v := loop.find("loop.verdict"); v != nil {
		if v.ev.Get("parallel") == "true" {
			verdict = "PARALLEL"
		}
		blockers = v.ev.Get("blockers")
	}
	fmt.Fprintf(sb, "\nloop %s: %s\n", name, verdict)
	if blockers != "" {
		fmt.Fprintf(sb, "  blockers: %s\n", blockers)
	}
	for _, k := range loop.kids {
		switch k.kind {
		case "dep.verdict":
			arr := k.ev.Get("array")
			if k.ev.Get("independent") == "true" {
				fmt.Fprintf(sb, "  dep %s: independent (%s test)\n", arr, k.ev.Get("test"))
			} else {
				fmt.Fprintf(sb, "  dep %s: dependence (%s)\n", arr, k.ev.Get("reason"))
			}
		case "query":
			explainQuery(sb, k, "  ")
		case "diagnose":
			fmt.Fprintf(sb, "  diagnose index array %s (subscript of %s):\n",
				k.ev.Get("index"), k.ev.Get("array"))
			for _, q := range k.kids {
				switch q.kind {
				case "query":
					explainQuery(sb, q, "    ")
				case "diagnose.result":
					// Summary line per replayed property; the query span
					// just above carries the expanded trace on failure.
					status := "holds"
					if q.ev.Get("ok") != "true" {
						status = "FAILS"
					}
					fmt.Fprintf(sb, "    => %s %s\n", q.ev.Get("prop"), status)
				}
			}
		}
	}
}

// explainQuery prints one property query: a single line when it succeeded,
// the full propagation trace (node class + HCG node per step) when it
// failed.
func explainQuery(sb *strings.Builder, q *spanNode, indent string) {
	ok := false
	reason := ""
	if res := q.find("query.result"); res != nil {
		ok = res.ev.Get("ok") == "true"
		reason = res.ev.Get("reason")
	}
	status := "verified"
	if !ok {
		status = "FAILED"
	}
	fmt.Fprintf(sb, "%squery %s over %s at %s: %s",
		indent, q.ev.Get("prop"), q.ev.Get("section"), q.ev.Get("at"), status)
	if reason != "" {
		fmt.Fprintf(sb, " (%s)", reason)
	}
	sb.WriteByte('\n')
	if !ok {
		explainSteps(sb, q, indent+"  ")
	}
}

// explainSteps prints the propagation steps of a (sub)tree, nesting under
// call sites and callee descents.
func explainSteps(sb *strings.Builder, n *spanNode, indent string) {
	for _, k := range n.kids {
		switch k.kind {
		case "query.step":
			fmt.Fprintf(sb, "%s[%s] %s -> %s", indent, k.ev.Get("class"), k.ev.Get("node"), k.ev.Get("outcome"))
			if sites := k.ev.Get("sites"); sites != "" {
				fmt.Fprintf(sb, " to %s call sites", sites)
			}
			sb.WriteByte('\n')
		case "query.call":
			fmt.Fprintf(sb, "%sinto callee at %s:\n", indent, k.ev.Get("node"))
			explainSteps(sb, k, indent+"  ")
		case "query.site":
			fmt.Fprintf(sb, "%sat call site %s in %s:\n", indent, k.ev.Get("node"), k.ev.Get("unit"))
			explainSteps(sb, k, indent+"  ")
		}
	}
}
