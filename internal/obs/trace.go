package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteTrace dumps an event stream as text, one event per line, indented by
// span depth. This is the raw view behind `irrview -trace`.
func WriteTrace(w io.Writer, events []Event) error {
	for i := range events {
		if _, err := fmt.Fprintln(w, events[i].String()); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event JSON array format
// (the "JSON Array Format" loadable by Perfetto and chrome://tracing).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope
}

// WriteChromeTrace renders an event stream in the Chrome trace-event JSON
// array format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Span begin/end pairs become duration ("B"/"E") events; standalone events
// become thread-scoped instants ("i"). Timestamps are the recorder-relative
// nanosecond stamps converted to microseconds. End events whose begin was
// overwritten once the event log was full are dropped rather than emitting
// an unbalanced "E" that would corrupt the nesting.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var out []chromeEvent
	var stack []string // open span kinds, for wrap-tolerant matching
	for i := range events {
		e := &events[i]
		switch {
		case strings.HasSuffix(e.Kind, ".begin"):
			name := strings.TrimSuffix(e.Kind, ".begin")
			stack = append(stack, name)
			out = append(out, chromeEvent{
				Name: name, Ph: "B", Ts: float64(e.TNs) / 1e3,
				Pid: 1, Tid: 1, Args: fieldArgs(e),
			})
		case strings.HasSuffix(e.Kind, ".end"):
			name := strings.TrimSuffix(e.Kind, ".end")
			if len(stack) == 0 || stack[len(stack)-1] != name {
				continue // begin lost to wrap-around; skip the unbalanced end
			}
			stack = stack[:len(stack)-1]
			out = append(out, chromeEvent{
				Name: name, Ph: "E", Ts: float64(e.TNs) / 1e3,
				Pid: 1, Tid: 1,
			})
		default:
			out = append(out, chromeEvent{
				Name: e.Kind, Ph: "i", Ts: float64(e.TNs) / 1e3,
				Pid: 1, Tid: 1, Args: fieldArgs(e), S: "t",
			})
		}
	}
	// Close any spans left open at snapshot time so the JSON is balanced.
	for i := len(stack) - 1; i >= 0; i-- {
		ts := 0.0
		if len(events) > 0 {
			ts = float64(events[len(events)-1].TNs) / 1e3
		}
		out = append(out, chromeEvent{Name: stack[i], Ph: "E", Ts: ts, Pid: 1, Tid: 1})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func fieldArgs(e *Event) map[string]string {
	if len(e.Fields) == 0 {
		return nil
	}
	m := make(map[string]string, len(e.Fields))
	for _, f := range e.Fields {
		m[f.K] = f.V
	}
	return m
}
