package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed region the benchmark recorded around (or, for
// children, derived from the data returned by) a call into the program.
type span struct {
	name  string
	tid   int // the caller (closed-loop connection) that issued the op
	start time.Duration
	dur   time.Duration
	args  map[string]any
}

// tracer keeps the spans of a traced run in memory; write emits them once,
// at the end, as a Chrome trace-event file that Perfetto loads.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span; it is safe for concurrent callers.
func (t *tracer) add(tid int, name string, start time.Time, dur time.Duration, args map[string]any) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, tid: tid, start: start.Sub(t.epoch), dur: dur, args: args})
	t.mu.Unlock()
}

// write stores the spans as a Chrome trace-event JSON object.
func (t *tracer) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":")
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, ",\"traceEvents\":[\n")
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid, Args: s.args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
		}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
