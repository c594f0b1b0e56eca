package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// WriteChromeTrace emits the Chrome trace-event JSON array format: B/E
// pairs for spans, thread-scoped instants for events, balanced output even
// when the input lost its oldest events to a full event log.
func TestWriteChromeTrace(t *testing.T) {
	r := New()
	outer := r.StartSpan("pipeline", F("kernel", "trfd"))
	r.Event("verdict", F("loop", "L1"))
	inner := r.StartSpan("parallelize")
	inner.End()
	outer.End()

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, r.Events()); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, sb.String())
	}

	type key struct{ name, ph string }
	var got []key
	for _, e := range evs {
		got = append(got, key{e.Name, e.Ph})
	}
	want := []key{
		{"pipeline", "B"},
		{"verdict", "i"},
		{"parallelize", "B"},
		{"parallelize", "E"},
		{"pipeline", "E"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if evs[0].Args["kernel"] != "trfd" {
		t.Errorf("span args = %v", evs[0].Args)
	}
	if evs[1].S != "t" {
		t.Errorf("instant scope = %q", evs[1].S)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Ts < evs[i-1].Ts {
			t.Errorf("timestamps not monotonic at %d", i)
		}
	}
}

// An end whose begin was lost to wrap-around is skipped; spans left open at
// snapshot time are closed so the array stays balanced.
func TestWriteChromeTraceWrapTolerance(t *testing.T) {
	events := []Event{
		{Seq: 10, TNs: 1000, Kind: "lost.end"},   // begin overwritten: skip
		{Seq: 11, TNs: 2000, Kind: "open.begin"}, // never closed: synthesize E
		{Seq: 12, TNs: 3000, Kind: "note"},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatal(err)
	}
	depth := 0
	sawLost := false
	for _, e := range evs {
		switch e.Ph {
		case "B":
			depth++
		case "E":
			depth--
		}
		if depth < 0 {
			t.Fatalf("unbalanced E at %+v", e)
		}
		if e.Name == "lost" {
			sawLost = true
		}
	}
	if depth != 0 {
		t.Errorf("final depth %d, want 0 (open spans must be closed)", depth)
	}
	if sawLost {
		t.Error("unmatched end event was emitted")
	}
}
