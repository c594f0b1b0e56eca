package lint

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/sem"
)

func sourceDiags(t *testing.T, src string) []Diag {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return Source(dataflow.NewContext(info), nil, nil)
}

// byCode filters diagnostics to one code.
func byCode(diags []Diag, code string) []Diag {
	var out []Diag
	for _, d := range diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestUseBeforeDef(t *testing.T) {
	diags := sourceDiags(t, `program p
  integer a, b
  real x
  b = 2
  if (b > 0) then
    a = 1
  end if
  x = real(a) + real(b)
end
`)
	got := byCode(diags, CodeUseBeforeDef)
	if len(got) != 1 {
		t.Fatalf("want 1 IRR1001, got %v", diags)
	}
	if got[0].Message == "" || !strings.Contains(got[0].Message, `"a"`) {
		t.Errorf("message should name a: %s", got[0].Message)
	}
	if got[0].Span.Start.Line != 8 {
		t.Errorf("want line 8, got %v", got[0].Span.Start)
	}
	if got[0].Severity != Warning {
		t.Errorf("severity = %v", got[0].Severity)
	}
}

func TestUseBeforeDefCleanWhenAssignedOnAllPaths(t *testing.T) {
	diags := sourceDiags(t, `program p
  integer a, b
  b = 2
  if (b > 0) then
    a = 1
  else
    a = 2
  end if
  b = a
end
`)
	if got := byCode(diags, CodeUseBeforeDef); len(got) != 0 {
		t.Fatalf("clean program reported: %v", got)
	}
}

func TestUseBeforeDefSkipsGlobalsInSubroutines(t *testing.T) {
	// g is assigned by the main program before the call; the per-unit
	// check must not flag its read inside the subroutine.
	diags := sourceDiags(t, `program p
  integer g, h
  g = 1
  call sub
  h = g
end

subroutine sub
  g = g + 1
end
`)
	if got := byCode(diags, CodeUseBeforeDef); len(got) != 0 {
		t.Fatalf("global read in subroutine flagged: %v", got)
	}
}

func TestUnreachable(t *testing.T) {
	diags := sourceDiags(t, `program p
  integer a
  goto 10
  a = 1
  if (a > 0) then
    a = 2
  end if
10 continue
  a = 3
end
`)
	got := byCode(diags, CodeUnreachable)
	// Outermost reports only: the assignment and the IF, not the IF's body.
	if len(got) != 2 {
		t.Fatalf("want 2 IRR1002 (nested suppressed), got %v", got)
	}
	if got[0].Span.Start.Line != 4 || got[1].Span.Start.Line != 5 {
		t.Errorf("lines = %v, %v", got[0].Span.Start, got[1].Span.Start)
	}
}

func TestDoLoopLints(t *testing.T) {
	diags := sourceDiags(t, `program p
  param z = 0
  integer i, s
  s = 0
  do i = 1, 10, z
    s = s + 1
  end do
  do i = 5, 1
    s = s + 1
  end do
  do i = 1, 5, -1
    s = s + 1
  end do
end
`)
	if got := byCode(diags, CodeZeroStep); len(got) != 1 || got[0].Span.Start.Line != 5 {
		t.Fatalf("IRR1003: %v", got)
	}
	zt := byCode(diags, CodeZeroTrip)
	if len(zt) != 2 {
		t.Fatalf("want 2 IRR1004, got %v", zt)
	}
	if zt[0].Span.Start.Line != 8 || zt[1].Span.Start.Line != 11 {
		t.Errorf("IRR1004 lines: %v %v", zt[0].Span.Start, zt[1].Span.Start)
	}
	if zt[0].Severity != Warning || byCode(diags, CodeZeroStep)[0].Severity != Error {
		t.Error("severities off the code table")
	}
}

func TestOutOfBounds(t *testing.T) {
	diags := sourceDiags(t, `program p
  param n = 8
  real a(n)
  integer i
  a(n + 1) = 0.0
  a(0) = 1.0
  do i = 1, n
    a(i) = 2.0
  end do
end
`)
	got := byCode(diags, CodeOutOfBounds)
	if len(got) != 2 {
		t.Fatalf("want 2 IRR3002, got %v", diags)
	}
	if got[0].Span.Start.Line != 5 || !strings.Contains(got[0].Message, "above") {
		t.Errorf("high violation: %+v", got[0])
	}
	if got[1].Span.Start.Line != 6 || !strings.Contains(got[1].Message, "below") {
		t.Errorf("low violation: %+v", got[1])
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("%v -> %s -> %v", s, b, back)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestParseSeverity(t *testing.T) {
	for name, want := range map[string]Severity{
		"info": Info, "warn": Warning, "warning": Warning, "error": Error,
	} {
		got, err := ParseSeverity(name)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSeverity("everything"); err == nil {
		t.Error("bad name accepted")
	}
}

func TestSortDeterministic(t *testing.T) {
	diags := []Diag{
		New(CodeUnreachable, lang.Pos{Line: 4, Col: 1}, "b"),
		New(CodeUseBeforeDef, lang.Pos{Line: 4, Col: 1}, "a"),
		New(CodeUseBeforeDef, lang.Pos{Line: 2, Col: 9}, "c"),
		New(CodeUseBeforeDef, lang.Pos{Line: 2, Col: 3}, "d"),
	}
	Sort(diags)
	want := []string{"d", "c", "a", "b"}
	for i, d := range diags {
		if d.Message != want[i] {
			t.Fatalf("order %d = %q, want %q (%v)", i, d.Message, want[i], diags)
		}
	}
}

func TestCountsAndAtLeast(t *testing.T) {
	diags := []Diag{
		New(CodeAuditIncomplete, lang.Pos{}, "i"),
		New(CodeUseBeforeDef, lang.Pos{}, "w"),
		New(CodeOutOfBounds, lang.Pos{}, "e"),
	}
	c := Count(diags)
	if c.Errors != 1 || c.Warnings != 1 || c.Infos != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if !AtLeast(diags, Error) || !AtLeast(diags, Info) {
		t.Error("AtLeast misses present severities")
	}
	if AtLeast(diags[:1], Warning) {
		t.Error("info-only diags reach warn threshold")
	}
}

func TestRender(t *testing.T) {
	d := New(CodeUseBeforeDef, lang.Pos{Line: 12, Col: 5}, "scalar %q is read", "u")
	d.Related = append(d.Related, Related{Pos: lang.Pos{Line: 3, Col: 1}, Message: "declared here"})
	d.Related = append(d.Related, Related{Message: "no position"})
	d.FixHint = "assign u first"
	got := Render([]Diag{d})
	want := "12:5: warning: scalar \"u\" is read [IRR1001]\n" +
		"    3:1: declared here\n" +
		"    no position\n" +
		"    hint: assign u first\n"
	if got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}

func TestCodesRegistryComplete(t *testing.T) {
	for _, code := range []string{
		CodeUseBeforeDef, CodeUnreachable, CodeZeroStep, CodeZeroTrip,
		CodeNonInjective, CodeOutOfBounds, CodeAuditParallel,
		CodeAuditPrivate, CodeAuditIncomplete,
	} {
		if _, ok := Codes[code]; !ok {
			t.Errorf("code %s missing from registry", code)
		}
	}
}
