package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Recorder in the Prometheus text exposition format
// (version 0.0.4) — the always-on scrape surface of irrd — and provides a
// minimal parser for validating that output in tests and smoke checks
// without external dependencies.
//
// Naming: internal metric names are dotted ("property.queries") and may
// carry one label with the "base:key=value" convention
// ("irrd_request_duration:endpoint=compile"). The renderer sanitizes the
// base into a Prometheus identifier and emits the label properly, so
// metrics with the same base but different label values form one family
// under a single # TYPE header. Names ending in "_total" are typed
// counter, everything else gauge; histograms are rendered with the
// conventional _seconds unit (converted from the internal nanoseconds),
// cumulative _bucket series, _sum and _count.

// ContentType is the exposition format media type for HTTP responses.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelPair is one parsed label of an internal metric name.
type labelPair struct{ k, v string }

// promName splits an internal name into the sanitized metric base name
// and its label pairs. Labels follow "base:k1=v1,k2=v2" (values must not
// contain ',' or '=').
func promName(name string) (base string, labels []labelPair) {
	name, tail, found := strings.Cut(name, ":")
	if found {
		for _, part := range strings.Split(tail, ",") {
			k, v, _ := strings.Cut(part, "=")
			labels = append(labels, labelPair{sanitize(k), v})
		}
	}
	return sanitize(name), labels
}

// renderLabels formats pairs (plus any extras) as a {k="v",...} block, or
// "" with no labels at all.
func renderLabels(pairs []labelPair, extra ...labelPair) string {
	all := append(append([]labelPair(nil), pairs...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, escapeLabel(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// sanitize maps a name onto the Prometheus identifier alphabet
// [a-zA-Z_][a-zA-Z0-9_]*.
func sanitize(s string) string {
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// series is one sample of a family.
type series struct {
	labels string // rendered {k="v"} or ""
	value  string
}

// family groups samples that share a base name.
type family struct {
	typ    string // counter | gauge | histogram
	series []series
}

// WritePrometheus renders the recorder's counters and histograms. It is
// nil-safe (writes nothing for a nil recorder) and deterministic: families
// and series are sorted by name.
func WritePrometheus(w io.Writer, r *Recorder) error {
	if r == nil {
		return nil
	}
	fams := map[string]*family{}
	add := func(base, typ string, s series) {
		f := fams[base]
		if f == nil {
			f = &family{typ: typ}
			fams[base] = f
		}
		f.series = append(f.series, s)
	}

	for name, v := range r.Counters() {
		base, pairs := promName(name)
		typ := "gauge"
		if strings.HasSuffix(base, "_total") {
			typ = "counter"
		}
		add(base, typ, series{labels: renderLabels(pairs), value: strconv.FormatInt(v, 10)})
	}

	for _, h := range r.Histograms() {
		base, pairs := promName(h.Name)
		if !strings.HasSuffix(base, "_seconds") {
			base += "_seconds"
		}
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(BucketBoundsNs) {
				le = formatSeconds(float64(BucketBoundsNs[i]) / 1e9)
			}
			labels := renderLabels(pairs, labelPair{"le", le})
			add(base+"_bucket", "", series{labels: labels, value: strconv.FormatInt(cum, 10)})
		}
		sumLabels := renderLabels(pairs)
		add(base+"_sum", "", series{labels: sumLabels, value: formatSeconds(float64(h.SumNs) / 1e9)})
		add(base+"_count", "", series{labels: sumLabels, value: strconv.FormatInt(cum, 10)})
		// The TYPE line belongs to the base family name.
		if f := fams[base]; f == nil {
			fams[base] = &family{typ: "histogram"}
		} else {
			f.typ = "histogram"
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.typ != "" {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
				return err
			}
		}
		// Bucket series are appended in ascending-bound order per label value
		// (+Inf last, the conventional layout); a lexical sort would put
		// "+Inf" first. Counter/gauge series come from a map and need the
		// sort for deterministic output.
		if !strings.HasSuffix(name, "_bucket") {
			sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		}
		for _, s := range f.series {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatSeconds renders a float without exponent noise for common
// magnitudes ("0.005", "1", "2.5").
func formatSeconds(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	return s
}

// PromSample is one parsed exposition sample.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus is a minimal exposition-format parser: enough to
// validate that a /metrics payload is well-formed (names, label syntax,
// float values) and to look samples up in tests. It rejects malformed
// lines rather than guessing. Comment and # TYPE/HELP lines are checked
// for shape and skipped.
func ParsePrometheus(text string) ([]PromSample, error) {
	var out []PromSample
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3 {
					return nil, fmt.Errorf("line %d: malformed %s comment", ln+1, fields[1])
				}
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out = append(out, sample)
	}
	return out, nil
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	// Metric name.
	i := 0
	for i < len(rest) {
		c := rest[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9') {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return s, fmt.Errorf("missing metric name in %q", line)
	}
	s.Name, rest = rest[:i], rest[i:]
	// Optional label set.
	if strings.HasPrefix(rest, "{") {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitLabels(body) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed label %q", pair)
			}
			key := strings.TrimSpace(pair[:eq])
			val := strings.TrimSpace(pair[eq+1:])
			if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
				return s, fmt.Errorf("unquoted label value %q", pair)
			}
			unq := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(val[1 : len(val)-1])
			s.Labels[key] = unq
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	// A timestamp may follow the value; we accept and ignore it.
	valStr := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valStr = rest[:sp]
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valStr, err)
	}
	s.Value = v
	return s, nil
}

// splitLabels splits a label-set body on commas outside quotes.
func splitLabels(body string) []string {
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	if strings.TrimSpace(body[start:]) != "" {
		parts = append(parts, body[start:])
	}
	return parts
}
