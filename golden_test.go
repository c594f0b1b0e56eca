package irregular

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/sem"
)

var update = flag.Bool("update", false, "rewrite the behaviour goldens under testdata/golden")

// goldenInput is one compilation the behaviour golden pins.
type goldenInput struct {
	name string
	src  string
	opts Options
}

// goldenModes are the configurations every kernel is compiled under: the
// three compilers of Fig. 16 plus the Fig. 15(a), recurrence and
// interchange ablations.
var goldenModes = []struct {
	name string
	opts Options
}{
	{"full", Options{Mode: Full}},
	{"noiaa", Options{Mode: NoIAA}},
	{"baseline", Options{Mode: Baseline}},
	{"intra", Options{Intraprocedural: true}},
	{"norec", Options{NoRecurrence: true}},
	{"interchange", Options{Interchange: true}},
}

// goldenProgen is the fixed generator configuration of the progen inputs.
var goldenProgen = progen.Config{N: 24, MaxBlocks: 8, Subroutines: true}

// interchangeSrc is the one input whose nest the interchange pass swaps,
// so it is the one that exercises the mid-analysis invalidation.
const interchangeSrc = `
program p
  param n = 16
  real m(n, n)
  integer i, j
  do i = 1, n
    do j = 1, n
      m(i, j) = real(i + j)
    end do
  end do
end
`

func goldenInputs(t *testing.T) []goldenInput {
	var in []goldenInput
	for _, k := range kernels.All(kernels.Small) {
		for _, m := range goldenModes {
			in = append(in, goldenInput{"kernel-" + k.Name + "-" + m.name, k.Source, m.opts})
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		src := progen.Generate(rand.New(rand.NewSource(seed)), goldenProgen)
		in = append(in, goldenInput{fmt.Sprintf("progen-%02d", seed), src, Options{}})
	}
	paths, err := filepath.Glob("examples/corpus/*.fl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := "corpus-" + strings.TrimSuffix(filepath.Base(path), ".fl")
		in = append(in, goldenInput{name, string(src), Options{}})
	}
	in = append(in, goldenInput{"interchange", interchangeSrc, Options{Interchange: true}})
	return in
}

// TestBehaviourGolden pins what "same behaviour" means for the whole
// compiler: per input, the summary, the -explain decision log, the lint
// diagnostics, the irr-metrics/1 document and, after runs on 1 and 8
// simulated processors (and on 8 in reverse chunk order with poisoned
// private copies), the total cycles, the per-loop machine counters, a
// digest of final memory and the PRINT output. Wall-clock durations and histograms are masked;
// everything else must match byte for byte. Regenerate with:
//
//	go test . -run TestBehaviourGolden -update
//
// and say in CHANGES.md why the behaviour changed.
func TestBehaviourGolden(t *testing.T) {
	for _, in := range goldenInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			got := goldenRecord(t, in)
			path := filepath.Join("testdata", "golden", in.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("behaviour drifted from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// goldenRecord compiles one input with the decision log and the lint phase
// on, runs it at P=1, at P=8 and at P=8 in reverse order with poison, and
// renders everything deterministic.
func goldenRecord(t *testing.T, in goldenInput) string {
	opts := in.opts
	opts.Trace = true
	opts.Lint = true
	res, err := Compile(in.src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var sb strings.Builder
	section := func(name string) { fmt.Fprintf(&sb, "== %s\n", name) }

	masked := *res.Result
	masked.CompileTime, masked.PropertyTime = 0, 0
	masked.Phases = append([]pipeline.PhaseTime(nil), res.Phases...)
	for i := range masked.Phases {
		masked.Phases[i].Duration = 0
	}
	section("summary")
	sb.WriteString(masked.Summary())
	section("explain")
	sb.WriteString(res.Explain())
	section("lint")
	sb.WriteString(RenderDiags(res.Diags))

	m := res.Metrics()
	m.CompileNs, m.PropertyNs, m.Histograms = 0, 0, nil
	for i := range m.Phases {
		m.Phases[i].Ns = 0
	}
	doc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	section("metrics")
	sb.Write(doc)
	sb.WriteByte('\n')

	for _, procs := range []int{1, 8} {
		res.Recorder = obs.New() // fresh counters per run
		var out bytes.Buffer
		section(fmt.Sprintf("run P=%d", procs))
		run, err := res.Run(RunOptions{Processors: procs, Out: &out})
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
			continue
		}
		fmt.Fprintf(&sb, "cycles %d\nparallel regions %d\n", run.Time, run.ParallelRegions)
		counters := res.Recorder.Counters()
		var names []string
		for k := range counters {
			if strings.HasPrefix(k, "machine.loop.") {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&sb, "%s %d\n", k, counters[k])
		}
		fmt.Fprintf(&sb, "memory %s\n", memoryDigest(t, res.Info, run.interp))
		sb.WriteString("-- output\n")
		sb.Write(out.Bytes())
	}

	// The reverse chunk order with poisoned private copies is the schedule
	// under which a wrong copy-out or a missed privatization shows in
	// final memory.
	var out bytes.Buffer
	section("run P=8 reverse poison")
	rev := interp.New(res.Info, interp.Options{
		Machine:  machine.New(machine.Origin2000, 8),
		Out:      &out,
		Schedule: interp.Reverse,
		Poison:   true,
	})
	if err := rev.Run(); err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
	} else {
		fmt.Fprintf(&sb, "cycles %d\nparallel regions %d\nmemory %s\n",
			rev.Machine().Time(), rev.Machine().ParallelRegions(), memoryDigest(t, res.Info, rev))
		sb.WriteString("-- output\n")
		sb.Write(out.Bytes())
	}
	return sb.String()
}

// memoryDigest hashes the final value of every global integer and real
// scalar and array, in name order, with reals as their bit patterns.
// Logical globals have no accessor and are left out.
func memoryDigest(t *testing.T, info *sem.Info, in *interp.Interp) string {
	names := make([]string, 0, len(info.Globals))
	for name := range info.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	word := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	for _, name := range names {
		sym := info.Globals[name]
		var err error
		switch {
		case sym.Kind == sem.ScalarSym && sym.Type == lang.TInteger:
			var v int64
			v, err = in.GlobalInt(name)
			word(uint64(v))
		case sym.Kind == sem.ScalarSym && sym.Type == lang.TReal:
			var v float64
			v, err = in.GlobalReal(name)
			word(math.Float64bits(v))
		case sym.Kind == sem.ArraySym && sym.Type == lang.TInteger:
			var vs []int64
			vs, err = in.GlobalArrayInt(name)
			for _, v := range vs {
				word(uint64(v))
			}
		case sym.Kind == sem.ArraySym && sym.Type == lang.TReal:
			var vs []float64
			vs, err = in.GlobalArrayReal(name)
			for _, v := range vs {
				word(math.Float64bits(v))
			}
		default:
			continue
		}
		if err != nil {
			t.Fatalf("memory digest: %v", err)
		}
		h.Write([]byte(name))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// firstDiff shows the first differing line of two renderings with a little
// context, so a failure points at the drifted fact.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(identical lines, different line endings)"
}
