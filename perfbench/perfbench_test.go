package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	irregular "repro"
	"repro/internal/kernels"
)

// binDir holds irrd and irrgw built for the serve-mix tests.
var binDir string

func TestMain(m *testing.M) {
	if reps := os.Getenv(calEnv); reps != "" {
		os.Exit(calibrationChild(reps, os.Stdout))
	}
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/irrd", "repro/cmd/irrgw")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building irrd and irrgw: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs the command in short mode and returns its parsed last line.
func runBench(t *testing.T, workload string, trace int) map[string]any {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"--workload", workload, "--seed", "3", "--seconds", "0.3",
		"--trace", strconv.Itoa(trace), "--root", "..", "--bin", binDir, "--out", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, stdout.String())
	}
	return res
}

// TestWorkloadsShort runs every workload briefly, untraced and traced, and
// checks the result line: exactly the four keys, all ops correct, and the
// metric set of the mode.
func TestWorkloadsShort(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(wl.name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				res := runBench(t, wl.name, trace)
				if len(res) != 4 {
					t.Errorf("result has keys %v, want correct, attempted, failed, metrics", res)
				}
				if res["correct"] != true || res["failed"] != 0.0 || res["attempted"].(float64) < 1 {
					t.Errorf("result %v, want every op correct", res)
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				metrics := res["metrics"].(map[string]any)
				if len(metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(metrics), len(want))
				}
				for _, d := range want {
					m, ok := metrics[d.Name].(map[string]any)
					if !ok || m["unit"] != d.Unit {
						t.Errorf("metric %s: got %v, want unit %s", d.Name, metrics[d.Name], d.Unit)
					}
				}
			})
		}
	}
}

// TestOracleRejectsCorruption shows the per-op oracle of run-kernels
// accepts a correct compile+run and rejects a corrupted expected checksum
// and a flipped verdict line; and that the differential oracle rejects a
// changed array element.
func TestOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	k, err := kernels.ByName("trfd", kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(ctx, k.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := irregular.CompileContext(ctx, k.Source, compileOpts)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rr, err := res.RunContext(ctx, irregular.RunOptions{Processors: runProcs, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := verdictLines(res.Summary())
	w := &libWorkload{run: true}
	good := &libItem{verdicts: verdicts, target: k.TargetLoop, ref: ref, cycles: rr.Time}
	if err := w.check(good, res, rr, out.String()); err != nil {
		t.Fatalf("correct op rejected: %v", err)
	}

	// A corrupted expected checksum: scale the printed number by 1+1e-3.
	fields := strings.Fields(ref.output)
	last := fields[len(fields)-1]
	v, err := strconv.ParseFloat(last, 64)
	if err != nil {
		t.Fatalf("reference output %q does not end in a checksum", ref.output)
	}
	corrupt := *ref
	corrupt.output = strings.Replace(ref.output, last, strconv.FormatFloat(v*(1+1e-3)+1e-3, 'g', -1, 64), 1)
	bad := *good
	bad.ref = &corrupt
	if err := w.check(&bad, res, rr, out.String()); err == nil {
		t.Error("corrupted expected checksum accepted")
	}

	// A flipped verdict line.
	if !strings.Contains(verdicts, "  PARALLEL ") {
		t.Fatalf("no parallel loop in %q", verdicts)
	}
	flipped := *good
	flipped.verdicts = strings.Replace(verdicts, "  PARALLEL ", "  serial   ", 1)
	if err := w.check(&flipped, res, rr, out.String()); err == nil {
		t.Error("flipped verdict line accepted")
	}
	if err := checkTargetParallel(strings.ReplaceAll(verdicts, "PARALLEL", "serial  "), k.TargetLoop); err == nil {
		t.Error("serial target loop accepted")
	}

	// The differential oracle of compile-corpus.
	got, err := execute(ctx, res.Info, runProcs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameMemory(ref, got); err != nil {
		t.Fatalf("compiled trfd differs from its reference: %v", err)
	}
	for name, a := range got.reals {
		if len(a) > 0 {
			a[0] += 1
			if err := checkSameMemory(ref, got); err == nil {
				t.Errorf("changed %s(1) accepted", name)
			}
			break
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric names, units
// and directions, and the workload names, in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	for _, c := range []struct {
		kind      string
		json, cmd []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.cmd) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", c.kind, len(c.json), len(c.cmd))
			continue
		}
		for i := range c.cmd {
			if c.json[i] != c.cmd[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", c.kind, i, c.json[i], c.cmd[i])
			}
		}
	}
}
