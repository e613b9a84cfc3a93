package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// checkTraced runs p untraced and traced at the given worker count and
// returns both results and the tracer.
func checkTraced(t *testing.T, p func() *vprog.Program, workers int) (plain, traced *core.Result, tr *tracer) {
	t.Helper()
	c := core.New(mm.WMM)
	c.WorkersPerRun = workers
	plain = c.Run(p())

	tr = newTracer(16, 3, maxSamples)
	q := p()
	c = core.New(tr.model(mm.WMM, -1, q.SymSpec()))
	c.WorkersPerRun = workers
	traced = c.Run(q)
	if calls, _, _ := tr.consistentTotals(); calls == 0 || len(tr.graphSamples()) == 0 {
		t.Fatalf("wrapper saw %d calls and kept %d samples", calls, len(tr.graphSamples()))
	}
	return plain, traced, tr
}

// Tracing treiber-t3 changes nothing the explorer does: the sequential
// run's verdict and counters are reproduced exactly (104,890 popped and
// 750 executions when the benchmark was introduced).
func TestTracedTreiberReproducesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs treiber-t3 twice")
	}
	plain, traced, tr := checkTraced(t, func() *vprog.Program {
		return structsProgram(t, "treiber-t3")
	}, 1)
	if traced.Verdict != plain.Verdict || traced.Stats != plain.Stats {
		t.Errorf("traced run differs:\n  untraced %v %+v\n  traced   %v %+v", plain.Verdict, plain.Stats, traced.Verdict, traced.Stats)
	}
	t.Logf("verdict %v, %d popped, %d executions, %d Consistent calls", traced.Verdict, traced.Stats.Popped, traced.Stats.Executions, tr.models[0].calls.Load())
	// Every sampled graph decodes and replays.
	m := map[string]float64{}
	if err := graphReplays(tr.graphSamples(), m); err != nil {
		t.Fatal(err)
	}
}

// The wrapper is called from every worker of a parallel run at once;
// run with -race. Executions and the verdict are schedule-independent,
// so the traced run must reproduce them.
func TestTimedModelParallel(t *testing.T) {
	mcs := locks.ByName("mcs")
	plain, traced, tr := checkTraced(t, func() *vprog.Program {
		return harness.MutexClient(mcs, mcs.DefaultSpec(), 3, 1)
	}, 2)
	if traced.Verdict != plain.Verdict || traced.Stats.Executions != plain.Stats.Executions {
		t.Errorf("traced run differs: untraced %v/%d, traced %v/%d", plain.Verdict, plain.Stats.Executions, traced.Verdict, traced.Stats.Executions)
	}
	calls, rejects, _ := tr.consistentTotals()
	if rejects > calls || int(calls) < traced.Stats.Inconsist {
		t.Errorf("%d calls, %d rejects, %d inconsistent states", calls, rejects, traced.Stats.Inconsist)
	}
}

func structsProgram(t *testing.T, name string) *vprog.Program {
	t.Helper()
	inst, err := workloadByName(name).setup(&env{})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*explorer).prog
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// BENCHMARK.json names workloads the program runs, and exactly the
// metrics it reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// A short run of suite-opt, untraced and traced, answers correctly and
// reports every metric; the traced run writes its trace file.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite-opt workload twice")
	}
	t.Chdir(t.TempDir())
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "suite-opt", "--seed", "7", "--seconds", "0.1", "--trace", tc.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct %v, %d of %d failed: %s", tc.trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		var got, want []string
		for k := range res.Metrics {
			got = append(got, k)
		}
		for _, d := range tc.defs {
			want = append(want, d.name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("trace %s: metrics %v, want %v", tc.trace, got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(traceDir, "suite-opt-seed7.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
	if left, _ := os.ReadDir(scratchDir); len(left) != 0 {
		t.Errorf("scratch files left behind: %v", left)
	}
}
