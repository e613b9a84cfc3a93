package bench_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/locks"
	"repro/internal/stats"
	"repro/internal/wmsim"
)

// tinyConfig keeps unit tests fast while exercising every code path.
func tinyConfig() bench.Config {
	cfg := bench.Quick()
	cfg.Threads = []int{1, 2, 8}
	cfg.Runs = 3
	cfg.Cycles = 50_000
	cfg.Algorithms = []*locks.Algorithm{
		locks.ByName("spin"), locks.ByName("ttas"),
		locks.ByName("mcs"), locks.ByName("qspin"),
	}
	return cfg
}

func TestCampaignShape(t *testing.T) {
	cfg := tinyConfig()
	recs := bench.RunCampaign(cfg)
	// 2 machines × 4 locks × 2 variants × 3 thread counts × 3 runs.
	want := 2 * 4 * 2 * 3 * 3
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Count == 0 || r.Throughput <= 0 {
			t.Fatalf("degenerate record: %+v", r)
		}
	}
	groups := bench.GroupRecords(recs)
	if len(groups) != want/cfg.Runs {
		t.Fatalf("got %d groups, want %d", len(groups), want/cfg.Runs)
	}
	for _, g := range groups {
		if g.N != cfg.Runs {
			t.Fatalf("group %+v has %d samples, want %d", g.GroupKey, g.N, cfg.Runs)
		}
		if g.Stability < 1.0 {
			t.Fatalf("stability below 1.0: %+v", g)
		}
	}
	speedups := bench.Speedups(groups)
	if len(speedups) != len(groups)/2 {
		t.Fatalf("got %d speedups, want %d", len(speedups), len(groups)/2)
	}
}

// TestSpeedupShape asserts the paper's qualitative results: optimized
// is at least as fast as sc-only at a single thread, and the x86
// single-thread speedups are the most pronounced.
func TestSpeedupShape(t *testing.T) {
	cfg := tinyConfig()
	recs := bench.RunCampaign(cfg)
	speedups := bench.Speedups(bench.GroupRecords(recs))
	var x86One, armOne []float64
	for _, s := range speedups {
		if s.Threads != 1 {
			continue
		}
		if s.Arch == "x86_64" {
			x86One = append(x86One, s.Value)
		} else {
			armOne = append(armOne, s.Value)
		}
	}
	if len(x86One) == 0 || len(armOne) == 0 {
		t.Fatal("missing single-thread speedups")
	}
	for _, v := range append(append([]float64{}, x86One...), armOne...) {
		if v < -0.05 {
			t.Errorf("optimized variant slower than sc-only at 1 thread: %.4f", v)
		}
	}
	sx := stats.Summarize(x86One)
	sa := stats.Summarize(armOne)
	if sx.Max <= sa.Max {
		t.Errorf("expected the most pronounced single-thread speedup on x86 (paper: up to 7x): x86 max %.3f vs arm max %.3f", sx.Max, sa.Max)
	}
}

func TestTablesRender(t *testing.T) {
	cfg := tinyConfig()
	recs := bench.RunCampaign(cfg)
	groups := bench.GroupRecords(recs)
	speedups := bench.Speedups(groups)

	if s := bench.Table2(recs, 10); !strings.Contains(s, "throughput") {
		t.Error("Table 2 missing throughput column")
	}
	if s := bench.Table3(groups); !strings.Contains(s, "stability") {
		t.Error("Table 3 missing stability column")
	}
	if s := bench.Table4(groups); !strings.Contains(s, "Total") {
		t.Error("Table 4 missing total row")
	}
	if s := bench.Table5(speedups); !strings.Contains(s, "mcs") {
		t.Error("Table 5 missing mcs row")
	}
	if s := bench.Fig23(groups); !strings.Contains(s, "stability density") {
		t.Error("Fig 23 missing")
	}
	if s := bench.Fig24(speedups); !strings.Contains(s, "speedup density") {
		t.Error("Fig 24 missing")
	}
	if s := bench.Fig25(speedups, cfg.Threads); !strings.Contains(s, "ARMv8") {
		t.Error("Fig 25 missing")
	}
	if s := bench.Fig26(speedups, cfg.Threads); !strings.Contains(s, "x86_64") {
		t.Error("Fig 26 missing")
	}
}

func TestFig27Shape(t *testing.T) {
	out := bench.Fig27(wmsim.ARMv8(), []int{1, 2, 8}, 2, 40_000)
	for _, label := range []string{"CertiKOS", "ck", "DPDK", "own impl."} {
		if !strings.Contains(out, label) {
			t.Errorf("Fig 27 missing %s column", label)
		}
	}
}

// TestCSSweepShape asserts the §4.2.2 finding: growing critical
// sections shrink the barrier-optimization speedup.
func TestCSSweepShape(t *testing.T) {
	_, sp := bench.CSSweep(wmsim.X86(), "spin", 1, []int{1, 16, 64}, 60_000)
	if sp[1] <= sp[64] {
		t.Errorf("speedup should shrink with cs size: cs=1 %.4f vs cs=64 %.4f", sp[1], sp[64])
	}
}

// TestESSweepShape asserts the companion finding: outside-section work
// does not change the speedup much (both already include it).
func TestESSweepShape(t *testing.T) {
	_, sp := bench.ESSweep(wmsim.X86(), "spin", 2, []int{0, 16}, 60_000)
	d := sp[0] - sp[16]
	if d < 0 {
		d = -d
	}
	if d > 0.5 {
		t.Errorf("speedup should be insensitive to es size, got %.4f vs %.4f", sp[0], sp[16])
	}
}

func TestTable1Renders(t *testing.T) {
	alg := locks.ByName("qspin")
	out := bench.Table1(alg.DefaultSpec().Counts(), "n/a (see BenchmarkTable1)")
	for _, needle := range []string{"Linux 4.4", "VSYNC (paper)", "this repro"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Table 1 missing row %q", needle)
		}
	}
}

// TestCompareAMC pins the regression-gate semantics: same-key rows
// compare graphs/sec against the tolerance floor, verdict changes are
// always flagged, and rows present on only one side are ignored.
func TestCompareAMC(t *testing.T) {
	row := func(name string, w int, verdict string, gps float64) bench.AMCResult {
		return bench.AMCResult{Name: name, Workers: w, Verdict: verdict, GraphsPerSec: gps}
	}
	baseline := bench.AMCSuite{Results: []bench.AMCResult{
		row("lock/mcs", 1, "ok", 100_000),
		row("scale/mcs-t3", 4, "ok", 80_000),
		row("lock/gone", 1, "ok", 50_000),
	}}
	fresh := bench.AMCSuite{Results: []bench.AMCResult{
		row("lock/mcs", 1, "ok", 80_000),     // -20%: within 25%
		row("scale/mcs-t3", 4, "ok", 50_000), // -37.5%: regression
		row("lock/new-row", 1, "ok", 10),     // no baseline: ignored
	}}
	bad := bench.CompareAMC(baseline, fresh, 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "scale/mcs-t3") {
		t.Fatalf("CompareAMC = %v, want exactly the mcs-t3 regression", bad)
	}
	if bad := bench.CompareAMC(baseline, fresh, 0.5); len(bad) != 0 {
		t.Fatalf("CompareAMC at 50%% tolerance = %v, want none", bad)
	}
	fresh.Results[0].Verdict = "safety violation"
	bad = bench.CompareAMC(baseline, fresh, 0.25)
	found := false
	for _, line := range bad {
		if strings.Contains(line, "verdict changed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("CompareAMC = %v, want a verdict-change report", bad)
	}

	// ns_per_run: a row that pops more states at unchanged graphs/sec
	// (a reduction that stopped firing) is caught by its run time. The
	// two floors are independent: a faster run whose graphs/sec fell
	// (its cheap states were removed) still trips the graphs/sec floor,
	// which is why such a change re-records the baseline.
	timed := func(name string, gps float64, ns int64) bench.AMCResult {
		r := row(name, 1, "ok", gps)
		r.NsPerRun = ns
		return r
	}
	baseline = bench.AMCSuite{Results: []bench.AMCResult{
		timed("structs/treiber", 100_000, 1_000_000),
		timed("structs/msqueue", 100_000, 1_000_000),
		timed("lock/ttas", 100_000, 1_000_000),
	}}
	fresh = bench.AMCSuite{Results: []bench.AMCResult{
		timed("structs/treiber", 100_000, 2_000_000), // twice the states: regression
		timed("structs/msqueue", 60_000, 800_000),    // -20% time, but graphs/sec -40%
		timed("lock/ttas", 100_000, 1_300_000),       // +30%: inside 1/(1-0.25) = +33%
	}}
	bad = bench.CompareAMC(baseline, fresh, 0.25)
	if len(bad) != 2 || !strings.Contains(bad[0], "structs/treiber") || !strings.Contains(bad[0], "ns/run") ||
		!strings.Contains(bad[1], "structs/msqueue") || !strings.Contains(bad[1], "graphs/sec") {
		t.Fatalf("CompareAMC = %v, want the treiber ns/run and the msqueue graphs/sec reports", bad)
	}
}

// TestAMCSuiteJSONRoundTrip: the artifact the gate reads back must be
// the artifact the suite writes.
func TestAMCSuiteJSONRoundTrip(t *testing.T) {
	s := bench.AMCSuite{Schema: "amc-bench/v3", Go: "gotest", CPUs: 1,
		Results: []bench.AMCResult{{Name: "micro/kahn-n96", Model: "bitmat", Workers: 1, Verdict: "ok", Runs: 3, GraphsPerSec: 42}}}
	path := filepath.Join(t.TempDir(), "BENCH_amc.json")
	if err := s.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := bench.ReadAMCSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != s.Schema || len(got.Results) != 1 || got.Results[0] != s.Results[0] {
		t.Fatalf("round trip mangled the artifact: %+v", got)
	}
}

// TestBestOfAMC: the gate's noise armor keeps each row's best
// measurement and unions rows across repeats.
func TestBestOfAMC(t *testing.T) {
	row := func(name string, gps float64) bench.AMCResult {
		return bench.AMCResult{Name: name, Workers: 1, Verdict: "ok", GraphsPerSec: gps}
	}
	a := bench.AMCSuite{Schema: "amc-bench/v3", Results: []bench.AMCResult{row("x", 100), row("y", 50)}}
	b := bench.AMCSuite{Schema: "amc-bench/v3", Results: []bench.AMCResult{row("x", 80), row("y", 70), row("z", 1)}}
	m := bench.BestOfAMC(a, b)
	if len(m.Results) != 3 {
		t.Fatalf("merged %d rows, want 3", len(m.Results))
	}
	if m.Results[0].GraphsPerSec != 100 || m.Results[1].GraphsPerSec != 70 || m.Results[2].Name != "z" {
		t.Fatalf("merge picked wrong rows: %+v", m.Results)
	}
	// The inputs must not be mutated by the merge.
	if a.Results[1].GraphsPerSec != 50 {
		t.Fatal("merge mutated its input")
	}
}
