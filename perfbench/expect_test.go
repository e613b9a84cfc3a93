package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/structs"
	"repro/internal/vprog"
	"repro/internal/workload"
	"repro/vsync"
)

func observable(models string) map[string]bool {
	set := map[string]bool{}
	for _, m := range strings.Fields(models) {
		set[m] = true
	}
	return set
}

// The litmus table has one entry per built-in test, names only real
// models, and obeys what holds whatever the details of a model: SC
// shows no weak outcome, and strengthening a test's modes never adds
// an observable outcome.
func TestLitmusTableTheory(t *testing.T) {
	names := harness.LitmusNames()
	if len(litmusObservable) != len(names) {
		t.Errorf("table has %d tests, the corpus %d", len(litmusObservable), len(names))
	}
	models := map[string]bool{}
	for _, m := range mm.All() {
		models[m.Name()] = true
	}
	for _, n := range names {
		obs, ok := litmusObservable[n]
		if !ok {
			t.Errorf("litmus test %s has no expected answer", n)
			continue
		}
		weak, strong := observable(obs[0]), observable(obs[1])
		for m := range weak {
			if !models[m] {
				t.Errorf("%s: unknown model %q", n, m)
			}
		}
		if weak["sc"] || strong["sc"] {
			t.Errorf("%s: a weak outcome observable under SC", n)
		}
		for m := range strong {
			if !weak[m] {
				t.Errorf("%s: strong variant observable under %s but the weak one is not", n, m)
			}
		}
	}
}

// Every correct lock and structure the registries hold has an entry,
// and every entry names one of them.
func TestOKProgramsCoverRegistry(t *testing.T) {
	want := map[string]bool{}
	for _, a := range locks.Verifiable() {
		want[rungSuffix.ReplaceAllString(harness.MutexClient(a, a.DefaultSpec(), 2, 1).Name, "")] = true
	}
	for _, w := range workload.Verifiable() {
		lo, _ := w.Threads()
		want[rungSuffix.ReplaceAllString(w.ProgramName(lo), "")] = true
	}
	have := map[string]bool{}
	for _, p := range okPrograms {
		have[p] = true
		if !want[p] {
			t.Errorf("table entry %s is not a registered correct program", p)
		}
	}
	for p := range want {
		if !have[p] {
			t.Errorf("registered program %s has no expected answer", p)
		}
	}
}

// Every optimizer pin assigns exactly the barrier points of its
// algorithm.
func TestOptimizedSpecsCoverPoints(t *testing.T) {
	specs := map[string]*vprog.BarrierSpec{
		"structs/treiber": structs.Treiber(1).DefaultSpec(),
		"structs/msqueue": structs.MSQueue(2).DefaultSpec(),
	}
	for _, n := range optimizerLocks {
		specs[n] = locks.ByName(n).DefaultSpec()
	}
	if len(specs) != len(optimizedSpecs) {
		t.Errorf("%d pins for %d optimized algorithms", len(optimizedSpecs), len(specs))
	}
	for n, spec := range specs {
		pin := optimizedSpecs[n]
		if len(pin) != len(spec.Points()) {
			t.Errorf("%s: pin has %d points, the spec %d", n, len(pin), len(spec.Points()))
		}
		for _, p := range spec.Points() {
			if _, ok := pin[p]; !ok {
				t.Errorf("%s: point %s not pinned", n, p)
			}
		}
	}
}

// Every kind of disagreement counts as one failed attempt.
func TestTallyCountsMismatches(t *testing.T) {
	cells := []vsync.MatrixCell{
		{Model: "wmm", Program: "client/mutex/mcs/t2-i1", Verdict: core.OK, FromStore: true},
		{Model: "wmm", Program: "litmus/MP/weak", Litmus: true, Verdict: core.SafetyViolation, FromStore: true},
		{Model: "tso", Program: "litmus/MP/weak", Litmus: true, Verdict: core.SafetyViolation},   // wrong answer, not from store
		{Model: "wmm", Program: "client/mutex/unknown/t2-i1", Verdict: core.OK, FromStore: true}, // not in the table
		{Model: "sc", Program: "structs/treiber/t3-i1", Verdict: core.ATViolation, FromStore: true},
	}
	var tl tally
	tl.checkMatrix("warm", &vsync.MatrixResult{Cells: cells}, 6, true)
	// 1 count + 5 verdicts + 5 store checks attempted; the count, three
	// verdicts and one store check fail.
	if tl.attempted != 11 || tl.failed != 5 {
		t.Errorf("attempted %d failed %d, want 11 and 5:\n%s", tl.attempted, tl.failed, strings.Join(tl.mismatches, "\n"))
	}

	var ts tally
	spec := locks.ByName("ttas").DefaultSpec().AllSC()
	ts.checkSpec("ttas", spec)
	for p, m := range optimizedSpecs["ttas"] {
		spec.Set(p, map[string]vprog.Mode{"rlx": vprog.Rlx, "acq": vprog.Acq, "rel": vprog.Rel}[m])
	}
	ts.checkSpec("ttas", spec)
	ts.checkSpec("nosuchlock", spec)
	if ts.attempted != 3 || ts.failed != 2 {
		t.Errorf("spec checks: attempted %d failed %d, want 3 and 2: %v", ts.attempted, ts.failed, ts.mismatches)
	}
}

// The checker agrees with the litmus table under every model.
func TestLitmusCorpusMatchesTable(t *testing.T) {
	r := vsync.VerifyMatrix(vsync.MatrixConfig{NoLocks: true, NoStructs: true, Parallelism: 2, WorkersPerRun: 1})
	var tl tally
	tl.checkMatrix("litmus", r, 2*len(litmusObservable)*len(mm.All()), false)
	if tl.failed != 0 {
		t.Errorf("%d of %d litmus answers differ from the table:\n%s", tl.failed, tl.attempted, strings.Join(tl.mismatches, "\n"))
	}
}
