package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// The acyclicity-engine differential bar: with graph.CrossCheckAcyclic
// armed, every closure-free decision taken anywhere in an exploration —
// Kahn passes, order-seeded fast paths, and the order-state shortcuts
// the predicates take without touching a matrix — re-runs the
// transitive-closure oracle and panics on disagreement. Running the
// full litmus+lock corpus under every model, sequentially and with 4
// workers, therefore proves the engine's verdicts identical to the
// seed engine's on every graph the checker actually visits. The armed
// flag also makes the explorer re-run the consistency check it skips on
// revisit children of consistent graphs (monotonicity under
// restriction) and panic if the model disagrees.

// crossChecked runs fn with the oracle armed.
func crossChecked(t *testing.T, fn func()) {
	t.Helper()
	graph.CrossCheckAcyclic = true
	defer func() { graph.CrossCheckAcyclic = false }()
	fn()
}

func runChecked(t *testing.T, model mm.Model, p *vprog.Program, workers int) {
	t.Helper()
	c := core.New(model)
	c.WorkersPerRun = workers
	if res := c.Run(p); res.Verdict == core.Error {
		t.Fatalf("%s under %s (%d workers): %v", p.Name, model.Name(), workers, res.Err)
	}
}

// TestAcyclicDifferentialLitmus: the full litmus corpus, both
// strengths, under every model including the RA ablation, at 1 and 4
// workers, with the closure oracle shadowing every engine decision.
func TestAcyclicDifferentialLitmus(t *testing.T) {
	crossChecked(t, func() {
		for _, name := range harness.LitmusNames() {
			for _, strong := range []bool{false, true} {
				p := harness.Litmus(name, strong)
				for _, m := range []mm.Model{mm.SC, mm.TSO, mm.WMM, mm.RA} {
					runChecked(t, m, p, 1)
					runChecked(t, m, p, 4)
				}
			}
		}
	})
}

// TestAcyclicDifferentialLocks: the same bar on the lock corpus (the
// hot-path clients the engine was built for), including the buggy
// study cases whose violation paths stress the shortcut verdicts.
func TestAcyclicDifferentialLocks(t *testing.T) {
	names := []string{"spin", "ticket", "mcs", "qspin", "dpdkmcs-buggy", "huaweimcs-buggy"}
	if !testing.Short() {
		names = append(names, "ttas", "clh")
	}
	crossChecked(t, func() {
		for _, name := range names {
			alg := locks.ByName(name)
			if alg == nil {
				t.Fatalf("unknown lock %q", name)
			}
			p := harness.MutexClient(alg, alg.DefaultSpec(), 2, 1)
			for _, m := range []mm.Model{mm.SC, mm.TSO, mm.WMM} {
				runChecked(t, m, p, 1)
				runChecked(t, m, p, 4)
			}
		}
	})
}
