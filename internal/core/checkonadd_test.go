package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/structs"
	"repro/internal/workload"
)

// TestCheckOnAddCounts pins the exploration the check-on-add discipline
// produces. The memory-model check runs when a child is generated, so
// Popped counts consistent states only and Inconsist counts children
// rejected at generation; Executions and Blocked are the values the
// explorer reached when it still popped and discarded inconsistent
// states, because moving the check prunes nothing the pop-time check
// did not.
func TestCheckOnAddCounts(t *testing.T) {
	locksT3 := []struct {
		lock                string
		executions, blocked int
	}{
		{"mcs", 11, 12},
		{"ttas", 24, 20},
		{"clh", 1, 1},
		{"ticket", 1, 4},
	}
	for _, want := range locksT3 {
		alg := locks.ByName(want.lock)
		p := harness.MutexClient(alg, alg.DefaultSpec(), 3, 1)
		for _, workers := range []int{1, 2} {
			res := runAt(t, mm.WMM, p, workers)
			if res.Verdict != core.OK || res.Stats.Executions != want.executions || res.Stats.Blocked != want.blocked {
				t.Errorf("%s at %d workers: %v with %d executions, %d blocked; want ok with %d, %d",
					p.Name, workers, res.Verdict, res.Stats.Executions, res.Stats.Blocked, want.executions, want.blocked)
			}
		}
	}
	if testing.Short() {
		t.Skip("treiber t=3 pin skipped in -short mode")
	}
	p := workload.Program(structs.Treiber(1), nil, 3)
	res := runAt(t, mm.WMM, p, 1)
	if s := res.Stats; res.Verdict != core.OK || s.Executions != 750 || s.Popped != 37_852 || s.Inconsist != 67_038 {
		t.Fatalf("%s: %v with %d executions, %d popped, %d inconsistent; want ok with 750, 37852, 67038",
			p.Name, res.Verdict, s.Executions, s.Popped, s.Inconsist)
	}
}
