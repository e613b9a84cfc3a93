package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReadAMCSuite loads a BENCH_amc.json artifact.
func ReadAMCSuite(path string) (AMCSuite, error) {
	var s AMCSuite
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// CompareAMC is the bench regression gate: it reports every row of
// fresh whose graphs_per_sec fell more than tol (a fraction, e.g. 0.25)
// below the baseline row with the same (name, workers), and every row
// whose ns_per_run rose past the same floor applied to runs per second
// (baseline ns_per_run / (1 - tol)). Graphs/sec alone rewards
// exploring cheap states and cannot see a reduction that has stopped
// firing; the time a whole run takes can. Rows present
// on only one side are skipped — corpus growth is not a regression —
// and verdict changes are reported unconditionally (a different
// verdict makes the throughput comparison meaningless and is a bug in
// its own right). The returned lines are empty when the gate passes.
//
// The gate is built for same-machine comparisons (a developer's
// before/after, CI comparing against its own cached artifact); across
// machines the absolute numbers shift with the hardware, which is why
// the Makefile target accepts a tolerance override and an env skip.
func CompareAMC(baseline, fresh AMCSuite, tol float64) []string {
	type key struct {
		name    string
		workers int
	}
	base := make(map[key]AMCResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[key{r.Name, r.Workers}] = r
	}
	var bad []string
	for _, r := range fresh.Results {
		b, ok := base[key{r.Name, r.Workers}]
		if !ok {
			continue
		}
		if r.Verdict != b.Verdict {
			bad = append(bad, fmt.Sprintf("%s (w=%d): verdict changed %s -> %s",
				r.Name, r.Workers, b.Verdict, r.Verdict))
			continue
		}
		if floor := b.GraphsPerSec * (1 - tol); b.GraphsPerSec > 0 && r.GraphsPerSec < floor {
			bad = append(bad, fmt.Sprintf("%s (w=%d): graphs/sec %.0f is %.1f%% below baseline %.0f (floor %.0f at %.0f%% tolerance)",
				r.Name, r.Workers, r.GraphsPerSec,
				100*(1-r.GraphsPerSec/b.GraphsPerSec), b.GraphsPerSec, floor, 100*tol))
		}
		if ceil := float64(b.NsPerRun) / (1 - tol); b.NsPerRun > 0 && tol < 1 && float64(r.NsPerRun) > ceil {
			bad = append(bad, fmt.Sprintf("%s (w=%d): ns/run %d is %.1f%% above baseline %d (ceiling %.0f at %.0f%% tolerance)",
				r.Name, r.Workers, r.NsPerRun,
				100*(float64(r.NsPerRun)/float64(b.NsPerRun)-1), b.NsPerRun, ceil, 100*tol))
		}
	}
	return bad
}

// BestOfAMC merges suites row-wise, keeping for each (name, workers)
// key the row with the highest graphs_per_sec. This is the gate's
// noise cure on loaded or throttled hosts: a machine can only ever
// subtract from true throughput, so across repeats the best
// measurement is the faithful one. Rows are emitted in the order of
// the first suite; metadata comes from the first suite too.
func BestOfAMC(suites ...AMCSuite) AMCSuite {
	if len(suites) == 0 {
		return AMCSuite{}
	}
	merged := suites[0]
	merged.Results = append([]AMCResult(nil), suites[0].Results...)
	type key struct {
		name    string
		workers int
	}
	idx := make(map[key]int, len(merged.Results))
	for i, r := range merged.Results {
		idx[key{r.Name, r.Workers}] = i
	}
	for _, s := range suites[1:] {
		for _, r := range s.Results {
			i, ok := idx[key{r.Name, r.Workers}]
			if !ok {
				idx[key{r.Name, r.Workers}] = len(merged.Results)
				merged.Results = append(merged.Results, r)
				continue
			}
			if r.GraphsPerSec > merged.Results[i].GraphsPerSec {
				merged.Results[i] = r
			}
		}
	}
	return merged
}
