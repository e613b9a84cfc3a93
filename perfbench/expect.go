package main

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/vprog"
	"repro/vsync"
)

// The expected answers every workload is checked against. They are
// written down here by hand, not recorded from a run: a verdict that
// moves is a failure of the program, never a new expectation.

// okPrograms are the correct locks (by their generic mutex client) and
// correct nonblocking structures: each must verify — no safety
// violation, no await-termination violation — under SC, TSO and WMM at
// every thread count the benchmark runs.
var okPrograms = []string{
	"client/mutex/array", "client/mutex/backoff", "client/mutex/certikosmcs",
	"client/mutex/clh", "client/mutex/cmcsticket", "client/mutex/cmcsttas",
	"client/mutex/ctwamcs", "client/mutex/dpdkmcs", "client/mutex/hclh",
	"client/mutex/huaweimcs", "client/mutex/mcs", "client/mutex/musl",
	"client/mutex/mutex", "client/mutex/qspin", "client/mutex/recspin",
	"client/mutex/rw", "client/mutex/semaphore", "client/mutex/spin",
	"client/mutex/ticket", "client/mutex/ttas", "client/mutex/twa",
	"structs/msqueue", "structs/msqueue/bounded", "structs/seqlock",
	"structs/treiber", "structs/treiber/bounded",
}

// litmusObservable lists, per litmus test, the models under which the
// test's weak outcome is observable: [0] for the relaxed ("weak")
// variant, [1] for the release/acquire or SC ("strong") variant. It
// follows from the models' definitions (internal/mm):
//
//   - SC interleaves; no weak outcome of any test is observable.
//   - TSO is the hardware model of x86: every access is ordered except a
//     store followed by a load of another location, which only an SC
//     fence or a locked RMW orders. Access annotations do not change
//     it, so store buffering (SB) is observable even with SC-annotated
//     accesses, and nothing else is — TSO is multi-copy atomic (IRIW,
//     WRC) and keeps store→store and load→load order (MP, ISA2, 2+2W).
//   - WMM is RC11-like: relaxed accesses order nothing across
//     locations, so every cross-location weak outcome is observable,
//     except LB (porf is acyclic: no out-of-thin-air). Release/acquire
//     forbids MP, WRC and ISA2 (hb is transitive) but not SB or IRIW,
//     which need SC; the strong SB and IRIW variants use SC accesses
//     and are forbidden. 2+2W's strong variant still uses release
//     writes, below SC, so it stays observable.
//   - Same-location coherence (CoRR, CoWR), RMW atomicity (FAA) and
//     SB with SC fences between the accesses hold on every model.
var litmusObservable = map[string][2]string{
	"SB":        {"tso wmm", "tso"},
	"SB+fences": {"", ""},
	"MP":        {"wmm", ""},
	"LB":        {"", ""},
	"CoRR":      {"", ""},
	"CoWR":      {"", ""},
	"IRIW":      {"wmm", ""},
	"WRC":       {"wmm", ""},
	"ISA2":      {"wmm", ""},
	"2+2W":      {"wmm", "wmm"},
	"FAA":       {"", ""},
}

// optimizedSpecs pins the final barrier spec the optimizer reaches from
// all-SC under WMM with the two-thread client. Unlike the verdicts above
// these are not independent answers: they were recorded at the commit
// that introduced the benchmark, and guard against a search that
// silently stops relaxing (or over-relaxes) a point.
var optimizedSpecs = map[string]map[string]string{
	"ttas":    {"ttas.poll": "rlx", "ttas.xchg": "acq", "ttas.unlock": "rel"},
	"ticket":  {"ticket.faa": "rlx", "ticket.await": "acq", "ticket.unlock": "rel"},
	"clh":     {"clh.init": "rlx", "clh.xchg_tail": "acqrel", "clh.await": "acq", "clh.unlock": "rel", "clh.adopt": "rlx"},
	"mcs":     {"mcs.init_locked": "rlx", "mcs.init_next": "rlx", "mcs.xchg_tail": "acqrel", "mcs.set_prev_next": "rel", "mcs.await_locked": "acq", "mcs.read_next": "acq", "mcs.cas_tail": "rel", "mcs.await_next": "acq", "mcs.handoff": "rel"},
	"dpdkmcs": {"dpdk.init_locked": "rlx", "dpdk.init_next": "rlx", "dpdk.xchg_tail": "acqrel", "dpdk.set_prev_next": "rel", "dpdk.pre_await_fence": "none", "dpdk.await_locked": "acq", "dpdk.read_next": "acq", "dpdk.await_next": "rlx", "dpdk.cas_tail": "acqrel", "dpdk.handoff": "rel"},
	// The structures, optimized with their two-thread client (the
	// explorer workloads' traced runs exercise the optimizer this way).
	"structs/treiber": {"treiber.push_read": "rlx", "treiber.link": "rlx", "treiber.push_cas": "rel", "treiber.pop_read": "acq", "treiber.next_read": "rlx", "treiber.pop_cas": "rlx", "treiber.record": "rlx"},
	"structs/msqueue": {"msq.head_read": "rlx", "msq.tail_read": "rlx", "msq.next_read": "rlx", "msq.link_cas": "rlx", "msq.tail_cas": "rlx", "msq.head_cas": "rlx", "msq.record": "rlx"},
}

// rungSuffix is the thread/iteration suffix of a client program name
// ("client/mutex/mcs/t3-i1" → "client/mutex/mcs").
var rungSuffix = regexp.MustCompile(`/t\d+-i\d+$`)

// expectedVerdict returns the verdict a matrix cell must reach, or
// false when the table has no entry for the cell.
func expectedVerdict(c *vsync.MatrixCell) (core.Verdict, bool) {
	if c.Litmus {
		// "litmus/<test>/<weak|strong>"
		parts := strings.Split(c.Program, "/")
		if len(parts) != 3 {
			return 0, false
		}
		obs, ok := litmusObservable[parts[1]]
		if !ok {
			return 0, false
		}
		models := obs[0]
		if parts[2] == "strong" {
			models = obs[1]
		}
		for _, m := range strings.Fields(models) {
			if m == c.Model {
				return core.SafetyViolation, true
			}
		}
		return core.OK, true
	}
	base := rungSuffix.ReplaceAllString(c.Program, "")
	for _, p := range okPrograms {
		if p == base {
			return core.OK, true
		}
	}
	return 0, false
}

// tally counts checked answers and the ones that disagreed with the
// table; mismatches keeps a readable line per failure.
type tally struct {
	attempted, failed int
	mismatches        []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.mismatches = append(t.mismatches, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches = append(t.mismatches, o.mismatches...)
}

// checkVerdict checks one explorer verdict against the table.
func (t *tally) checkVerdict(program, model string, got core.Verdict) {
	c := vsync.MatrixCell{Program: program, Model: model}
	want, ok := expectedVerdict(&c)
	t.check(ok && got == want, "%s under %s: got %v, want %v (in table: %v)", program, model, got, want, ok)
}

// checkMatrix checks every cell of a matrix pass; wantCells is the
// number of cells the pass must have, and warm additionally requires
// every cell to be served by the store.
func (t *tally) checkMatrix(pass string, r *vsync.MatrixResult, wantCells int, warm bool) {
	t.check(len(r.Cells) == wantCells, "%s pass: %d cells, want %d", pass, len(r.Cells), wantCells)
	for i := range r.Cells {
		c := &r.Cells[i]
		want, ok := expectedVerdict(c)
		t.check(ok && c.Err == nil && c.Verdict == want, "%s pass: %s under %s: got %v, want %v (in table: %v, err: %v)",
			pass, c.Program, c.Model, c.Verdict, want, ok, c.Err)
		if warm {
			t.check(c.FromStore, "%s pass: %s under %s not served by the store", pass, c.Program, c.Model)
		}
	}
}

// checkSpec checks an optimizer's final spec against its pin.
func (t *tally) checkSpec(name string, final *vprog.BarrierSpec) {
	want, ok := optimizedSpecs[name]
	got := map[string]string{}
	if final != nil {
		for _, p := range final.Points() {
			got[p] = final.M(p).String()
		}
	}
	same := ok && len(got) == len(want)
	for p, m := range want {
		same = same && got[p] == m
	}
	t.check(same, "optimized %s: got %v, want %v", name, got, want)
}
