package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/vprog"
	"repro/internal/workload"
	"repro/vsync"
)

// The per-layer probes of the traced run. Each one calls a module's
// public functions from outside and times them on inputs the run itself
// produced: graphs sampled from its Consistent calls, the size of its
// visited set, the keys its store holds.

// replayBudget is how long each graph replay loops over the samples:
// long enough that timer resolution and one-off cache misses vanish in
// the per-call mean.
const replayBudget = 20 * time.Millisecond

// loopNs runs op over n inputs repeatedly for at least replayBudget
// and returns the mean nanoseconds per call.
func loopNs(n int, op func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < replayBudget {
		for i := 0; i < n; i++ {
			op(i)
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// graphReplays times the graph layer's hot functions on the sampled
// graphs, each decoded into a private copy first.
func graphReplays(samples []sample, m map[string]float64) error {
	gs := make([]*graph.Graph, len(samples))
	for i, s := range samples {
		g, _, err := graph.DecodeGraph(s.enc)
		if err != nil {
			return fmt.Errorf("decoding sampled graph %d: %w", i, err)
		}
		gs[i] = g
	}
	var sc graph.SymScratch
	var symIdx []int
	for i, s := range samples {
		if s.sym != nil {
			symIdx = append(symIdx, i)
		}
	}
	var buf []byte
	m["graph.canonicalize.ns_per_call"] = loopNs(len(symIdx), func(i int) {
		j := symIdx[i]
		samples[j].sym.Canonicalize(gs[j], &sc, false, graph.EventID{}, graph.EventID{})
	})
	m["graph.fingerprint.ns_per_call"] = loopNs(len(gs), func(i int) { gs[i].Fingerprint128() })
	m["graph.buildrels.ns_per_call"] = loopNs(len(gs), func(i int) { graph.BuildRels(gs[i]) })
	m["graph.clone.ns_per_call"] = loopNs(len(gs), func(i int) { gs[i].Clone() })
	m["graph.encode.ns_per_call"] = loopNs(len(gs), func(i int) { buf = graph.AppendGraph(buf[:0], gs[i]) })
	m["graph.decode.ns_per_call"] = loopNs(len(samples), func(i int) { graph.DecodeGraph(samples[i].enc) })
	return nil
}

// visitedInsertNs times inserting n fresh keys into an empty visited
// set — the growth the explorer pays on its way to a final set of n
// states — and returns the median over three rounds in ns per insert.
// Keys are uniform random, as the explorer's structural hashes are.
func visitedInsertNs(r *rand.Rand, n int) float64 {
	if n < 1 {
		n = 1
	}
	keys := make([]graph.Hash128, n)
	for i := range keys {
		keys[i] = graph.Hash128{r.Uint64(), r.Uint64()}
	}
	var rounds []float64
	for range 3 {
		coldStart()
		v := core.NewVisitedSet()
		t0 := time.Now()
		for _, k := range keys {
			v.InsertNew(k)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// checkpointProbe runs one budget-bounded segment of prog (maxGraphs
// pops) and times encoding and decoding its checkpoint.
func checkpointProbe(model mm.Model, prog *vprog.Program, workers, maxGraphs int, m map[string]float64) error {
	c := core.New(model)
	c.WorkersPerRun = workers
	c.Budget = core.Budget{MaxGraphs: int64(maxGraphs)}
	r := c.Run(prog)
	if r.Verdict != core.Undecided || r.Checkpoint == nil {
		return fmt.Errorf("checkpoint segment of %s (%d graphs): %v, want an undecided segment", prog.Name, maxGraphs, r.Verdict)
	}
	var enc, dec []float64
	var data []byte
	for range 5 {
		t0 := time.Now()
		data = r.Checkpoint.Encode()
		enc = append(enc, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		if _, err := core.DecodeCheckpoint(data); err != nil {
			return fmt.Errorf("decoding checkpoint of %s: %w", prog.Name, err)
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds()))
	}
	m["core.checkpoint.encode_ns"] = median(enc)
	m["core.checkpoint.decode_ns"] = median(dec)
	m["core.checkpoint.bytes"] = float64(len(data))
	return nil
}

// storeProbe times the store layer directly on keys a cold pass wrote
// into st: Lookup on st itself, Put of the same verdicts into fresh
// logs, and the Refresh a second session on such a log needs to observe
// them (the tail re-scan two concurrent suites share a store through).
func storeProbe(e *env, st *vsync.VerdictStore, keys []store.Key, m map[string]float64, t *tally) error {
	s := st.Stats()
	m["store.hits"] = float64(s.Hits)
	m["store.appended"] = float64(s.Appended)
	verdicts := make([]core.Verdict, len(keys))
	for i, k := range keys {
		v, ok := st.Lookup(k)
		t.check(ok, "store probe: key %d of %d written by the cold pass is missing", i, len(keys))
		verdicts[i] = v
	}
	m["store.lookup_ns"] = loopNs(len(keys), func(i int) { st.Lookup(keys[i]) })

	rounds := 3
	if len(keys) < 64 {
		rounds = 64 / len(keys)
	}
	var puts, refreshes []float64
	for range rounds {
		path := e.storePath()
		a, err := vsync.OpenStore(path)
		if err != nil {
			return err
		}
		b, err := vsync.OpenStore(path)
		if err != nil {
			a.Close()
			return err
		}
		t0 := time.Now()
		for i, k := range keys {
			if err := a.Put(k, verdicts[i], "probe"); err != nil {
				t.check(false, "store probe: put: %v", err)
			}
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		t0 = time.Now()
		n, err := b.Refresh()
		refreshes = append(refreshes, time.Since(t0).Seconds())
		t.check(err == nil && n == len(keys), "store probe: refresh observed %d of %d records (%v)", n, len(keys), err)
		a.Close()
		b.Close()
		os.RemoveAll(filepath.Dir(path))
	}
	m["store.put_ns"] = median(puts)
	m["store.refresh_s"] = median(refreshes)
	return nil
}

// vprogProbe times program construction, symmetry validation and
// program fingerprinting for the programs build returns, each on fresh
// program values (both are memoized per program), as medians over
// eleven rounds.
func vprogProbe(build func() []*vprog.Program, m map[string]float64) {
	var builds, syms, fps []float64
	for range 11 {
		t0 := time.Now()
		ps := build()
		builds = append(builds, time.Since(t0).Seconds())
		t0 = time.Now()
		for _, p := range ps {
			p.SymSpec()
		}
		syms = append(syms, time.Since(t0).Seconds())
		t0 = time.Now()
		for _, p := range ps {
			p.Fingerprint128()
		}
		fps = append(fps, float64(time.Since(t0).Nanoseconds())/float64(len(ps)))
	}
	m["vprog.build_s"] = median(builds)
	m["vprog.symspec_s"] = median(syms)
	m["vprog.fingerprint_ns"] = median(fps)
}

// coreMetrics reports the explorer counters of s and the scheduler
// counters of sc.
func coreMetrics(s core.Stats, sc core.SchedStats, m map[string]float64) {
	m["core.popped"] = float64(s.Popped)
	m["core.pushed"] = float64(s.Pushed)
	m["core.executions"] = float64(s.Executions)
	m["core.revisits"] = float64(s.Revisits)
	m["core.duplicates"] = float64(s.Duplicates)
	m["core.inconsistent"] = float64(s.Inconsist)
	m["core.wasteful"] = float64(s.Wasteful)
	m["core.collapsed"] = float64(s.Collapsed)
	m["core.blocked"] = float64(s.Blocked)
	m["core.pop_yield"] = ratio(s.Popped-s.Duplicates-s.Inconsist-s.Wasteful-s.Collapsed, s.Popped)
	canon := s.CanonFast + s.CanonRefined
	m["core.canon.calls"] = float64(canon)
	m["core.canon.refined_frac"] = ratio(s.CanonRefined, canon)

	m["core.sched.steals"] = float64(sc.Steals)
	m["core.sched.stolen"] = float64(sc.Stolen)
	m["core.sched.spills"] = float64(sc.Spills)
	m["core.sched.contention"] = float64(sc.Contention)
	m["core.sched.imbalance"] = 0
	if len(sc.Executed) > 1 {
		lo, hi := sc.Executed[0], sc.Executed[0]
		for _, n := range sc.Executed {
			lo, hi = min(lo, n), max(hi, n)
		}
		m["core.sched.imbalance"] = float64(hi) / float64(max(lo, 1))
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mmMetrics reports the timing wrappers' totals.
func mmMetrics(tr *tracer, m map[string]float64) {
	calls, rejects, nanos := tr.consistentTotals()
	m["mm.consistent.calls"] = float64(calls)
	m["mm.consistent.self_s"] = float64(nanos) / 1e9
	m["mm.consistent.ns_per_call"] = ratio(int(nanos), int(calls))
	m["mm.consistent.reject_frac"] = ratio(int(rejects), int(calls))
}

// acyclicMetrics reports the acyclicity engine's process-wide counter
// delta; nothing else runs in the process, so it is the workload's.
func acyclicMetrics(a graph.AcyclicCounters, m map[string]float64) {
	m["graph.acyclic.seeded"] = float64(a.SeedHits)
	m["graph.acyclic.kahn"] = float64(a.KahnPasses)
	m["graph.acyclic.shortcuts"] = float64(a.TopoShortcuts)
}

// runtimeMetrics reports allocation and GC over an untraced
// repetition's timed window.
func runtimeMetrics(d runtimeCounters, m map[string]float64) {
	m["runtime.alloc_mb"] = float64(d.allocBytes) / 1e6
	m["runtime.mallocs"] = float64(d.mallocs)
	m["runtime.gc_cycles"] = float64(d.gcCycles)
	m["runtime.gc_cpu_frac"] = 0
	if busy := d.gcCPU + d.userCPU; busy > 0 {
		m["runtime.gc_cpu_frac"] = d.gcCPU / busy
	}
}

// matrixMetrics reports a cold matrix pass.
func matrixMetrics(r *vsync.MatrixResult, m map[string]float64) {
	var cells []float64
	for i := range r.Cells {
		if c := &r.Cells[i]; !c.FromStore && !c.Deduped {
			cells = append(cells, float64(c.Duration.Nanoseconds())/1e6)
		}
	}
	m["vsync.matrix.cold_s"] = r.Duration.Seconds()
	m["vsync.matrix.cell_p50_ms"] = quantile(cells, 0.5)
	m["vsync.matrix.cell_p90_ms"] = quantile(cells, 0.9)
	m["vsync.matrix.deduped"] = float64(r.Deduped)
}

// optimizeMetrics reports optimizer runs, summed.
func optimizeMetrics(rs []*optimize.Result, m map[string]float64) {
	var verifs, hits, lookups int
	var run float64
	for _, r := range rs {
		verifs += r.Verifications
		hits += r.CacheHits
		lookups += r.CacheLookups
		run += r.Duration.Seconds()
	}
	m["optimize.verifications"] = float64(verifs)
	m["optimize.cache_hit_frac"] = ratio(hits, lookups)
	m["optimize.run_s"] = run
}

// cellProbes exercises the suite layers on an explorer workload's own
// cell, the way `make suite` decides it: a cold matrix pass over a
// fresh store and a warm re-pass, the store calls on the key it wrote,
// and the optimizer on the same structure with its two-thread client
// (from all-SC, as suite-opt optimizes the locks).
func (x *explorer) cellProbes(e *env, tr *tracer, parent int, m map[string]float64, t *tally) error {
	path := e.storePath()
	st, err := vsync.OpenStore(path)
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(path))
	defer st.Close()
	cfg := vsync.MatrixConfig{
		Models: []mm.Model{mm.WMM}, Structs: []workload.Workload{x.w}, Threads: []int{x.threads},
		NoLocks: true, NoLitmus: true, Store: st, Parallelism: suiteParallelism, WorkersPerRun: x.workers,
	}
	sp := tr.begin("vsync.VerifyMatrix/cold", parent)
	cold := vsync.VerifyMatrix(cfg)
	tr.end(sp)
	t.checkMatrix("cell cold", cold, 1, false)
	matrixMetrics(cold, m)

	sp = tr.begin("vsync.VerifyMatrix/warm", parent)
	warm := vsync.VerifyMatrix(cfg)
	tr.end(sp)
	t.checkMatrix("cell warm", warm, 1, true)
	m["store.warm_pass_s"] = warm.Duration.Seconds()

	key := store.Key{Model: mm.WMM.Name(), Spec: x.w.DefaultSpec().Fingerprint128(), Prog: x.prog.Fingerprint128()}
	if err := storeProbe(e, st, []store.Key{key}, m, t); err != nil {
		return err
	}

	sp = tr.begin("optimize.Optimizer.Run/"+x.w.Name(), parent)
	o := &optimize.Optimizer{
		Model: mm.WMM,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
			return []*vprog.Program{workload.Program(x.w, spec, optThreads)}
		},
		Parallelism: suiteParallelism,
		Speculate:   true,
		Cache:       optimize.NewCacheWithStore(st),
	}
	res, err := o.Run(x.w.DefaultSpec().AllSC())
	tr.end(sp)
	if err != nil {
		t.check(false, "optimize %s: %v", x.w.Name(), err)
		return nil
	}
	t.checkSpec(x.w.Name(), res.Final)
	optimizeMetrics([]*optimize.Result{res}, m)
	return nil
}
