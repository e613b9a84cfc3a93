// Command perfbench is the repository's benchmark. It runs one workload
// cold, repetition after repetition, for a fixed time in one process
// with at most two threads, checks every answer against the
// hand-written table in expect.go, and prints one JSON object as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload treiber-t3|msqueue-t3|suite-opt --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of untraced repetitions.
// --trace 1 alternates untraced and traced repetitions, then probes each
// layer from outside, and reports the per-layer metrics; the full trace
// (spans, per-layer metrics, run metadata) is also written to
// .bench_build/perfbench-traces/. README.md documents the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/store"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// maxProcs bounds the process to two threads of Go code, whatever the
// machine has, so runs on different hosts stay comparable.
const maxProcs = 2

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"states_popped", "count"},
}

var perLayer = []metricDef{
	{"mm.consistent.calls", "count"},
	{"mm.consistent.self_s", "s"},
	{"mm.consistent.ns_per_call", "ns"},
	{"mm.consistent.reject_frac", "ratio"},
	{"core.popped", "count"},
	{"core.pushed", "count"},
	{"core.executions", "count"},
	{"core.revisits", "count"},
	{"core.duplicates", "count"},
	{"core.inconsistent", "count"},
	{"core.wasteful", "count"},
	{"core.collapsed", "count"},
	{"core.blocked", "count"},
	{"core.pop_yield", "ratio"},
	{"core.canon.calls", "count"},
	{"core.canon.refined_frac", "ratio"},
	{"core.sched.steals", "count"},
	{"core.sched.stolen", "count"},
	{"core.sched.spills", "count"},
	{"core.sched.contention", "count"},
	{"core.sched.imbalance", "ratio"},
	{"core.visited.insert_ns", "ns"},
	{"core.checkpoint.encode_ns", "ns"},
	{"core.checkpoint.decode_ns", "ns"},
	{"core.checkpoint.bytes", "bytes"},
	{"graph.canonicalize.ns_per_call", "ns"},
	{"graph.fingerprint.ns_per_call", "ns"},
	{"graph.buildrels.ns_per_call", "ns"},
	{"graph.clone.ns_per_call", "ns"},
	{"graph.encode.ns_per_call", "ns"},
	{"graph.decode.ns_per_call", "ns"},
	{"graph.acyclic.seeded", "count"},
	{"graph.acyclic.kahn", "count"},
	{"graph.acyclic.shortcuts", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"peak_heap_mb", "MB"},
	{"vprog.build_s", "s"},
	{"vprog.symspec_s", "s"},
	{"vprog.fingerprint_ns", "ns"},
	{"store.put_ns", "ns"},
	{"store.lookup_ns", "ns"},
	{"store.refresh_s", "s"},
	{"store.hits", "count"},
	{"store.appended", "count"},
	{"store.warm_pass_s", "s"},
	{"optimize.verifications", "count"},
	{"optimize.cache_hit_frac", "ratio"},
	{"optimize.run_s", "s"},
	{"vsync.matrix.cold_s", "s"},
	{"vsync.matrix.cell_p50_ms", "ms"},
	{"vsync.matrix.cell_p90_ms", "ms"},
	{"vsync.matrix.deduped", "count"},
	{"trace.overhead_s", "s"},
}

const (
	// setupsPerRep is how many times an untraced repetition sets up;
	// setup_s is the median over all of them, spread over the run.
	setupsPerRep = 11
	// heapInterval is the live-heap sampling period.
	heapInterval = 5 * time.Millisecond
	// maxSamples caps the graphs a traced repetition keeps.
	maxSamples = 4096
	// scratchDir holds every file a run writes, inside the checkout.
	scratchDir = ".bench_build/perfbench"
	traceDir   = ".bench_build/perfbench-traces"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: treiber-t3, msqueue-t3 or suite-opt")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def := workloadByName(*name)
	if def == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload treiber-t3|msqueue-t3|suite-opt --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)

	e := &env{dir: filepath.Join(scratchDir, fmt.Sprintf("run-%d", os.Getpid())), seed: *seed}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)

	meta := runMeta(def, *seed, *trace == 1)
	if b, err := json.Marshal(meta); err == nil {
		fmt.Fprintf(stdout, "perfbench: %s\n", b)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		m    map[string]float64
		t    tally
		defs = endToEnd
		err  error
	)
	if *trace == 1 {
		defs = perLayer
		m, t, err = traced(e, def, budget, meta)
	} else {
		m, t, err = measure(e, def, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for i, line := range t.mismatches {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... %d more mismatches\n", len(t.mismatches)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: mismatch:", line)
	}
	out, err := result(t, m, defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the final line; every metric of defs must be present
// and finite.
func result(t tally, m map[string]float64, defs []metricDef) ([]byte, error) {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		ms[d.name] = metricValue{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, ms})
}

// meta records what the numbers were measured on.
type meta struct {
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`
	Traced        bool   `json:"traced"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	WorkersPerRun int    `json:"workers_per_run"`
	Parallelism   int    `json:"parallelism"`
}

func runMeta(def *workloadDef, seed uint64, traced bool) meta {
	return meta{
		Workload: def.name, Seed: seed, Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		WorkersPerRun: def.workers, Parallelism: def.parallelism,
	}
}

// rep is one measured repetition.
type rep struct {
	inst    instance
	tally   tally
	setups  []float64 // seconds per set-up
	wall    time.Duration
	cpu     time.Duration
	peak    uint64
	rt      runtimeCounters
	acyclic graph.AcyclicCounters
}

// runRep sets up and runs one cold repetition; the caller closes
// r.inst. It sets up nSetups times and runs the last instance, timing
// each set-up; wall_s is the run alone: from the first verification
// call to the last verdict.
//
// A repetition starts cold: two collections empty every sync.Pool of
// the checker (the second drops the victim caches the first demoted),
// and the freed heap goes back to the OS at once, so no scavenging left
// over from the previous repetition runs during this one. The set-ups
// run between the two collections, on the swept heap of the previous
// repetition: a set-up takes tens of microseconds, and page faults on
// fresh heap would swamp it.
func runRep(e *env, def *workloadDef, tr *tracer, nSetups int) (rep, error) {
	runtime.GC()
	root := tr.begin("workload/"+def.name, -1)
	sp := tr.begin("setup", root)
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < nSetups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(e); err != nil {
			return rep{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	tr.end(sp)
	debug.FreeOSMemory()

	rt0 := readRuntimeCounters()
	acy0 := graph.AcyclicCountersNow()
	hs := startHeapSampler(heapInterval)
	cpu0 := cpuTime()
	sp = tr.begin("run", root)
	w0 := time.Now()
	t := inst.run(tr, sp)
	wall := time.Since(w0)
	cpu := cpuTime() - cpu0
	tr.end(sp)
	peak := hs.Stop()
	r := rep{
		inst: inst, tally: t, setups: setups, wall: wall, cpu: cpu, peak: peak,
		rt: readRuntimeCounters().sub(rt0), acyclic: graph.AcyclicCountersNow().Sub(acy0),
	}
	tr.end(root)
	return r, nil
}

// fits reports whether another step of length last still ends within
// budget of start; the first step always runs.
func fits(start time.Time, last, budget time.Duration, done int) bool {
	return done == 0 || time.Since(start)+last <= budget
}

// measure runs untraced repetitions until budget has passed — the last
// one may end after it — and reports the medians of the end-to-end
// metrics.
func measure(e *env, def *workloadDef, budget time.Duration) (map[string]float64, tally, error) {
	var (
		t                  tally
		setup, walls, cpus []float64
		popped             []float64
		lastInst           instance
	)
	for start := time.Now(); len(walls) == 0 || time.Since(start) < budget; {
		r, err := runRep(e, def, nil, setupsPerRep)
		if err != nil {
			return nil, t, err
		}
		t.add(r.tally)
		setup = append(setup, r.setups...)
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		popped = append(popped, float64(r.inst.popped()))
		if lastInst != nil {
			lastInst.close()
		}
		lastInst = r.inst
	}
	defer lastInst.close()
	m := map[string]float64{
		"wall_s":        median(walls),
		"setup_s":       median(setup),
		"cpu_s":         median(cpus),
		"states_popped": median(popped),
	}
	if s, ok := lastInst.(*suite); ok {
		sum, _, _ := s.account()
		m["states_popped"] = float64(sum.Popped)
	}
	return m, t, nil
}

// traced alternates untraced and traced repetitions for budget, then
// probes every layer, and reports the per-layer metrics. The trace file
// holds the last traced repetition's spans.
func traced(e *env, def *workloadDef, budget time.Duration, md meta) (map[string]float64, tally, error) {
	var (
		t                tally
		plain, withTrace []float64
		peaks            []float64
		last             time.Duration
		u, x             rep
		tr               *tracer
		start            = time.Now()
		samplePhase      = int64(e.seed % uint64(def.sampleEvery))
	)
	for fits(start, last, budget, len(plain)) {
		r0 := time.Now()
		var err error
		if u, err = runRep(e, def, nil, 1); err != nil {
			return nil, t, err
		}
		u.inst.close()
		t.add(u.tally)
		plain = append(plain, u.wall.Seconds())
		peaks = append(peaks, float64(u.peak)/1e6)

		if x.inst != nil {
			x.inst.close()
		}
		tr = newTracer(def.sampleEvery, samplePhase, maxSamples)
		if x, err = runRep(e, def, tr, 1); err != nil {
			return nil, t, err
		}
		t.add(x.tally)
		withTrace = append(withTrace, x.wall.Seconds())
		last = time.Since(r0)
	}
	defer x.inst.close()

	m := map[string]float64{
		"trace.overhead_s": median(withTrace) - median(plain),
		"peak_heap_mb":     median(peaks),
	}
	runtimeMetrics(u.rt, m)
	mmMetrics(tr, m)
	acyclicMetrics(x.acyclic, m)
	if err := graphReplays(tr.graphSamples(), m); err != nil {
		return nil, t, err
	}
	probes := tr.begin("probes", -1)
	var err error
	switch inst := x.inst.(type) {
	case *explorer:
		err = explorerProbes(e, inst, tr, probes, m, &t)
	case *suite:
		err = suiteProbes(e, inst, tr, probes, m, &t)
	}
	tr.end(probes)
	if err != nil {
		return nil, t, err
	}
	return m, t, writeTrace(md, tr, m, plain, withTrace)
}

func explorerProbes(e *env, x *explorer, tr *tracer, parent int, m map[string]float64, t *tally) error {
	s := x.res.Stats
	sched := x.res.Sched
	if x.workers < maxProcs {
		// A sequential run leaves the scheduler idle: its counters come
		// from one more run of the program with maxProcs workers.
		sp := tr.begin("core.Checker.Run/sched", parent)
		c := core.New(mm.WMM)
		c.WorkersPerRun = maxProcs
		r := c.Run(x.prog)
		tr.end(sp)
		t.checkVerdict(x.prog.Name, mm.WMM.Name(), r.Verdict)
		sched = r.Sched
	}
	coreMetrics(s, sched, m)
	m["core.visited.insert_ns"] = visitedInsertNs(e.rng(), s.Popped-s.Duplicates)
	if err := checkpointProbe(mm.WMM, x.prog, x.workers, max(1, s.Popped/8), m); err != nil {
		return err
	}
	vprogProbe(func() []*vprog.Program {
		return []*vprog.Program{workload.Program(x.w, nil, x.threads)}
	}, m)
	return x.cellProbes(e, tr, parent, m, t)
}

func suiteProbes(e *env, s *suite, tr *tracer, parent int, m map[string]float64, t *tally) error {
	sp := tr.begin("account", parent)
	sum, largest, lres := s.account()
	tr.end(sp)
	// Every accounted run is sequential: the scheduler counters are
	// those of a one-worker run.
	coreMetrics(sum, core.SchedStats{}, m)
	m["core.visited.insert_ns"] = visitedInsertNs(e.rng(), lres.Stats.Popped-lres.Stats.Duplicates)
	if err := checkpointProbe(largest.model, largest.prog, 1, max(1, lres.Stats.Popped/8), m); err != nil {
		return err
	}
	vprogProbe(func() []*vprog.Program {
		var ps []*vprog.Program
		for _, cfg := range s.matrixConfigs() {
			for _, mp := range matrixPrograms(cfg) {
				ps = append(ps, mp.prog)
			}
		}
		return ps
	}, m)
	var keys []store.Key
	seen := map[graph.Hash128]bool{}
	for _, cfg := range s.matrixConfigs() {
		for _, pb := range matrixProblems(cfg, seen) {
			keys = append(keys, pb.key)
		}
	}
	if err := storeProbe(e, s.st, keys, m, t); err != nil {
		return err
	}
	m["store.warm_pass_s"] = s.warmWall
	optimizeMetrics(s.opt, m)
	matrixMetrics(s.cold, m)
	return nil
}

// traceFile is what a traced run writes out at the end.
type traceFile struct {
	Meta       meta               `json:"meta"`
	Metrics    map[string]float64 `json:"per_layer"`
	Untraced   []float64          `json:"untraced_wall_s"`
	Traced     []float64          `json:"traced_wall_s"`
	Spans      []span             `json:"spans"`
	Aggregates []aggregate        `json:"aggregates"`
}

// aggregate is one timing wrapper's totals, attributed to the span the
// wrapped model was handed to.
type aggregate struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Calls   int64  `json:"calls"`
	Rejects int64  `json:"rejects"`
	TotalNs int64  `json:"total_ns"`
	Samples int    `json:"samples"`
}

func writeTrace(md meta, tr *tracer, m map[string]float64, plain, withTrace []float64) error {
	f := traceFile{Meta: md, Metrics: m, Untraced: plain, Traced: withTrace, Spans: tr.finish()}
	for _, tm := range tr.models {
		tm.mu.Lock()
		n := len(tm.samples)
		tm.mu.Unlock()
		f.Aggregates = append(f.Aggregates, aggregate{
			Name: "mm.Consistent", Parent: tm.parent,
			Calls: tm.calls.Load(), Rejects: tm.rejects.Load(), TotalNs: tm.nanos.Load(), Samples: n,
		})
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", md.Workload, md.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
