package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/structs"
	"repro/internal/vprog"
	"repro/internal/workload"
	"repro/vsync"
)

// env is what one benchmark process shares across its repetitions.
type env struct {
	dir   string // scratch directory inside the checkout, removed at exit
	seed  uint64
	files int // store files created so far (unique names)
}

// rng returns a fresh generator for the process's seed, so every
// repetition derives the same inputs.
func (e *env) rng() *rand.Rand { return rand.New(rand.NewPCG(e.seed, 0x7e11)) }

// storePath returns a path for a fresh verdict log.
func (e *env) storePath() string {
	e.files++
	return filepath.Join(e.dir, fmt.Sprintf("store-%d", e.files), "verdicts.log")
}

// workloadDef is one benchmark workload: what a repetition sets up
// (timed as setup_s) and the settings it runs with.
type workloadDef struct {
	name        string
	workers     int   // WorkersPerRun of every AMC run
	parallelism int   // concurrent AMC runs
	sampleEvery int64 // traced run: sample every Nth graph handed to Consistent
	setup       func(e *env) (instance, error)
}

// instance is one set-up repetition of a workload. run does the
// verification work timed as wall_s and checks every answer; tr is nil
// on untraced repetitions, and parent is the span the run's own spans
// nest under.
type instance interface {
	run(tr *tracer, parent int) tally
	popped() int
	close()
}

var workloads = []*workloadDef{
	{name: "treiber-t3", workers: 1, parallelism: 1, sampleEvery: 32, setup: explorerSetup(structs.Treiber(1), 3, 1)},
	{name: "msqueue-t3", workers: 2, parallelism: 1, sampleEvery: 512, setup: explorerSetup(structs.MSQueue(2), 3, 2)},
	{name: "suite-opt", workers: 1, parallelism: 2, sampleEvery: 8, setup: suiteSetup},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// explorer is a single core.Checker run of one structure under WMM.
type explorer struct {
	w       workload.Workload
	threads int
	workers int
	prog    *vprog.Program
	res     *core.Result
}

func explorerSetup(w workload.Workload, threads, workers int) func(*env) (instance, error) {
	return func(*env) (instance, error) {
		p := workload.Program(w, nil, threads)
		if p.SymSpec() == nil {
			return nil, fmt.Errorf("%s: symmetry declaration did not validate", p.Name)
		}
		return &explorer{w: w, threads: threads, workers: workers, prog: p}, nil
	}
}

func (x *explorer) run(tr *tracer, parent int) tally {
	sp := tr.begin("core.Checker.Run", parent)
	c := core.New(tr.model(mm.WMM, sp, x.prog.SymSpec()))
	c.WorkersPerRun = x.workers
	x.res = c.Run(x.prog)
	tr.end(sp)
	var t tally
	t.checkVerdict(x.prog.Name, mm.WMM.Name(), x.res.Verdict)
	return t
}

func (x *explorer) popped() int { return x.res.Stats.Popped }
func (x *explorer) close()      {}

// The suite-opt workload: the incremental suite as `make suite` runs
// it, then the optimizer studies, against one fresh verdict store.
const (
	suiteParallelism = 2
	optThreads       = 2 // optimizer client threads (vsyncopt's default)
)

// optimizerLocks are the locks suite-opt optimizes from all-SC.
var optimizerLocks = []string{"ttas", "ticket", "clh", "mcs", "dpdkmcs"}

// t3Passes are the `make suite` t=3 lock passes, in Makefile order.
var t3Passes = [][]string{{"mcs"}, {"clh", "ttas"}}

type suite struct {
	path     string
	st       *vsync.VerdictStore
	models   []mm.Model
	locks    []*locks.Algorithm
	structs  []workload.Workload
	litmus   []string
	t3Locks  [][]*locks.Algorithm
	optLocks []*locks.Algorithm
	initial  []*vprog.BarrierSpec // all-SC start of each optLocks entry

	cold      *vsync.MatrixResult
	opt       []*optimize.Result
	warmWall  float64 // the warm re-passes, summed
	optimized struct {
		sync.Mutex
		progs []*vprog.Program // every program the optimizer asked to verify
	}
}

// permute returns xs in an order drawn from r.
func permute[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func algs(names []string) ([]*locks.Algorithm, error) {
	var out []*locks.Algorithm
	for _, n := range names {
		a := locks.ByName(n)
		if a == nil {
			return nil, fmt.Errorf("unknown lock %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// suiteSetup opens a fresh store and fixes the corpus order. The seed
// permutes the order of the matrix's models, locks, structures and
// litmus tests and of the optimizer studies; the set of cells, and so
// every expected answer, is the same for every seed.
func suiteSetup(e *env) (instance, error) {
	r := e.rng()
	s := &suite{
		path:    e.storePath(),
		models:  permute(r, mm.All()),
		locks:   permute(r, locks.Verifiable()),
		structs: permute(r, workload.Verifiable()),
		litmus:  permute(r, harness.LitmusNames()),
	}
	for _, names := range t3Passes {
		a, err := algs(permute(r, names))
		if err != nil {
			return nil, err
		}
		s.t3Locks = append(s.t3Locks, a)
	}
	opt, err := algs(permute(r, optimizerLocks))
	if err != nil {
		return nil, err
	}
	s.optLocks = opt
	for _, a := range opt {
		s.initial = append(s.initial, a.DefaultSpec().AllSC())
	}
	if s.st, err = vsync.OpenStore(s.path); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *suite) coldConfig() vsync.MatrixConfig {
	return vsync.MatrixConfig{
		Models: s.models, Locks: s.locks, Structs: s.structs, Litmus: s.litmus,
		Store: s.st, Parallelism: suiteParallelism, WorkersPerRun: 1,
	}
}

func (s *suite) t3Config(i int) vsync.MatrixConfig {
	return vsync.MatrixConfig{
		Models: s.models, Locks: s.t3Locks[i], NoStructs: true, NoLitmus: true, MaxThreads: 3,
		Store: s.st, Parallelism: suiteParallelism, WorkersPerRun: 1,
	}
}

// coldCells is the number of cells the cold pass over the table's
// corpus has: every table program at t=2, every litmus variant.
func (s *suite) coldCells() int {
	return (len(okPrograms) + 2*len(litmusObservable)) * len(s.models)
}

func (s *suite) t3Cells(i int) int { return 2 * len(s.t3Locks[i]) * len(s.models) }

func (s *suite) run(tr *tracer, parent int) tally {
	var t tally
	matrix := func(name string, cfg vsync.MatrixConfig) *vsync.MatrixResult {
		sp := tr.begin(name, parent)
		r := vsync.VerifyMatrix(cfg)
		tr.end(sp)
		tr.annotate(sp, "cells", float64(len(r.Cells)))
		tr.annotate(sp, "hits", float64(r.Hits))
		tr.annotate(sp, "amc_runs", float64(r.Misses))
		return r
	}

	s.cold = matrix("vsync.VerifyMatrix/cold", s.coldConfig())
	t.checkMatrix("cold", s.cold, s.coldCells(), false)
	for i := range s.t3Locks {
		r := matrix("vsync.VerifyMatrix/t3", s.t3Config(i))
		t.checkMatrix("t=3", r, s.t3Cells(i), false)
	}

	warm := matrix("vsync.VerifyMatrix/warm", s.coldConfig())
	s.warmWall = warm.Duration.Seconds()
	t.checkMatrix("warm", warm, s.coldCells(), true)
	for i := range s.t3Locks {
		r := matrix("vsync.VerifyMatrix/warm-t3", s.t3Config(i))
		s.warmWall += r.Duration.Seconds()
		t.checkMatrix("warm t=3", r, s.t3Cells(i), true)
	}

	for i, alg := range s.optLocks {
		sp := tr.begin("optimize.Optimizer.Run/"+alg.Name, parent)
		var model mm.Model = mm.WMM
		if tr != nil {
			// Sampled graphs are canonicalized under the symmetry of the
			// lock's client, whatever spec the candidate assigns.
			model = tr.model(mm.WMM, sp, harness.MutexClient(alg, alg.DefaultSpec(), optThreads, 1).SymSpec())
		}
		o := &optimize.Optimizer{
			Model: model,
			Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
				p := harness.MutexClient(alg, spec, optThreads, 1)
				s.optimized.Lock()
				s.optimized.progs = append(s.optimized.progs, p)
				s.optimized.Unlock()
				return []*vprog.Program{p}
			},
			Parallelism: suiteParallelism,
			Speculate:   true,
			Cache:       optimize.NewCacheWithStore(s.st),
		}
		res, err := o.Run(s.initial[i])
		tr.end(sp)
		if err != nil {
			t.check(false, "optimize %s: %v", alg.Name, err)
			continue
		}
		tr.annotate(sp, "verifications", float64(res.Verifications))
		s.opt = append(s.opt, res)
		t.checkSpec(alg.Name, res.Final)
	}
	return t
}

// popped is accounted separately (see suite.account): the matrix and
// the optimizer do not expose their runs' statistics.
func (s *suite) popped() int { return 0 }

func (s *suite) close() {
	s.st.Close()
	os.RemoveAll(filepath.Dir(s.path))
}

// problem is one distinct verification problem a suite repetition
// poses.
type problem struct {
	model mm.Model
	prog  *vprog.Program
	key   store.Key // the store key the matrix files it under (zero for optimizer problems)
}

// matrixConfigs are the repetition's cold matrix passes, in order.
func (s *suite) matrixConfigs() []vsync.MatrixConfig {
	cfgs := []vsync.MatrixConfig{s.coldConfig()}
	for i := range s.t3Locks {
		cfgs = append(cfgs, s.t3Config(i))
	}
	return cfgs
}

// matrixProgram is one program of a matrix pass with the fingerprint of
// the barrier spec it was built from (zero for litmus programs).
type matrixProgram struct {
	prog *vprog.Program
	spec graph.Hash128
}

// matrixPrograms rebuilds the programs of a matrix pass the way
// vsync.VerifyMatrix builds them.
func matrixPrograms(cfg vsync.MatrixConfig) []matrixProgram {
	threads := []int{2}
	if cfg.MaxThreads == 3 {
		threads = []int{2, 3}
	}
	var out []matrixProgram
	for _, alg := range cfg.Locks {
		for _, t := range threads {
			out = append(out, matrixProgram{harness.MutexClient(alg, alg.DefaultSpec(), t, 1), alg.DefaultSpec().Fingerprint128()})
		}
	}
	if !cfg.NoStructs {
		for _, w := range cfg.Structs {
			for _, t := range threads {
				out = append(out, matrixProgram{workload.Program(w, nil, t), w.DefaultSpec().Fingerprint128()})
			}
		}
	}
	if !cfg.NoLitmus {
		for _, n := range cfg.Litmus {
			for _, strong := range []bool{false, true} {
				out = append(out, matrixProgram{prog: harness.Litmus(n, strong)})
			}
		}
	}
	return out
}

// matrixProblems returns the verification problems of a matrix pass
// not already in seen, one per distinct store key — the unit
// vsync.VerifyMatrix runs AMC for.
func matrixProblems(cfg vsync.MatrixConfig, seen map[graph.Hash128]bool) []problem {
	var out []problem
	for _, mp := range matrixPrograms(cfg) {
		fp := mp.prog.Fingerprint128()
		for _, m := range cfg.Models {
			k := store.Key{Model: m.Name(), Spec: mp.spec, Prog: fp}
			if !seen[k.Hash()] {
				seen[k.Hash()] = true
				out = append(out, problem{model: m, prog: mp.prog, key: k})
			}
		}
	}
	return out
}

// problems returns every distinct verification problem of the
// repetition: the matrix passes' cells, then the optimizer's
// candidates.
func (s *suite) problems() []problem {
	seen := map[graph.Hash128]bool{}
	var out []problem
	for _, cfg := range s.matrixConfigs() {
		out = append(out, matrixProblems(cfg, seen)...)
	}
	s.optimized.Lock()
	progs := append([]*vprog.Program(nil), s.optimized.progs...)
	s.optimized.Unlock()
	for _, p := range progs {
		h := p.Fingerprint128()
		k := store.Key{Model: mm.WMM.Name(), Prog: h}
		if !seen[k.Hash()] {
			seen[k.Hash()] = true
			out = append(out, problem{model: mm.WMM, prog: p})
		}
	}
	return out
}

// account runs every distinct problem of the repetition once, to
// completion at one worker, outside any timed window, and returns the
// summed statistics and the largest run. vsync.VerifyMatrix and the
// optimizer report verdicts only, so this is how suite-opt's
// states_popped and core counters are observed from outside.
func (s *suite) account() (sum core.Stats, largest problem, largestRes *core.Result) {
	for _, pb := range s.problems() {
		c := core.New(pb.model)
		c.WorkersPerRun = 1
		r := c.Run(pb.prog)
		sum.Add(r.Stats)
		if largestRes == nil || r.Stats.Popped > largestRes.Stats.Popped {
			largest, largestRes = pb, r
		}
	}
	return sum, largest, largestRes
}
