package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/mm"
)

// tracer records the traced run from outside the program: a span
// around each call into a layer's public entry point, and a timing
// wrapper around every mm.Model the run verifies against. Everything is
// kept in memory and written out once the run ends (see traceFile).
//
// A nil *tracer is the untraced run: every method is a no-op and
// model returns the model unwrapped, so the measured code path is the
// same function with nothing added.
type tracer struct {
	start  time.Time
	every  int64 // sample every Nth graph handed to Consistent
	phase  int64 // which residue mod every is sampled (seed-derived)
	limit  int   // maximum samples kept per run
	mu     sync.Mutex
	spans  []span
	models []*timedModel
}

// span is one layer boundary crossing. Times are nanoseconds since the
// tracer started; Parent is the index of the enclosing span (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
	Attrs  []attr `json:"attrs,omitempty"`
}

type attr struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

func newTracer(every, phase int64, limit int) *tracer {
	return &tracer{start: time.Now(), every: every, phase: phase % every, limit: limit}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.start)), End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// annotate attaches a counter to span id.
func (t *tracer) annotate(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Attrs = append(t.spans[id].Attrs, attr{key, v})
	t.mu.Unlock()
}

// model wraps m in a timing wrapper attributed to span parent; sym is
// the symmetry spec of the program the graphs belong to (nil when the
// caller mixes programs or the program has none), kept with each
// sample for the canonicalization replay.
func (t *tracer) model(m mm.Model, parent int, sym *graph.SymSpec) mm.Model {
	if t == nil {
		return m
	}
	tm := &timedModel{Model: m, parent: parent, sym: sym, every: t.every, phase: t.phase, limit: t.limit}
	t.mu.Lock()
	t.models = append(t.models, tm)
	t.mu.Unlock()
	return tm
}

// finish computes every span's self time: its duration minus the part
// of it covered by its child spans. It is called once, after the last
// span has closed.
func (t *tracer) finish() []span {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].End - t.spans[i].Start - children[i]
	}
	return t.spans
}

// consistentTotals sums the wrappers' counters.
func (t *tracer) consistentTotals() (calls, rejects, nanos int64) {
	for _, m := range t.models {
		calls += m.calls.Load()
		rejects += m.rejects.Load()
		nanos += m.nanos.Load()
	}
	return
}

// graphSamples returns every graph the wrappers sampled.
func (t *tracer) graphSamples() []sample {
	var out []sample
	for _, m := range t.models {
		m.mu.Lock()
		out = append(out, m.samples...)
		m.mu.Unlock()
	}
	return out
}

// sample is one graph handed to Consistent, encoded at the time of the
// call, with the symmetry spec of its program.
type sample struct {
	enc []byte
	sym *graph.SymSpec
}

// timedModel is a transparent mm.Model wrapper: it times each
// Consistent call and counts calls and rejections with atomic counters
// (a parallel run calls it from every worker at once), and keeps an
// encoding of every Nth graph. Encoding with graph.AppendGraph only
// reads the graph; Graph.Clone would not do, because it clears the
// source's rf-row ownership and so changes what the explorer does next.
type timedModel struct {
	mm.Model
	parent int
	sym    *graph.SymSpec
	every  int64
	phase  int64
	limit  int

	calls, rejects, nanos atomic.Int64

	mu      sync.Mutex
	samples []sample
}

// Consistent implements mm.Model.
func (m *timedModel) Consistent(g *graph.Graph) bool {
	t0 := time.Now()
	ok := m.Model.Consistent(g)
	m.nanos.Add(int64(time.Since(t0)))
	n := m.calls.Add(1)
	if !ok {
		m.rejects.Add(1)
	}
	if n%m.every == m.phase {
		enc := graph.AppendGraph(nil, g)
		m.mu.Lock()
		if len(m.samples) < m.limit {
			m.samples = append(m.samples, sample{enc: enc, sym: m.sym})
		}
		m.mu.Unlock()
	}
	return ok
}
