package graph

import "sort"

// Rels materializes the derived relations of an execution graph over a
// dense event index, ready for the axiomatic consistency predicates in
// internal/mm. Index layout: init writes first (one per location), then
// explicit events in stamp (addition) order. Stamp order is what makes
// Extend possible: the event appended last has the largest stamp, so an
// extension always adds index N — one new row and column — and never
// shifts existing indices.
type Rels struct {
	G     *Graph
	N     int
	Ev    []*Event // indexed events; init events synthesized
	nInit int
	// tIdx maps (thread, po-index) to the dense index. The rows follow
	// the same copy-on-write discipline as Graph.Threads: Extend clamps
	// and appends, so parent and child share all but the extended row.
	tIdx [][]int32

	Sb    *BitMat // program order (transitive), init before everything
	RfM   *BitMat // reads-from as a matrix (w -> r)
	MoM   *BitMat // modification order (transitive per location)
	FrM   *BitMat // from-read: r -> w' for w' mo-after rf(r)
	Hb    *BitMat // happens-before = (sb ∪ sw)+
	Eco   *BitMat // extended coherence order = (rf ∪ mo ∪ fr)+
	SbLoc *BitMat // sb restricted to same-location accesses

	// mats embeds the seven carried matrices (the pointers above point
	// into it) with their bit rows carved out of one shared slab: a
	// whole relation set costs two allocations. sw is deliberately NOT
	// carried: no consumer reads it after Hb is closed over it, so
	// BuildRels derives it into pooled scratch and drops it.
	mats [7]BitMat

	// topo caches a topological order of sb ∪ rf ∪ mo over the dense
	// indices (topo[k] = vertex at position k) when topoState is
	// topoValid; the consistency predicates seed their closure-free
	// acyclicity checks from it (see BitMat.AcyclicSeeded). BuildRels
	// derives it with one Kahn pass; Extend maintains it
	// Pearce–Kelly-style from the one-event delta, so along exploration
	// chains child states inherit a valid order for near-free.
	// topoCyclic records that the union itself is cyclic — a permanent
	// fact, since extension only ever adds edges.
	topo      []int32
	topoState uint8
}

// topo cache states. The zero value (topoNone) means "not derived
// yet": the order is computed lazily on first use, so states that die
// before any relation-level check (atomicity, coherence) never pay for
// it. A conflicted Extend (back edge) also parks the child at topoNone
// instead of re-deriving eagerly.
const (
	topoNone uint8 = iota
	topoValid
	topoCyclic
)

// ensureTopo derives the cached order on first demand with one Kahn
// pass over the union adjacency (counted as a lazy derivation —
// fresh BuildRels states and Extend's back-edge parks both land here).
func (r *Rels) ensureTopo() {
	if r.topoState != topoNone {
		return
	}
	acDerives.Add(1)
	u := r.Sb.ClonePooled()
	u.OrWith(r.RfM)
	u.OrWith(r.MoM)
	if len(r.topo) != r.N {
		r.topo = make([]int32, r.N)
	}
	if u.kahn(r.topo) {
		r.topoState = topoValid
	} else {
		r.topoState = topoCyclic
		r.topo = nil
		acCyclicSt.Add(1)
	}
	u.Release()
}

// TopoOK reports whether a valid topological order of sb ∪ rf ∪ mo is
// available — which in particular proves that union (and every subset
// of it, e.g. porf) acyclic. Derives the order on first use.
func (r *Rels) TopoOK() bool { r.ensureTopo(); return r.topoState == topoValid }

// TopoCyclic reports whether sb ∪ rf ∪ mo is known to be cyclic —
// which makes every superset cyclic too. Derives on first use.
func (r *Rels) TopoCyclic() bool { r.ensureTopo(); return r.topoState == topoCyclic }

// TopoOrder returns the cached topological order (position → vertex),
// deriving it on first use, or nil when the union is cyclic. The slice
// is shared state: it may be passed to BitMat.AcyclicSeeded freely,
// but to the refreshing BitMat.AcyclicWithOrder only for relations
// that are supersets of sb ∪ rf ∪ mo (a refreshed order must stay
// valid for the union).
func (r *Rels) TopoOrder() []int32 {
	r.ensureTopo()
	if r.topoState != topoValid {
		return nil
	}
	return r.topo
}

// AcyclicSuperset decides acyclicity of m, which the caller guarantees
// is a superset of sb ∪ rf ∪ mo (the SC order candidate
// sb ∪ rf ∪ mo ∪ fr). It exploits the cached order in every state:
// a known-cyclic union rejects immediately; a valid order seeds the
// fast path and is refreshed from m on misses; and when no order has
// been derived yet, the single Kahn pass that decides m doubles as the
// derivation — acyclic supersets hand the state a valid order for
// free, so one pass pays for both the verdict and the cache.
func (r *Rels) AcyclicSuperset(m *BitMat) bool {
	switch r.topoState {
	case topoCyclic:
		acShortcuts.Add(1)
		return false
	case topoValid:
		return m.AcyclicWithOrder(r.topo)
	}
	acChecks.Add(1)
	acKahn.Add(1)
	if len(r.topo) != r.N {
		r.topo = make([]int32, r.N)
	}
	ok := m.kahn(r.topo)
	if ok {
		r.topoState = topoValid
	} else {
		// m cyclic says nothing about the subset union: stay underived.
		acCycles.Add(1)
	}
	m.crossCheck(ok)
	return ok
}

// IndexOf returns the dense index of the event id.
func (r *Rels) IndexOf(id EventID) int {
	if id.IsInit() {
		return id.Index
	}
	return int(r.tIdx[id.Thread][id.Index])
}

// RelsOf returns the derived relations of g, memoized on the graph:
// the memory-model consistency predicates (four of them in internal/mm)
// all go through here, so one graph state is analyzed at most once
// however many predicates inspect it. When g carries an extension hint
// (NoteExtended) and its parent's relations are still memoized, the
// result is computed incrementally from the parent instead of from
// scratch — the common case during exploration, where every branch is
// parent-plus-one-event. A parent that has no relations yet but carries
// a hint of its own gets them derived first: a revisit restriction
// admitted without a check has none until its first child asks.
func RelsOf(g *Graph) *Rels {
	if g.rels != nil {
		return g.rels
	}
	p := g.extParent
	if p != nil && p.rels == nil && p.extKind != extNone {
		RelsOf(p)
	}
	switch {
	case p == nil || p.rels == nil:
		g.rels = BuildRels(g)
	case g.extKind == extAppend:
		g.rels = p.rels.Extend(g, g.extEvent)
	case g.extKind == extResolve:
		g.rels = p.rels.Resolve(g, g.extEvent)
	default: // extRestrict
		g.rels = p.rels.Restrict(g, g.extEvent)
	}
	// Drop the hint: it has served its purpose, and holding it would
	// pin the whole ancestor chain (graphs and relations) in memory.
	g.extParent, g.extEvent = nil, nil
	g.extKind = extNone
	return g.rels
}

// DropRels releases g's memoized relations for reuse by later
// relation sets. The caller guarantees that nothing holds them any
// more: g is being discarded, and no graph derived from g through
// NoteExtended, NoteResolved or NoteRestricted will ask for them.
func (g *Graph) DropRels() {
	if r := g.rels; r != nil {
		g.rels = nil
		r.releaseSlab()
	}
}

// releaseSlab hands r's matrix slab to the next allocMats; r is unusable
// afterwards.
func (r *Rels) releaseSlab() {
	bits := r.mats[0].bits[:0:cap(r.mats[0].bits)]
	r.mats = [7]BitMat{}
	slabPool.Put(&bits)
}

// BuildRels computes all derived relations of g from scratch.
func BuildRels(g *Graph) *Rels {
	r := &Rels{G: g, nInit: len(g.InitVals)}
	// Index init writes, then explicit events in stamp order.
	for l := range g.InitVals {
		id := EventID{Thread: InitThread, Index: l}
		r.Ev = append(r.Ev, g.Event(id))
	}
	for _, evs := range g.Threads {
		r.Ev = append(r.Ev, evs...)
	}
	sort.Slice(r.Ev[r.nInit:], func(i, j int) bool {
		return r.Ev[r.nInit+i].Stamp < r.Ev[r.nInit+j].Stamp
	})
	r.N = len(r.Ev)
	n := r.N
	r.tIdx = make([][]int32, len(g.Threads))
	for t, evs := range g.Threads {
		r.tIdx[t] = make([]int32, len(evs))
	}
	for i := r.nInit; i < n; i++ {
		id := r.Ev[i].ID
		r.tIdx[id.Thread][id.Index] = int32(i)
	}

	r.allocMats(n)

	// sb: init before all thread events; po within each thread. The
	// transitive rows are assembled word-wide — each init row is the
	// "every explicit event" mask, and within a thread row(a) is
	// row(a+1) plus the bit for a+1 (a descending suffix OR) — instead
	// of O(n²) individual bit sets.
	nInit := r.nInit
	if nInit > 0 && n > nInit {
		for j := nInit; j < n; j++ {
			r.Sb.Set(0, j)
		}
		for i := 1; i < nInit; i++ {
			r.Sb.copyRow(i, 0)
		}
	}
	for i := 0; i < nInit; i++ {
		for j := nInit; j < n; j++ {
			if r.Ev[j].Kind != KFence && r.Ev[j].Kind != KError && r.Ev[i].Loc == r.Ev[j].Loc {
				r.SbLoc.Set(i, j)
			}
		}
	}
	for _, evs := range g.Threads {
		for a := len(evs) - 2; a >= 0; a-- {
			ia, ib := r.IndexOf(evs[a].ID), r.IndexOf(evs[a+1].ID)
			r.Sb.copyRow(ia, ib)
			r.Sb.Set(ia, ib)
		}
		for a := 0; a < len(evs); a++ {
			ea := evs[a]
			if ea.Kind == KFence || ea.Kind == KError {
				continue
			}
			ia := r.IndexOf(ea.ID)
			for b := a + 1; b < len(evs); b++ {
				eb := evs[b]
				if eb.Kind != KFence && eb.Kind != KError && ea.Loc == eb.Loc {
					r.SbLoc.Set(ia, r.IndexOf(eb.ID))
				}
			}
		}
	}

	// rf.
	for t, evs := range g.Threads {
		for i, e := range evs {
			if !e.IsReadLike() {
				continue
			}
			rf := g.rf[t][i]
			if rf.Bottom {
				continue
			}
			r.RfM.Set(r.IndexOf(rf.W), r.IndexOf(e.ID))
		}
	}

	// mo (transitive within each location's total order): the same
	// descending suffix-OR trick as sb — each write's row is its
	// mo-successor's row plus that successor's bit.
	for _, order := range g.Mo {
		for a := len(order) - 2; a >= 0; a-- {
			ia, ib := r.IndexOf(order[a]), r.IndexOf(order[a+1])
			r.MoM.copyRow(ia, ib)
			r.MoM.Set(ia, ib)
		}
	}

	// fr = rf^-1 ; mo (strict): read -> every write mo-after its
	// source. That target set is exactly the source's mo row, so each
	// read's fr row is one word-wide copy (minus the read itself — an
	// update never fr-precedes itself). A source missing from mo
	// cannot happen for well-formed graphs: its empty mo row then
	// yields no fr, as before.
	for t, evs := range g.Threads {
		for i, e := range evs {
			if !e.IsReadLike() {
				continue
			}
			rf := g.rf[t][i]
			if rf.Bottom {
				continue
			}
			ri := r.IndexOf(e.ID)
			r.FrM.copyRowFrom(ri, r.MoM, r.IndexOf(rf.W))
			r.FrM.Clear(ri, ri)
		}
	}

	sw := NewBitMatPooled(n)
	r.buildSw(sw)

	copy(r.Hb.bits, r.Sb.bits)
	r.Hb.OrWith(sw)
	sw.Release()
	r.Hb.TransClose()

	copy(r.Eco.bits, r.RfM.bits)
	r.Eco.OrWith(r.MoM)
	r.Eco.OrWith(r.FrM)
	r.Eco.TransClose()

	return r
}

// buildSw computes the synchronizes-with relation in the RC11 style:
//
//	sw = [rel-side] ; rs ; rf ; [acq-side]
//
// where the release side of a base write w is w itself when it has
// release semantics, or any release fence sb-before w in the same
// thread; rs (the release sequence) is w followed by any chain of
// updates reading from it; and the acquire side of a read r is r itself
// when it has acquire semantics, or any acquire fence sb-after r.
func (r *Rels) buildSw(sw *BitMat) {
	g := r.G
	for t, evs := range g.Threads {
		for i, re := range evs {
			if !re.IsReadLike() {
				continue
			}
			rf := g.rf[t][i]
			if rf.Bottom {
				continue
			}
			// Acquire-side targets.
			var acqSides []int
			if re.Mode.HasAcq() {
				acqSides = append(acqSides, r.IndexOf(re.ID))
			}
			for _, f := range evs[i+1:] {
				if f.Kind == KFence && f.Mode.HasAcq() {
					acqSides = append(acqSides, r.IndexOf(f.ID))
				}
			}
			if len(acqSides) == 0 {
				continue
			}
			r.swFromBases(g, rf.W, func(s int) {
				for _, a := range acqSides {
					if s != a {
						sw.Set(s, a)
					}
				}
			})
		}
	}
}

// swFromBases walks the release sequence backwards from the rf source
// base (the source itself and, through update chains, each write it
// read from) and calls emit with the index of every release side: the
// base when it carries release semantics, and every release fence
// sb-before the base in its thread.
func (r *Rels) swFromBases(g *Graph, base EventID, emit func(relSide int)) {
	for {
		be := g.Event(base)
		if be.Mode.HasRel() {
			emit(r.IndexOf(base))
		}
		if base.Thread >= 0 {
			for _, f := range g.Threads[base.Thread][:base.Index] {
				if f.Kind == KFence && f.Mode.HasRel() {
					emit(r.IndexOf(f.ID))
				}
			}
		}
		if be.Kind != KUpdate {
			return
		}
		prev := g.rf[base.Thread][base.Index]
		if prev.Bottom {
			return
		}
		base = prev.W
	}
}

// IsSCEvent reports whether indexed event i carries SC mode.
func (r *Rels) IsSCEvent(i int) bool { return r.Ev[i].Mode.IsSC() }

// IsSCFence reports whether indexed event i is an SC fence.
func (r *Rels) IsSCFence(i int) bool { return r.Ev[i].Kind == KFence && r.Ev[i].Mode.IsSC() }
