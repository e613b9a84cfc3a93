package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randExtendHistory appends nSteps random events to g the way the
// explorer does (clone-free here: we mutate one graph and snapshot
// relations), calling check after every append with the pre-append
// relations, the post-append graph and the new event.
func randExtendHistory(t *testing.T, rng *rand.Rand, nThreads, nLocs, nSteps int,
	check func(prev *Rels, g *Graph, e *Event)) {
	t.Helper()
	initVals := make([]Val, nLocs)
	names := make([]string, nLocs)
	for l := range names {
		names[l] = fmt.Sprintf("v%d", l)
	}
	g := New(nThreads, initVals, names)
	modes := []Mode{Rlx, Acq, Rel, AcqRel, SC}
	val := Val(1)
	for s := 0; s < nSteps; s++ {
		prev := BuildRels(g)
		tid := rng.Intn(nThreads)
		loc := Loc(rng.Intn(nLocs))
		mode := modes[rng.Intn(len(modes))]
		e := &Event{
			ID:       EventID{Thread: tid, Index: len(g.Threads[tid])},
			Mode:     mode,
			Loc:      loc,
			AwaitSeq: -1,
		}
		switch k := rng.Intn(10); {
		case k < 3: // write
			e.Kind = KWrite
			e.Val = val
			val++
			g.Append(e)
			g.InsertMo(loc, e.ID, 1+rng.Intn(len(g.Mo[loc])))
		case k < 6: // read (sometimes bottom)
			e.Kind = KRead
			if rng.Intn(4) == 0 {
				g.Append(e)
				g.SetRF(e.ID, BottomRF)
			} else {
				order := g.Mo[loc]
				w := order[rng.Intn(len(order))]
				e.RVal = g.WriteVal(w)
				g.Append(e)
				g.SetRF(e.ID, FromW(w))
			}
		case k < 8: // update (sometimes degraded or blocked on ⊥)
			e.Kind = KUpdate
			if rng.Intn(5) == 0 {
				// Blocked update: ⊥ rf, write part not yet in mo.
				g.Append(e)
				g.SetRF(e.ID, BottomRF)
				break
			}
			order := g.Mo[loc]
			src := rng.Intn(len(order))
			w := order[src]
			e.RVal = g.WriteVal(w)
			if rng.Intn(3) == 0 {
				e.Degraded = true
				g.Append(e)
				g.SetRF(e.ID, FromW(w))
			} else {
				e.Val = val
				val++
				g.Append(e)
				g.SetRF(e.ID, FromW(w))
				g.InsertMo(loc, e.ID, src+1)
			}
		default: // fence
			e.Kind = KFence
			e.Loc = 0
			g.Append(e)
		}
		check(prev, g, e)
	}
}

// TestAllocsExtend bounds the allocations of one incremental relation
// extension: the Rels struct with its embedded matrices, one bit slab,
// the event/index rows and the cached-order slice — the working
// vectors are pooled and nothing is per-event. Gated out of -short
// like the other allocation bars.
func TestAllocsExtend(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	g := New(2, []Val{0, 0}, []string{"x", "y"})
	val := Val(1)
	for i := 0; i < 12; i++ {
		w := &Event{ID: EventID{Thread: i % 2, Index: i / 2}, Kind: KWrite, Mode: Rel,
			Loc: Loc(i % 2), Val: val, AwaitSeq: -1}
		val++
		g.Append(w)
		g.InsertMo(w.Loc, w.ID, 1)
	}
	prev := BuildRels(g)
	e := &Event{ID: EventID{Thread: 0, Index: 6}, Kind: KWrite, Mode: Rel, Loc: 0, Val: val, AwaitSeq: -1}
	g.Append(e)
	g.InsertMo(0, e.ID, 1)
	prev.ensureTopo()
	allocs := testing.AllocsPerRun(100, func() {
		prev.Extend(g, e)
	})
	// Measured ~8 after the slab/pool work (was ~17 with per-matrix
	// allocation); bar at 12.
	if allocs > 12 {
		t.Errorf("Rels.Extend allocates %.0f objects, regression bar is 12", allocs)
	}
}

// TestExtendMatchesBuild is the correctness bar of the incremental
// relations: on randomized exploration histories, Rels.Extend must
// produce exactly the matrices BuildRels derives from scratch.
func TestExtendMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nThreads := 2 + rng.Intn(2)
		nLocs := 1 + rng.Intn(3)
		randExtendHistory(t, rng, nThreads, nLocs, 14, func(prev *Rels, g *Graph, e *Event) {
			ext := prev.Extend(g, e)
			full := BuildRels(g)
			if ext.N != full.N {
				t.Fatalf("trial %d: N=%d, want %d", trial, ext.N, full.N)
			}
			for i, ev := range full.Ev {
				if ext.Ev[i].ID != ev.ID {
					t.Fatalf("trial %d: Ev[%d] = %v, want %v", trial, i, ext.Ev[i].ID, ev.ID)
				}
			}
			pairs := []struct {
				name      string
				got, want *BitMat
			}{
				{"sb", ext.Sb, full.Sb},
				{"sbloc", ext.SbLoc, full.SbLoc},
				{"rf", ext.RfM, full.RfM},
				{"mo", ext.MoM, full.MoM},
				{"fr", ext.FrM, full.FrM},
				{"hb", ext.Hb, full.Hb},
				{"eco", ext.Eco, full.Eco},
			}
			for _, p := range pairs {
				if !p.got.Equal(p.want) {
					t.Fatalf("trial %d: %s differs after appending %v\ngraph:\n%s",
						trial, p.name, e, g.Render())
				}
			}
			assertTopoInvariant(t, ext, g)
		})
	}
}

// TestRestrictMatchesBuild is the correctness bar of restricted
// relations: on randomized histories, restricting a graph to a random
// keep set closed under po prefixes and rf sources (the shape of the
// revisit restriction), optionally followed by re-appending the newest
// event as a revisit child does with its write, must make Rels.Restrict
// produce exactly the matrices BuildRels derives from scratch.
func TestRestrictMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	selected := 0 // restrictions that dropped events and took the selecting path
	for trial := 0; trial < 60; trial++ {
		nThreads := 2 + rng.Intn(2)
		nLocs := 1 + rng.Intn(3)
		randExtendHistory(t, rng, nThreads, nLocs, 14, func(_ *Rels, g *Graph, e *Event) {
			// parent is g without e, or g itself; appended is what the
			// restriction re-appends.
			parent, appended := g, (*Event)(nil)
			if rng.Intn(2) == 0 {
				parent, appended = g.Clone(), e
				all := NewEventSet(g.NextStamp)
				for _, evs := range g.Threads {
					for _, x := range evs {
						if x != e {
							all.Add(x)
						}
					}
				}
				parent.RestrictTo(all)
			}
			pr := BuildRels(parent)
			if rng.Intn(2) == 0 {
				pr.ensureTopo()
			}
			keep := NewEventSet(g.NextStamp)
			for _, evs := range parent.Threads {
				for _, x := range evs[:rng.Intn(len(evs)+1)] {
					keep.Add(x)
				}
			}
			// Closure-drop, as the revisit restriction does it: a kept
			// read whose source is dropped goes, with the rest of its
			// thread.
			for changed := true; changed; {
				changed = false
				for _, evs := range parent.Threads {
					alive := true
					for _, x := range evs {
						if !keep.Has(x) {
							alive = false
							continue
						}
						rf := parent.RfOf(x.ID)
						if !alive || (x.IsReadLike() && !rf.Bottom && !rf.W.IsInit() && !keep.Has(parent.Event(rf.W))) {
							keep.Remove(x)
							alive, changed = false, true
						}
					}
				}
			}
			if appended != nil {
				// The appended event needs its po prefix and rf source.
				rf := g.RfOf(e.ID)
				if len(g.Threads[e.ID.Thread]) > 1 && !keep.Has(g.Threads[e.ID.Thread][e.ID.Index-1]) ||
					e.IsReadLike() && !rf.Bottom && !rf.W.IsInit() && !keep.Has(g.Event(rf.W)) {
					return
				}
				keep.Add(e)
			}
			g3 := g.Clone()
			g3.RestrictTo(keep)
			if g3.NumEvents() < g.NumEvents() && atomicUpdates(parent) {
				selected++
			}
			got, want := pr.Restrict(g3, appended), BuildRels(g3)
			if got.N != want.N {
				t.Fatalf("trial %d: N=%d, want %d", trial, got.N, want.N)
			}
			for i, ev := range want.Ev {
				if got.Ev[i] != ev {
					t.Fatalf("trial %d: Ev[%d] = %v, want %v", trial, i, got.Ev[i].ID, ev.ID)
				}
			}
			for _, evs := range g3.Threads {
				for _, x := range evs {
					if got.IndexOf(x.ID) != want.IndexOf(x.ID) {
						t.Fatalf("trial %d: index of %v is %d, want %d", trial, x.ID, got.IndexOf(x.ID), want.IndexOf(x.ID))
					}
				}
			}
			for m := range want.mats {
				if !got.mats[m].Equal(&want.mats[m]) {
					t.Fatalf("trial %d: matrix %d differs after restriction (appended %v)\ngraph:\n%s\nrestricted:\n%s",
						trial, m, appended != nil, g.Render(), g3.Render())
				}
			}
			assertTopoInvariant(t, got, g3)
		})
	}
	if selected < 100 {
		t.Fatalf("only %d restrictions took the selecting path", selected)
	}
}

// TestCopyBitRange pins the multi-word row compaction of Rels.Restrict
// (rows past 64 events) against a bit-by-bit copy, at every alignment
// of source and destination.
func TestCopyBitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]uint64, 3)
	for i := range src {
		src[i] = rng.Uint64()
	}
	get := func(v []uint64, i int) bool { return v[i/64]&(1<<uint(i%64)) != 0 }
	for from := 0; from < 192; from++ {
		for at := 0; at < 192; at += 7 {
			for n := 0; from+n <= 192 && at+n <= 192; n += 1 + n/3 {
				dst := make([]uint64, 3)
				copyBitRange(dst, at, src, from, n)
				for i := 0; i < 192; i++ {
					want := i >= at && i < at+n && get(src, from+i-at)
					if get(dst, i) != want {
						t.Fatalf("copyBitRange(at=%d, from=%d, n=%d): bit %d is %v, want %v", at, from, n, i, !want, want)
					}
				}
			}
		}
	}
}

// assertTopoInvariant checks the cached-order contract of r against
// ground truth: topoValid and topoCyclic must match the actual
// acyclicity of sb ∪ rf ∪ mo (decided by the closure oracle), a valid
// order must genuinely order the union, and topoNone is always
// allowed (the lazy states). ensureTopo from any state must land on
// the truth.
func assertTopoInvariant(t *testing.T, r *Rels, g *Graph) {
	t.Helper()
	union := r.Sb.Clone()
	union.OrWith(r.RfM)
	union.OrWith(r.MoM)
	acyclic := !union.HasCycle()
	switch r.topoState {
	case topoValid:
		if !acyclic {
			t.Fatalf("topoValid on a cyclic union\ngraph:\n%s", g.Render())
		}
		if !union.respectsOrder(r.topo) {
			t.Fatalf("cached order is not a topological order of the union\ngraph:\n%s", g.Render())
		}
	case topoCyclic:
		if acyclic {
			t.Fatalf("topoCyclic on an acyclic union\ngraph:\n%s", g.Render())
		}
	}
	r.ensureTopo()
	if acyclic != (r.topoState == topoValid) {
		t.Fatalf("ensureTopo landed on state %d, union acyclic=%v", r.topoState, acyclic)
	}
	if r.topoState == topoValid && !union.respectsOrder(r.topo) {
		t.Fatalf("derived order is not a topological order of the union")
	}
}

// TestResolveMatchesBuild is the correctness bar of the incremental
// ⊥-read resolution (Rels.Resolve, the AT resolvability hot path): on
// randomized histories ending in a blocked read, resolving it against
// each candidate write must produce exactly the matrices BuildRels
// derives from scratch, with the cached-order contract intact.
func TestResolveMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		nThreads := 2 + rng.Intn(2)
		nLocs := 1 + rng.Intn(2)
		var g *Graph
		randExtendHistory(t, rng, nThreads, nLocs, 10+rng.Intn(6), func(_ *Rels, gg *Graph, _ *Event) { g = gg })
		// Append a ⊥ read (sometimes a blocked update) to a random thread.
		tid := rng.Intn(nThreads)
		loc := Loc(rng.Intn(nLocs))
		e := &Event{
			ID:       EventID{Thread: tid, Index: len(g.Threads[tid])},
			Kind:     KRead,
			Mode:     []Mode{Rlx, Acq, SC}[rng.Intn(3)],
			Loc:      loc,
			AwaitSeq: 0,
		}
		if rng.Intn(3) == 0 {
			e.Kind = KUpdate
		}
		g.Append(e)
		g.SetRF(e.ID, BottomRF)
		prev := BuildRels(g)
		if rng.Intn(2) == 0 {
			prev.ensureTopo() // exercise both lazy and derived parents
		}
		for _, w := range g.Mo[loc] {
			// Mirror core.resolveWith: clone, swap the event, set rf.
			g2 := g.Clone()
			e2 := *e
			e2.RVal = g2.WriteVal(w)
			if e2.Kind == KUpdate {
				e2.Degraded = true
				e2.Val = 0
			}
			g2.ReplaceEvent(e.ID, &e2)
			g2.SetRF(e.ID, FromW(w))
			res := prev.Resolve(g2, &e2)
			full := BuildRels(g2)
			pairs := []struct {
				name      string
				got, want *BitMat
			}{
				{"sb", res.Sb, full.Sb},
				{"sbloc", res.SbLoc, full.SbLoc},
				{"rf", res.RfM, full.RfM},
				{"mo", res.MoM, full.MoM},
				{"fr", res.FrM, full.FrM},
				{"hb", res.Hb, full.Hb},
				{"eco", res.Eco, full.Eco},
			}
			for _, p := range pairs {
				if !p.got.Equal(p.want) {
					t.Fatalf("trial %d: %s differs after resolving %v from %v\ngraph:\n%s",
						trial, p.name, e.ID, w, g2.Render())
				}
			}
			assertTopoInvariant(t, res, g2)
		}
	}
}

// TestExtendTopoEdgeCases pins the order-maintenance corners down with
// hand-built graphs: a duplicate edge (one neighbor that is both sb
// and mo predecessor), a forced back-edge whose rebuild stays acyclic,
// and a forced back-edge that makes the union genuinely cyclic.
func TestExtendTopoEdgeCases(t *testing.T) {
	t.Run("duplicate-edge", func(t *testing.T) {
		// T0: Wx(1); Wx(2) mo-adjacent — the second write's po
		// predecessor is also its mo predecessor.
		g := New(1, []Val{0}, []string{"x"})
		w1 := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 1, AwaitSeq: -1}
		g.Append(w1)
		g.InsertMo(0, w1.ID, 1)
		prev := BuildRels(g)
		prev.ensureTopo()
		w2 := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 2, AwaitSeq: -1}
		g.Append(w2)
		g.InsertMo(0, w2.ID, 2)
		before := AcyclicCountersNow()
		ext := prev.Extend(g, w2)
		if d := AcyclicCountersNow().Sub(before); d.OrderExtends != 1 {
			t.Fatalf("duplicate-edge append should extend the order in place: %+v", d)
		}
		assertTopoInvariant(t, ext, g)
	})
	t.Run("back-edge-reorder", func(t *testing.T) {
		// T0: Wx a. T1: Wy b. Then T0 appends Wy c mo-BEFORE b: c's po
		// predecessor a must precede c while c must precede b — a
		// constraint the parent's order may or may not satisfy, and the
		// re-derived order must.
		g := New(2, []Val{0, 0}, []string{"x", "y"})
		a := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 1, AwaitSeq: -1}
		g.Append(a)
		g.InsertMo(0, a.ID, 1)
		b := &Event{ID: EventID{1, 0}, Kind: KWrite, Mode: Rlx, Loc: 1, Val: 2, AwaitSeq: -1}
		g.Append(b)
		g.InsertMo(1, b.ID, 1)
		prev := BuildRels(g)
		prev.ensureTopo()
		c := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 1, Val: 3, AwaitSeq: -1}
		g.Append(c)
		g.InsertMo(1, c.ID, 1) // before b
		ext := prev.Extend(g, c)
		assertTopoInvariant(t, ext, g)
		if !ext.TopoOK() {
			t.Fatal("acyclic extension must end topoValid")
		}
	})
	t.Run("cyclic-union", func(t *testing.T) {
		// T0: Wx a1, Wx a2 (mo a1<a2). T1: Rx r reads a2, then Wx c
		// mo-BEFORE a1: c→a1→a2→r→c cycles through mo, rf and sb.
		g := New(2, []Val{0}, []string{"x"})
		a1 := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 1, AwaitSeq: -1}
		g.Append(a1)
		g.InsertMo(0, a1.ID, 1)
		a2 := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 2, AwaitSeq: -1}
		g.Append(a2)
		g.InsertMo(0, a2.ID, 2)
		r := &Event{ID: EventID{1, 0}, Kind: KRead, Mode: Rlx, Loc: 0, RVal: 2, AwaitSeq: -1}
		g.Append(r)
		g.SetRF(r.ID, FromW(a2.ID))
		prev := BuildRels(g)
		prev.ensureTopo()
		if !prev.TopoOK() {
			t.Fatal("setup union should be acyclic")
		}
		c := &Event{ID: EventID{1, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 3, AwaitSeq: -1}
		g.Append(c)
		g.InsertMo(0, c.ID, 1) // before a1
		ext := prev.Extend(g, c)
		assertTopoInvariant(t, ext, g)
		if !ext.TopoCyclic() {
			t.Fatal("mo-backdated write must make the union cyclic")
		}
		// And cyclicity is permanent: any further extension stays cyclic.
		f := &Event{ID: EventID{1, 2}, Kind: KFence, Mode: AcqRel, AwaitSeq: -1}
		g.Append(f)
		ext2 := ext.Extend(g, f)
		if !ext2.TopoCyclic() {
			t.Fatal("cyclic union must stay cyclic across extension")
		}
	})
}
