package graph

// deltaScratch carves the five working bit-vectors of an incremental
// relation delta (Extend, Resolve) out of one pooled strip of
// 5*words zeroed words; the caller returns the scratch to acyclicPool
// when done.
func deltaScratch(words int) (s *acyclicScratch, hbIn, ecoIn, ecoOut, ecoCol, ecoRow []uint64) {
	s = acyclicPool.Get().(*acyclicScratch)
	if cap(s.seen) < 5*words {
		s.seen = make([]uint64, 5*words)
	} else {
		s.seen = s.seen[:5*words]
		clear(s.seen)
	}
	return s, s.seen[0*words : 1*words], s.seen[1*words : 2*words],
		s.seen[2*words : 3*words], s.seen[3*words : 4*words], s.seen[4*words : 5*words]
}

// mark and marked are the word-vector bit helpers of the delta paths.
func mark(vec []uint64, u int)        { vec[u/64] |= 1 << (uint(u) % 64) }
func marked(vec []uint64, u int) bool { return vec[u/64]&(1<<(uint(u)%64)) != 0 }

// Extend computes the relations of g incrementally, where g was derived
// from the graph r describes by appending exactly the event e (with its
// rf choice recorded and, for write-likes, its mo position inserted).
// This is the exploration hot path: instead of re-deriving sb/rf/mo/fr/
// sw and re-running two O(n³/64) transitive closures, Extend copies the
// parent's matrices with one extra row/column and adds only the edges
// the new event introduces.
//
// Why this is sound (and what the invariants are):
//
//   - e has the largest stamp in g, so it takes dense index N: existing
//     indices never shift.
//   - Appending an event never changes a relation edge between two
//     existing events, with one exception: eco gains self-loops on
//     events that both reach and are reached by e. All direct new
//     sb/sw edges point INTO e (it is the last event of its thread and
//     nothing reads from it yet), so hb stays closed after adding e's
//     column. Eco gains both in-edges (rf source, mo predecessors,
//     fr from reads with earlier sources) and out-edges (mo successors,
//     fr targets), but every direct in×out pair is already covered by a
//     direct mo or fr edge between the existing endpoints — except when
//     the two endpoints coincide, which is exactly the self-loop case.
//
// TestExtendMatchesBuild cross-checks every matrix against BuildRels on
// randomized exploration histories.
func (r *Rels) Extend(g *Graph, e *Event) *Rels {
	n := r.N
	ni := n // dense index of the new event
	nr := &Rels{G: g, N: n + 1, nInit: r.nInit}
	nr.Ev = append(r.Ev[:n:n], e)
	nr.tIdx = make([][]int32, len(r.tIdx))
	copy(nr.tIdx, r.tIdx)
	trow := r.tIdx[e.ID.Thread]
	nr.tIdx[e.ID.Thread] = append(trow[:len(trow):len(trow)], int32(ni))

	// All grown matrices come from one slab (one allocation, embedded
	// structs); the five working bit-vectors share one pooled scratch
	// strip (hbIn: direct sb ∪ sw edges u -> e; ecoIn/ecoOut: direct
	// rf ∪ mo ∪ fr edges into/out of e; ecoCol/ecoRow: the closure
	// update working sets).
	nr.allocMats(n + 1)
	r.Sb.grownInto(nr.Sb)
	r.SbLoc.grownInto(nr.SbLoc)
	r.RfM.grownInto(nr.RfM)
	r.MoM.grownInto(nr.MoM)
	r.FrM.grownInto(nr.FrM)

	words := nr.Sb.words
	scratch, hbIn, ecoIn, ecoOut, ecoCol, ecoRow := deltaScratch(words)

	// Cached topological order maintenance (see Rels.topo): while the
	// relation edges are added below, track the extreme positions the
	// new event's direct sb ∪ rf ∪ mo neighbors occupy in the parent's
	// order. When every in-neighbor sits before every out-neighbor, e
	// slots in between and the parent's order extends by a single
	// insertion; otherwise the order is re-derived (or the union was
	// already cyclic, which extension can never undo). fr edges are
	// deliberately not tracked — they are not part of the cached union.
	var posOf []int32
	maxIn, minOut := -1, n
	if r.topoState == topoValid {
		scratch.pos = int32Scratch(scratch.pos, n)
		posOf = scratch.pos
		for k, v := range r.topo {
			posOf[v] = int32(k)
		}
	}
	trackIn := func(u int) {
		if posOf != nil {
			if p := int(posOf[u]); p > maxIn {
				maxIn = p
			}
		}
	}
	trackOut := func(u int) {
		if posOf != nil {
			if p := int(posOf[u]); p < minOut {
				minOut = p
			}
		}
	}

	// sb / sb-loc: inits and po predecessors precede e.
	isAccess := e.Kind != KFence && e.Kind != KError
	for i := 0; i < r.nInit; i++ {
		nr.Sb.Set(i, ni)
		mark(hbIn, i)
		trackIn(i)
		if isAccess && r.Ev[i].Loc == e.Loc {
			nr.SbLoc.Set(i, ni)
		}
	}
	for _, p := range g.Threads[e.ID.Thread][:e.ID.Index] {
		pi := int(trow[p.ID.Index])
		nr.Sb.Set(pi, ni)
		mark(hbIn, pi)
		trackIn(pi)
		if isAccess && p.Kind != KFence && p.Kind != KError && p.Loc == e.Loc {
			nr.SbLoc.Set(pi, ni)
		}
	}

	// rf and fr contributed by e's read part.
	rf := g.rf[e.ID.Thread][e.ID.Index]
	if e.IsReadLike() && !rf.Bottom {
		wi := r.IndexOf(rf.W)
		nr.RfM.Set(wi, ni)
		mark(ecoIn, wi)
		trackIn(wi)
		order := g.Mo[e.Loc]
		src := -1
		for i, w := range order {
			if w == rf.W {
				src = i
				break
			}
		}
		for i := src + 1; src >= 0 && i < len(order); i++ {
			if order[i] == e.ID {
				continue // an update never fr-precedes itself
			}
			oi := r.IndexOf(order[i])
			nr.FrM.Set(ni, oi)
			mark(ecoOut, oi)
		}
	}

	// mo and incoming fr contributed by e's write part. A write-like
	// event absent from mo (a blocked update whose rf is still ⊥)
	// contributes nothing, exactly as in BuildRels.
	if e.IsWriteLike() {
		order := g.Mo[e.Loc]
		pos := -1
		for i, w := range order {
			if w == e.ID {
				pos = i
				break
			}
		}
		if pos < 0 {
			order = nil
		}
		for i := 0; i < pos; i++ {
			pi := r.IndexOf(order[i])
			nr.MoM.Set(pi, ni)
			mark(ecoIn, pi)
			trackIn(pi)
		}
		for i := pos + 1; i < len(order); i++ {
			si := r.IndexOf(order[i])
			nr.MoM.Set(ni, si)
			mark(ecoOut, si)
			trackOut(si)
		}
		// Every existing read whose source is mo-before e now also
		// from-reads e.
		for t, evs := range g.Threads {
			for i, re := range evs {
				if !re.IsReadLike() || re.Loc != e.Loc || re.ID == e.ID {
					continue
				}
				rrf := g.rf[t][i]
				if rrf.Bottom {
					continue
				}
				src := -1
				for k, w := range order {
					if w == rrf.W {
						src = k
						break
					}
				}
				if src >= 0 && src < pos {
					ri := r.IndexOf(re.ID)
					nr.FrM.Set(ri, ni)
					mark(ecoIn, ri)
				}
			}
		}
	}

	// sw: as the last event of its thread that nothing reads from yet,
	// e only ever RECEIVES synchronizes-with edges — as an acquire
	// read-like from the release sides of its rf source's release
	// sequence, or as an acquire fence on behalf of the po-earlier reads
	// of its thread. (Release sides of e affect only future events.)
	emit := func(s int) {
		if s != ni {
			mark(hbIn, s)
		}
	}
	if e.IsReadLike() && !rf.Bottom && e.Mode.HasAcq() {
		r.swFromBases(g, rf.W, emit)
	}
	if e.Kind == KFence && e.Mode.HasAcq() {
		for _, rd := range g.Threads[e.ID.Thread][:e.ID.Index] {
			if !rd.IsReadLike() {
				continue
			}
			rrf := g.rf[rd.ID.Thread][rd.ID.Index]
			if rrf.Bottom {
				continue
			}
			r.swFromBases(g, rrf.W, emit)
		}
	}

	// hb: every new edge points into e, so the old closure stays closed;
	// e's column is the direct predecessors plus everything hb-before
	// one of them.
	r.Hb.grownInto(nr.Hb)
	for v := 0; v < n; v++ {
		if marked(hbIn, v) || r.Hb.rowIntersects(v, hbIn) {
			nr.Hb.Set(v, ni)
		}
	}

	// eco: the column is everything that reaches a direct in-edge, the
	// row everything reachable from a direct out-edge, and the only new
	// edges between existing events are self-loops on events that both
	// reach and are reached by e.
	r.Eco.grownInto(nr.Eco)
	copy(ecoRow, ecoOut)
	for v := 0; v < n; v++ {
		if marked(ecoOut, v) {
			r.Eco.orRowInto(v, ecoRow)
		}
		if marked(ecoIn, v) || r.Eco.rowIntersects(v, ecoIn) {
			mark(ecoCol, v)
			nr.Eco.Set(v, ni)
		}
	}
	cyclic := false
	for v := 0; v < n; v++ {
		if marked(ecoRow, v) {
			nr.Eco.Set(ni, v)
			if marked(ecoCol, v) {
				nr.Eco.Set(v, v)
				cyclic = true
			}
		}
	}
	if cyclic {
		nr.Eco.Set(ni, ni)
	}

	// Cached topological order: e's only edges touch e itself, so the
	// parent's order stays valid for all existing vertices and only e
	// needs a position.
	switch {
	case r.topoState == topoCyclic:
		// Extension never removes edges, so a cyclic union stays cyclic.
		nr.topoState = topoCyclic
		acCyclicSt.Add(1)
	case r.topoState == topoValid && maxIn < minOut:
		// Every in-neighbor precedes every out-neighbor: slot e directly
		// before its earliest out-neighbor (or at the end). Inserting
		// into the position→vertex slice shifts the later positions by
		// one without touching any value, preserving validity.
		nr.topo = make([]int32, n+1)
		copy(nr.topo, r.topo[:minOut])
		nr.topo[minOut] = int32(ni)
		copy(nr.topo[minOut+1:], r.topo[minOut:])
		nr.topoState = topoValid
		acExtends.Add(1)
	default:
		// A back edge (some out-neighbor placed before an in-neighbor)
		// or an underived parent: leave the child at topoNone, so the
		// re-derivation happens lazily — only if this state survives to
		// a check that wants the order (ensureTopo).
	}
	acyclicPool.Put(scratch)

	return nr
}

// Resolve computes the relations of g incrementally, where g was
// derived from the graph r describes by resolving the formerly-⊥ read
// e: same events, same sb/mo, but e — the last event of its thread —
// now reads from a real write (updates resolved read-only, so mo is
// untouched). This is the hot path of the await-termination
// resolvability scan (core.resolvable), which builds one such graph
// per candidate write and asks only for a consistency verdict.
//
// Soundness mirrors Extend: every new edge touches e. e gains rf/sw
// in-edges and fr out-edges; as the last event of its thread it has no
// sb successors, so its hb row stays empty and the old hb closure
// remains closed once e's column absorbs the direct predecessors and
// their hb-ancestors. Eco gains e's column (everything reaching the rf
// source), e's row (everything reachable from the fr targets), and —
// exactly as in Extend — the only new edges between existing events
// are self-loops on events that both reach and are reached by e.
func (r *Rels) Resolve(g *Graph, e *Event) *Rels {
	n := r.N
	ei := r.IndexOf(e.ID)
	nr := &Rels{G: g, N: n, nInit: r.nInit, tIdx: r.tIdx}
	// e was re-created with its new RVal/Degraded state: swap the node.
	nr.Ev = make([]*Event, n)
	copy(nr.Ev, r.Ev)
	nr.Ev[ei] = e

	nr.allocMats(n)
	copy(nr.Sb.bits, r.Sb.bits)
	copy(nr.SbLoc.bits, r.SbLoc.bits)
	copy(nr.RfM.bits, r.RfM.bits)
	copy(nr.MoM.bits, r.MoM.bits)
	copy(nr.FrM.bits, r.FrM.bits)
	copy(nr.Hb.bits, r.Hb.bits)
	copy(nr.Eco.bits, r.Eco.bits)

	scratch, hbIn, ecoIn, ecoOut, ecoCol, rowVec := deltaScratch(nr.Sb.words)

	rf := g.rf[e.ID.Thread][e.ID.Index]
	wi := r.IndexOf(rf.W)
	nr.RfM.Set(wi, ei)
	mark(ecoIn, wi)

	// fr: e now from-reads every write mo-after its source. e itself is
	// not in mo (it resolved read-only), so there are no incoming fr.
	order := g.Mo[e.Loc]
	src := -1
	for i, w := range order {
		if w == rf.W {
			src = i
			break
		}
	}
	for i := src + 1; src >= 0 && i < len(order); i++ {
		oi := r.IndexOf(order[i])
		nr.FrM.Set(ei, oi)
		mark(ecoOut, oi)
	}

	// sw: e can only RECEIVE synchronization (it writes nothing and has
	// no po successors, so there are no acquire fences after it).
	if e.Mode.HasAcq() {
		r.swFromBases(g, rf.W, func(s int) {
			if s != ei {
				mark(hbIn, s)
			}
		})
	}

	// hb: e's row is empty (no sb successors), so the closure stays
	// closed once e's column absorbs the direct predecessors and their
	// hb-ancestors.
	for v := 0; v < n; v++ {
		if v != ei && (marked(hbIn, v) || r.Hb.rowIntersects(v, hbIn)) {
			nr.Hb.Set(v, ei)
		}
	}

	// eco: same column/row/self-loop update as Extend. e had no eco
	// edges before (its rf was ⊥ and it holds no mo position), so the
	// update is purely additive and e can never appear in its own
	// column or row vectors.
	copy(rowVec, ecoOut)
	for v := 0; v < n; v++ {
		if marked(ecoOut, v) {
			r.Eco.orRowInto(v, rowVec)
		}
		if marked(ecoIn, v) || r.Eco.rowIntersects(v, ecoIn) {
			mark(ecoCol, v)
			nr.Eco.Set(v, ei)
		}
	}
	cyclic := false
	for v := 0; v < n; v++ {
		if marked(rowVec, v) {
			nr.Eco.Set(ei, v)
			if marked(ecoCol, v) {
				nr.Eco.Set(v, v)
				cyclic = true
			}
		}
	}
	if cyclic {
		nr.Eco.Set(ei, ei)
	}

	// Cached topological order: the only new union edge is rf (w → e),
	// and both endpoints already have positions. When the parent's
	// order happens to place w before e, it is still valid for the
	// resolved graph; otherwise leave the order for lazy re-derivation.
	switch {
	case r.topoState == topoCyclic:
		nr.topoState = topoCyclic
		acCyclicSt.Add(1)
	case r.topoState == topoValid:
		wPos, ePos := -1, -1
		for k, v := range r.topo {
			switch int(v) {
			case wi:
				wPos = k
			case ei:
				ePos = k
			}
		}
		if wPos < ePos {
			nr.topo = make([]int32, n)
			copy(nr.topo, r.topo)
			nr.topoState = topoValid
			acExtends.Add(1)
		}
	}

	acyclicPool.Put(scratch)
	return nr
}

// Restrict computes the relations of g, derived from the graph r
// describes by RestrictTo with a keep set that is closed under po
// prefixes and rf sources, and then — when appended is non-nil — by
// appending that one event (NoteRestricted). This is the revisit child
// of exploration: the popped graph restricted, plus the new write.
//
// Such a keep set is also closed under sw sources (release sides sit
// po-before rf sources, release sequences are rf chains), so every hb
// path into a kept event runs through kept events only. Every eco path
// between kept events through a dropped one shortcuts to a direct mo or
// fr edge — provided every update reads from its immediate
// mo-predecessor. Otherwise (possible in a graph the atomicity axiom
// rejects) paths such as w mo u fr w' through a dropped update u, or
// the cycle u fr w mo u through a dropped write w, have no shortcut,
// and the relations are rebuilt instead. In the common case each
// relation of the restriction is exactly r's restricted to the kept
// events: rows and columns are selected, never recomputed, and the two
// transitive closures a full BuildRels needs are avoided. Stamps
// survive RestrictTo, so the kept events keep their relative dense
// order, and the appended event, the newest, extends them (Extend).
// TestRestrictMatchesBuild cross-checks every matrix against BuildRels.
func (r *Rels) Restrict(g *Graph, appended *Event) *Rels {
	if !atomicUpdates(r.G) {
		return BuildRels(g)
	}
	// kept(t) is how many events of thread t the restriction keeps.
	kept := func(t int) int {
		if appended != nil && appended.ID.Thread == t {
			return appended.ID.Index
		}
		return len(g.Threads[t])
	}
	nr := &Rels{G: g, nInit: r.nInit}
	s := acyclicPool.Get().(*acyclicScratch)
	s.pos = int32Scratch(s.pos, r.N)
	newIdx := s.pos // old dense index -> new, or -1 when dropped
	for i := range newIdx {
		newIdx[i] = -1
	}
	for i := 0; i < r.nInit; i++ {
		newIdx[i] = 0
	}
	for t := range g.Threads {
		for _, i := range r.tIdx[t][:kept(t)] {
			newIdx[i] = 0
		}
	}
	// Number the kept events in the parent's order, and collect the
	// maximal runs of kept columns (runs[2k], runs[2k+1]) = [start, end).
	var runs []int
	for i := 0; i < r.N; i++ {
		if newIdx[i] < 0 {
			continue
		}
		if len(runs) == 0 || runs[len(runs)-1] != i {
			runs = append(runs, i, i+1)
		} else {
			runs[len(runs)-1] = i + 1
		}
		newIdx[i] = int32(len(nr.Ev))
		nr.Ev = append(nr.Ev, r.Ev[i])
	}
	nr.N = len(nr.Ev)
	nr.tIdx = make([][]int32, len(g.Threads))
	for t := range g.Threads {
		row := make([]int32, kept(t))
		for k := range row {
			row[k] = newIdx[r.tIdx[t][k]]
		}
		nr.tIdx[t] = row
	}

	nr.allocMats(nr.N)
	for m := range r.mats {
		src, dst := &r.mats[m], &nr.mats[m]
		for i := 0; i < r.N; i++ {
			ni := newIdx[i]
			if ni < 0 {
				continue
			}
			if src.words == 1 {
				v, out, at := src.bits[i], uint64(0), 0
				for k := 0; k < len(runs); k += 2 {
					n := runs[k+1] - runs[k]
					out |= (v >> uint(runs[k]) & (1<<uint(n) - 1)) << uint(at)
					at += n
				}
				dst.bits[ni] = out
				continue
			}
			srow := src.bits[i*src.words : (i+1)*src.words]
			drow := dst.bits[int(ni)*dst.words : (int(ni)+1)*dst.words]
			at := 0
			for k := 0; k < len(runs); k += 2 {
				copyBitRange(drow, at, srow, runs[k], runs[k+1]-runs[k])
				at += runs[k+1] - runs[k]
			}
		}
	}

	// A subsequence of a topological order is one of the restricted
	// union; a cyclic union may have lost its cycle, so it is left for
	// lazy re-derivation.
	if r.topoState == topoValid {
		nr.topo = make([]int32, 0, nr.N)
		for _, v := range r.topo {
			if ni := newIdx[v]; ni >= 0 {
				nr.topo = append(nr.topo, ni)
			}
		}
		nr.topoState = topoValid
	}
	acyclicPool.Put(s)
	if appended == nil {
		return nr
	}
	ext := nr.Extend(g, appended)
	nr.releaseSlab()
	return ext
}

// atomicUpdates reports whether every update of g is atomic — reads
// from its immediate mo-predecessor — the condition under which
// Restrict may select relations.
func atomicUpdates(g *Graph) bool {
	for _, evs := range g.Threads {
		for _, e := range evs {
			if e.Kind != KUpdate || e.Degraded {
				continue
			}
			rf := g.RfOf(e.ID)
			if self := g.MoIndex(e.Loc, e.ID); !rf.Bottom && self >= 0 && g.MoIndex(e.Loc, rf.W) != self-1 {
				return false
			}
		}
	}
	return true
}

// copyBitRange ORs the n bits of src starting at bit from into dst
// starting at bit at (dst's range must be zero).
func copyBitRange(dst []uint64, at int, src []uint64, from, n int) {
	for n > 0 {
		c := min(n, 64)
		w, o := from/64, uint(from%64)
		v := src[w] >> o
		if o != 0 && int(64-o) < c {
			v |= src[w+1] << (64 - o)
		}
		if c < 64 {
			v &= 1<<uint(c) - 1
		}
		w, o = at/64, uint(at%64)
		dst[w] |= v << o
		if o != 0 && int(64-o) < c {
			dst[w+1] |= v >> (64 - o)
		}
		at, from, n = at+c, from+c, n-c
	}
}
