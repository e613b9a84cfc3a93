package graph

import (
	"math/bits"
	"sync"
)

// BitMat is a dense n×n boolean matrix backed by uint64 words, used to
// represent binary relations over events and to compute transitive
// closures cheaply (row-parallel Warshall). It is the workhorse of the
// memory-model consistency predicates.
type BitMat struct {
	n     int
	words int // words per row
	bits  []uint64
}

// NewBitMat returns an empty n×n relation.
func NewBitMat(n int) *BitMat {
	w := (n + 63) / 64
	return &BitMat{n: n, words: w, bits: make([]uint64, n*w)}
}

// matPool recycles BitMat scratch matrices. The consistency predicates
// in internal/mm run once per explored graph and need a handful of
// temporaries each (closure scratch, relation unions, compositions);
// without pooling those dominate the allocation profile of the AMC hot
// path. Pooled matrices keep their word buffer across uses and are
// re-zeroed on checkout.
var matPool = sync.Pool{New: func() any { return new(BitMat) }}

// NewBitMatPooled returns an empty n×n relation backed by a recycled
// word buffer when one of sufficient capacity is available. The caller
// must Release it when done and must not retain references past that.
func NewBitMatPooled(n int) *BitMat {
	m := matPool.Get().(*BitMat)
	w := (n + 63) / 64
	need := n * w
	if cap(m.bits) < need {
		m.bits = make([]uint64, need)
	} else {
		m.bits = m.bits[:need]
		clear(m.bits)
	}
	m.n, m.words = n, w
	return m
}

// Release returns a matrix obtained from NewBitMatPooled (or
// ClonePooled) to the scratch pool. Releasing a matrix that is still
// referenced elsewhere corrupts later users; only release temporaries.
func (m *BitMat) Release() {
	if m == nil {
		return
	}
	matPool.Put(m)
}

// N returns the dimension.
func (m *BitMat) N() int { return m.n }

// Set adds the pair (i, j) to the relation.
func (m *BitMat) Set(i, j int) { m.bits[i*m.words+j/64] |= 1 << (uint(j) % 64) }

// Get reports whether (i, j) is in the relation.
func (m *BitMat) Get(i, j int) bool {
	return m.bits[i*m.words+j/64]&(1<<(uint(j)%64)) != 0
}

// Clone returns an independent copy.
func (m *BitMat) Clone() *BitMat {
	c := &BitMat{n: m.n, words: m.words, bits: make([]uint64, len(m.bits))}
	copy(c.bits, m.bits)
	return c
}

// ClonePooled is Clone backed by the scratch pool; Release applies.
func (m *BitMat) ClonePooled() *BitMat {
	c := matPool.Get().(*BitMat)
	if cap(c.bits) < len(m.bits) {
		c.bits = make([]uint64, len(m.bits))
	} else {
		c.bits = c.bits[:len(m.bits)]
	}
	copy(c.bits, m.bits)
	c.n, c.words = m.n, m.words
	return c
}

// allocMats sizes the seven carried matrices of r for dimension n,
// carving their bit rows out of one backing allocation and pointing
// the named matrix fields into the embedded array. One slab instead of
// fourteen allocations per graph state, and the matrices stay adjacent
// in memory for the row scans the predicates do.
func (r *Rels) allocMats(n int) {
	w := (n + 63) / 64
	need := len(r.mats) * n * w
	var bits []uint64
	if p, _ := slabPool.Get().(*[]uint64); p != nil && cap(*p) >= need {
		bits = (*p)[:need]
		clear(bits)
	} else {
		bits = make([]uint64, need)
	}
	for i := range r.mats {
		r.mats[i] = BitMat{n: n, words: w, bits: bits[i*n*w : (i+1)*n*w]}
	}
	r.Sb, r.SbLoc, r.RfM, r.MoM = &r.mats[0], &r.mats[1], &r.mats[2], &r.mats[3]
	r.FrM, r.Hb, r.Eco = &r.mats[4], &r.mats[5], &r.mats[6]
}

// slabPool recycles the matrix slabs of relation sets released by
// Graph.DropRels: most graphs exploration builds relations for are
// rejected by the very consistency check that built them, and their
// slabs are reused by the next allocMats instead of becoming garbage.
var slabPool sync.Pool

// grownInto writes an (n+1)×(n+1) copy of m with the new row and
// column empty into dst (pre-sized to n+1 and zeroed) — the
// matrix-shape half of Rels.Extend.
func (m *BitMat) grownInto(dst *BitMat) {
	if dst.words == m.words {
		copy(dst.bits, m.bits)
		return
	}
	for i := 0; i < m.n; i++ {
		copy(dst.bits[i*dst.words:i*dst.words+m.words], m.bits[i*m.words:(i+1)*m.words])
	}
}

// Equal reports whether the two relations hold exactly the same pairs.
func (m *BitMat) Equal(o *BitMat) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// OrWith adds all pairs of o into m (m |= o). The matrices must have the
// same dimension.
func (m *BitMat) OrWith(o *BitMat) {
	for i := range m.bits {
		m.bits[i] |= o.bits[i]
	}
}

// TransClose computes the transitive closure of m in place.
func (m *BitMat) TransClose() {
	for k := 0; k < m.n; k++ {
		kw, kb := k/64, uint(k)%64
		krow := m.bits[k*m.words : (k+1)*m.words]
		for i := 0; i < m.n; i++ {
			if m.bits[i*m.words+kw]&(1<<kb) != 0 {
				irow := m.bits[i*m.words : (i+1)*m.words]
				for w := range irow {
					irow[w] |= krow[w]
				}
			}
		}
	}
}

// HasCycle reports whether the relation (viewed as a directed graph)
// contains a cycle. m is not modified; the closure scratch comes from
// the matrix pool.
func (m *BitMat) HasCycle() bool {
	c := m.ClonePooled()
	c.TransClose()
	cyc := !c.Irreflexive()
	c.Release()
	return cyc
}

// Irreflexive reports whether no element is related to itself.
func (m *BitMat) Irreflexive() bool {
	for i := 0; i < m.n; i++ {
		if m.Get(i, i) {
			return false
		}
	}
	return true
}

// Compose returns the relational composition m;o.
func (m *BitMat) Compose(o *BitMat) *BitMat {
	r := NewBitMat(m.n)
	m.ComposeInto(o, r)
	return r
}

// ComposeInto computes dst = m;o in place, overwriting dst (which must
// have the same dimension and not alias m or o). It is the reuse
// variant of Compose for pooled scratch matrices.
func (m *BitMat) ComposeInto(o, dst *BitMat) {
	clear(dst.bits)
	for i := 0; i < m.n; i++ {
		irow := dst.bits[i*dst.words : (i+1)*dst.words]
		for j := 0; j < m.n; j++ {
			if m.Get(i, j) {
				jrow := o.bits[j*o.words : (j+1)*o.words]
				for w := range irow {
					irow[w] |= jrow[w]
				}
			}
		}
	}
}

// IntersectsTranspose reports whether some pair (i, j) is in m while
// (j, i) is in o — i.e. whether m ∩ o⁻¹ is non-empty. The memory-model
// coherence axiom (irreflexive(hb;eco)) is exactly this test on (hb,
// eco); doing it row-wise over set bits avoids materializing a product.
func (m *BitMat) IntersectsTranspose(o *BitMat) bool {
	for i := 0; i < m.n; i++ {
		row := m.bits[i*m.words : (i+1)*m.words]
		for w, word := range row {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				if j < m.n && o.Get(j, i) {
					return true
				}
				word &= word - 1
			}
		}
	}
	return false
}

// Clear removes the pair (i, j) from the relation.
func (m *BitMat) Clear(i, j int) { m.bits[i*m.words+j/64] &^= 1 << (uint(j) % 64) }

// copyRow makes row dst an exact copy of row src (word-wide).
func (m *BitMat) copyRow(dst, src int) {
	copy(m.bits[dst*m.words:(dst+1)*m.words], m.bits[src*m.words:(src+1)*m.words])
}

// copyRowFrom copies row src of o into row dst of m (same dimension).
func (m *BitMat) copyRowFrom(dst int, o *BitMat, src int) {
	copy(m.bits[dst*m.words:(dst+1)*m.words], o.bits[src*o.words:(src+1)*o.words])
}

// rowIntersects reports whether row i of m shares a set bit with the
// word vector vec (len(vec) >= m.words).
func (m *BitMat) rowIntersects(i int, vec []uint64) bool {
	row := m.bits[i*m.words : (i+1)*m.words]
	for w, word := range row {
		if word&vec[w] != 0 {
			return true
		}
	}
	return false
}

// orRowInto ors row i of m into the word vector vec.
func (m *BitMat) orRowInto(i int, vec []uint64) {
	row := m.bits[i*m.words : (i+1)*m.words]
	for w, word := range row {
		vec[w] |= word
	}
}
