package sparse

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Accum accumulates weighted upper-triangular adjacency entries. Each
// worker in the synthesis pipeline owns one Accum; Accums are then merged
// pairwise (the paper's "reduce to a single adjacency matrix" step) and
// finalized into a Tri.
//
// Keys pack (i, j) with i < j into a single uint64, so accumulation is a
// single map operation per collocated pair.
type Accum struct {
	m map[uint64]uint32
}

// NewAccum returns an empty accumulator.
func NewAccum() *Accum {
	return &Accum{m: make(map[uint64]uint32)}
}

func packKey(i, j uint32) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(j)
}

// Add accumulates weight w onto the (i, j) pair. i and j are normalized
// so that Add(i, j, w) and Add(j, i, w) hit the same cell; self-pairs
// (i == j) are ignored, as the collocation network has no self-loops.
func (a *Accum) Add(i, j uint32, w uint32) {
	if i == j {
		return
	}
	a.m[packKey(i, j)] += w
}

// AddEntries accumulates a batch of entries.
func (a *Accum) AddEntries(es []Entry) {
	for _, e := range es {
		a.Add(e.I, e.J, e.W)
	}
}

// Weight returns the accumulated weight for the pair (i, j), 0 if absent.
func (a *Accum) Weight(i, j uint32) uint32 {
	if i == j {
		return 0
	}
	return a.m[packKey(i, j)]
}

// NNZ returns the number of distinct pairs accumulated so far.
func (a *Accum) NNZ() int { return len(a.m) }

// Merge folds other into a, leaving other unchanged.
func (a *Accum) Merge(other *Accum) {
	for k, w := range other.m {
		a.m[k] += w
	}
}

// Tri converts the accumulator into a finalized triangular matrix. The
// accumulator remains valid afterwards.
func (a *Accum) Tri() *Tri {
	t := &Tri{
		I: make([]uint32, 0, len(a.m)),
		J: make([]uint32, 0, len(a.m)),
		W: make([]uint32, 0, len(a.m)),
	}
	keys := make([]uint64, 0, len(a.m))
	for k := range a.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		t.I = append(t.I, uint32(k>>32))
		t.J = append(t.J, uint32(k&0xffffffff))
		t.W = append(t.W, a.m[k])
	}
	return t
}

// Tri is a finalized sparse upper-triangular adjacency matrix in
// coordinate form, sorted by (I, J) with I < J. It fully defines the
// undirected weighted collocation network: entry k says persons I[k] and
// J[k] were collocated for W[k] time slots.
type Tri struct {
	I, J []uint32
	W    []uint32
}

// NNZ returns the number of stored (strictly upper-triangular) entries,
// i.e. the number of undirected edges.
func (t *Tri) NNZ() int { return len(t.I) }

// Weight returns the weight of pair (i, j), or 0 if the pair is absent.
// It runs in O(log nnz) via binary search on the sorted entries.
func (t *Tri) Weight(i, j uint32) uint32 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	key := uint64(i)<<32 | uint64(j)
	lo, hi := 0, len(t.I)
	for lo < hi {
		mid := (lo + hi) / 2
		k := uint64(t.I[mid])<<32 | uint64(t.J[mid])
		switch {
		case k < key:
			lo = mid + 1
		case k > key:
			hi = mid
		default:
			return t.W[mid]
		}
	}
	return 0
}

// TotalWeight returns the sum of all edge weights (total collocated
// person-pair hours).
func (t *Tri) TotalWeight() uint64 {
	var s uint64
	for _, w := range t.W {
		s += uint64(w)
	}
	return s
}

// MaxVertex returns the largest person ID referenced, or 0 if empty.
func (t *Tri) MaxVertex() uint32 {
	var m uint32
	for k := range t.I {
		if t.J[k] > m {
			m = t.J[k] // J > I always, so J suffices
		}
	}
	return m
}

// Vertices returns the number of distinct person IDs that appear in at
// least one entry. For the dense ID spaces produced by simulations it
// marks IDs in a bitset and popcounts — no hashing, no sorting; when the
// ID space is much larger than the entry count (sparse external IDs) it
// falls back to a sort-and-count pass over the collected IDs.
func (t *Tri) Vertices() int {
	if len(t.I) == 0 {
		return 0
	}
	max := int(t.MaxVertex())
	// Bitset words needed vs. the 2·nnz IDs a sort pass would touch.
	if words := max/64 + 1; words <= 4*len(t.I)+1024 {
		bs := make([]uint64, words)
		for k := range t.I {
			bs[t.I[k]>>6] |= 1 << (t.I[k] & 63)
			bs[t.J[k]>>6] |= 1 << (t.J[k] & 63)
		}
		n := 0
		for _, w := range bs {
			n += bits.OnesCount64(w)
		}
		return n
	}
	ids := make([]uint32, 0, 2*len(t.I))
	ids = append(ids, t.I...)
	ids = append(ids, t.J...)
	slices.Sort(ids)
	n := 1
	for k := 1; k < len(ids); k++ {
		if ids[k] != ids[k-1] {
			n++
		}
	}
	return n
}

// TriFromEntries builds a Tri from unsorted entries, normalizing pair
// order, dropping self-pairs, and summing duplicates: Coalesce on one
// worker and one part.
func TriFromEntries(es []Entry) *Tri { return Coalesce(1, es) }

// SumTris sums any number of triangular matrices element-wise — the
// paper's final cross-log-file aggregation step A = Σ A_file.
func SumTris(ts ...*Tri) *Tri {
	acc := NewAccum()
	for _, t := range ts {
		if t == nil {
			continue
		}
		for k := range t.I {
			acc.Add(t.I[k], t.J[k], t.W[k])
		}
	}
	return acc.Tri()
}

// MarshalBinary serializes the matrix as nnz | I... | J... | W...
// (little-endian u32 words) for transport between the processes of a
// distributed synthesis run.
func (t *Tri) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4+12*len(t.I))
	le := binary.LittleEndian
	le.PutUint32(out, uint32(len(t.I)))
	off := 4
	for _, col := range [][]uint32{t.I, t.J, t.W} {
		for _, v := range col {
			le.PutUint32(out[off:], v)
			off += 4
		}
	}
	return out, nil
}

// UnmarshalBinary reverses MarshalBinary.
func (t *Tri) UnmarshalBinary(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("sparse: Tri blob too short")
	}
	le := binary.LittleEndian
	n := int(le.Uint32(b))
	if uint64(len(b)) != 4+12*uint64(uint32(n)) {
		return fmt.Errorf("sparse: Tri blob of %d bytes does not hold %d entries", len(b), n)
	}
	t.I = make([]uint32, n)
	t.J = make([]uint32, n)
	t.W = make([]uint32, n)
	off := 4
	for _, col := range [][]uint32{t.I, t.J, t.W} {
		for k := range col {
			col[k] = le.Uint32(b[off:])
			off += 4
		}
	}
	return nil
}

// Filter returns a new Tri containing only the entries for which keep
// returns true — used e.g. to restrict a collocation network to edges
// within one demographic group (the paper's Figure 5).
func (t *Tri) Filter(keep func(i, j uint32) bool) *Tri {
	out := &Tri{}
	for k := range t.I {
		if keep(t.I[k], t.J[k]) {
			out.I = append(out.I, t.I[k])
			out.J = append(out.J, t.J[k])
			out.W = append(out.W, t.W[k])
		}
	}
	return out
}

// Equal reports whether two triangular matrices contain exactly the same
// entries with the same weights.
func (t *Tri) Equal(o *Tri) bool {
	if len(t.I) != len(o.I) {
		return false
	}
	for k := range t.I {
		if t.I[k] != o.I[k] || t.J[k] != o.J[k] || t.W[k] != o.W[k] {
			return false
		}
	}
	return true
}
