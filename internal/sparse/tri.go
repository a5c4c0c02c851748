package sparse

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

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

// UnmarshalBinary reverses MarshalBinary. The blob comes from another
// process and goes on to MergeTris, which assumes a canonical Tri, so an
// entry out of strictly ascending (I, J) order, with I ≥ J, or with
// weight 0 is an error.
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
	var prev uint64
	for k := range t.I {
		key := uint64(t.I[k])<<32 | uint64(t.J[k])
		switch {
		case t.I[k] >= t.J[k]:
			return fmt.Errorf("sparse: Tri blob entry %d has I %d ≥ J %d", k, t.I[k], t.J[k])
		case k > 0 && key <= prev:
			return fmt.Errorf("sparse: Tri blob entry %d is not after entry %d in (I, J) order", k, k-1)
		case t.W[k] == 0:
			return fmt.Errorf("sparse: Tri blob entry %d has weight 0", k)
		}
		prev = key
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
