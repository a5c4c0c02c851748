// Package sparse implements the sparse-matrix machinery behind the
// collocation-network synthesis described in the paper.
//
// The central objects are:
//
//   - BitMatrix: the sparse binary p×t "collocation matrix" x for a single
//     place — row i is a bitset over the time slots during which person i
//     was present at the place.
//   - Gram: the product A_l = x·xᵀ, an upper-triangular weighted adjacency
//     whose (i,j) entry counts the time slots persons i and j shared the
//     place.
//   - Pairs / Reduce / Tri: the per-place entries, appended to paged
//     buffers and consumed by Reduce into the final sparse
//     upper-triangular p×p adjacency matrix A = Σ_l A_l; Coalesce runs
//     Reduce on a copy of entries it must not touch, and MergeTris sums
//     finished Tris.
//
// Persons inside a BitMatrix are indexed locally (0..rows-1) with a
// parallel slice of global person IDs, because any single place is visited
// by a tiny fraction of the population; this is what makes the per-place
// matrices "quite sparse" in the paper's terms.
package sparse

import (
	"fmt"
	"math/bits"
)

// BitMatrix is a binary matrix over rows of fixed bit-width, used as the
// per-place person×time collocation matrix. Rows are added lazily: a
// person gets a row on first Set.
type BitMatrix struct {
	cols  int      // number of time slots t
	words int      // ceil(cols/64)
	ids   []uint32 // global person ID per local row
	rows  [][]uint64
	// index maps global person ID -> epoch<<32 | local row. Entries from
	// earlier epochs are stale and treated as absent, which lets a pooled
	// matrix reset in O(1) (bump epoch) instead of clearing the map —
	// clear(map) sweeps bucket capacity, which for a recycled matrix
	// reflects the largest place it ever held, not the current one.
	index map[uint32]uint64
	epoch uint32

	// grp caches the row-group compression (identical bitsets deduped)
	// computed by compress; any mutation invalidates it.
	grp *rowGroups

	// Row storage is carved from arena blocks rather than allocated per
	// row: cur is the active block (len = words in use) and blocks holds
	// filled predecessors. Carving keeps rows contiguous in memory for
	// the Gram kernels and lets reset() reclaim all rows with one memclr
	// per block instead of one per row.
	cur    []uint64
	blocks [][]uint64
}

// NewBitMatrix returns an empty matrix with the given number of columns
// (time slots). Columns must be positive.
func NewBitMatrix(cols int) *BitMatrix {
	if cols <= 0 {
		panic("sparse: NewBitMatrix with non-positive cols")
	}
	return &BitMatrix{
		cols:  cols,
		words: (cols + 63) / 64,
		index: make(map[uint32]uint64),
		epoch: 1, // 0 is never a live epoch, so zero map values are stale
	}
}

// lookup returns person's local row index, or -1 if the person has no
// row in the current epoch.
func (m *BitMatrix) lookup(person uint32) int {
	if v, ok := m.index[person]; ok && uint32(v>>32) == m.epoch {
		return int(uint32(v))
	}
	return -1
}

// Cols returns the number of time-slot columns.
func (m *BitMatrix) Cols() int { return m.cols }

// Rows returns the number of distinct persons with at least one Set call.
func (m *BitMatrix) Rows() int { return len(m.ids) }

// IDs returns the global person ID for each local row. The slice is owned
// by the matrix and must not be modified.
func (m *BitMatrix) IDs() []uint32 { return m.ids }

func (m *BitMatrix) row(person uint32) []uint64 {
	m.grp = nil // any write invalidates the cached compression
	if i := m.lookup(person); i >= 0 {
		return m.rows[i]
	}
	r := m.newRow()
	m.index[person] = uint64(m.epoch)<<32 | uint64(uint32(len(m.ids)))
	m.ids = append(m.ids, person)
	m.rows = append(m.rows, r)
	return r
}

// newRow carves a zeroed words-wide row from the arena, growing it with
// doubling blocks as needed. Existing rows keep pointing into earlier
// blocks, so growth never invalidates them.
func (m *BitMatrix) newRow() []uint64 {
	if len(m.cur)+m.words > cap(m.cur) {
		size := 2 * cap(m.cur)
		if min := 16 * m.words; size < min {
			size = min
		}
		if m.cur != nil {
			m.blocks = append(m.blocks, m.cur)
		}
		m.cur = make([]uint64, 0, size)
	}
	n := len(m.cur)
	m.cur = m.cur[:n+m.words]
	return m.cur[n : n+m.words : n+m.words]
}

// Set marks person as present during time slot t. It panics if t is out
// of range.
func (m *BitMatrix) Set(person uint32, t int) {
	if t < 0 || t >= m.cols {
		panic(fmt.Sprintf("sparse: Set time %d out of [0,%d)", t, m.cols))
	}
	m.row(person)[t>>6] |= 1 << (uint(t) & 63)
}

// SetRange marks person as present for every slot in [start, stop).
// Slots outside [0, cols) are clipped. An empty or inverted range is a
// no-op and allocates no row.
func (m *BitMatrix) SetRange(person uint32, start, stop int) {
	if start < 0 {
		start = 0
	}
	if stop > m.cols {
		stop = m.cols
	}
	if start >= stop {
		return
	}
	r := m.row(person)
	// Fill word by word.
	for start < stop {
		w := start >> 6
		lo := uint(start) & 63
		hi := uint(64)
		if (w<<6)+64 > stop {
			hi = uint(stop - w<<6)
		}
		var mask uint64
		if hi == 64 {
			mask = ^uint64(0) << lo
		} else {
			mask = (1<<hi - 1) &^ (1<<lo - 1)
		}
		r[w] |= mask
		start = (w + 1) << 6
	}
}

// Get reports whether person was present at slot t. A person never Set
// reports false everywhere.
func (m *BitMatrix) Get(person uint32, t int) bool {
	if t < 0 || t >= m.cols {
		return false
	}
	i := m.lookup(person)
	if i < 0 {
		return false
	}
	return m.rows[i][t>>6]&(1<<(uint(t)&63)) != 0
}

// NNZ returns the total number of set bits — the matrix's nonzero count,
// which the paper uses as the load-balancing weight for a place.
func (m *BitMatrix) NNZ() int {
	n := 0
	for _, r := range m.rows {
		for _, w := range r {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// RowNNZ returns the number of set bits in person's row (their total
// presence time at this place), or 0 if the person has no row.
func (m *BitMatrix) RowNNZ(person uint32) int {
	i := m.lookup(person)
	if i < 0 {
		return 0
	}
	n := 0
	for _, w := range m.rows[i] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Entry is one weighted upper-triangular adjacency element: persons I < J
// were collocated for W time slots.
type Entry struct {
	I, J uint32
	W    uint32
}

// Gram computes the strict upper triangle of x·xᵀ: one Entry per pair of
// persons with at least one shared time slot, weighted by the number of
// shared slots. Entries are emitted with I < J in global-ID order within
// each pair; the overall sequence order is unspecified. It is the dense
// person-pair reference that the clique-compressed GramTileAppend is
// tested against.
//
// The diagonal of x·xᵀ (each person's own presence time) is intentionally
// omitted: the collocation network has no self-loops.
func (m *BitMatrix) Gram() []Entry {
	var out []Entry
	n := len(m.rows)
	for a := 0; a < n; a++ {
		ra := m.rows[a]
		for b := a + 1; b < n; b++ {
			rb := m.rows[b]
			w := 0
			for k := 0; k < m.words; k++ {
				w += bits.OnesCount64(ra[k] & rb[k])
			}
			if w == 0 {
				continue
			}
			i, j := m.ids[a], m.ids[b]
			if i > j {
				i, j = j, i
			}
			out = append(out, Entry{I: i, J: j, W: uint32(w)})
		}
	}
	return out
}

// GramCost estimates the work of the clique-compressed Gram kernel
// (GramTileAppend over the whole matrix): one AND+popcount per
// distinct-bitset group pair — g·(g-1)/2 · words word operations — plus
// one append per emitted pair entry, bounded by p·(p-1)/2. This replaces the dense rows²·words
// estimate so the LPT balancer sees the true post-compression work: a
// household of 40 identical schedules now costs ~780 appends, not
// 40²·words bit operations. GramCost computes and caches the row-group
// compression, so calling it before handing the matrix to concurrent
// workers also makes the cached compression safe to share.
func (m *BitMatrix) GramCost() int {
	g := m.compress().groups()
	p := len(m.rows)
	return g*(g-1)/2*m.words + p*(p-1)/2
}
