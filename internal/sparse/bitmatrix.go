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
//
// A matrix holds a place in a few allocations and, once pooled (see
// GetBitMatrix), in none: the person→row index and the row bits share
// one slab, the row IDs another, and the clique compression (clique.go)
// carves its arrays from scratch the matrix keeps.
type BitMatrix struct {
	cols  int      // number of time slots t
	words int      // ceil(cols/64)
	ids   []uint32 // global person ID per local row
	// index maps a global person ID to its local row: an open-addressed
	// table with linear probing, each slot person<<32 | row+1 and 0 for
	// empty. Its length is a power of two at least twice the row count,
	// sized to the place being built and grown by rehashing within its
	// capacity, so a pooled matrix never probes a table sized for the
	// largest place it ever held.
	index []uint64
	// bits is the row arena: row r is bits[r*words : (r+1)*words]. The
	// backing array beyond len is kept zero, so a new row is carved by
	// extending len, and reset clears only the rows in use.
	bits []uint64

	// grp is the row-group compression (identical bitsets deduped)
	// computed by compress, valid while grouped is set; any mutation
	// clears grouped. Its arrays are carved from scratch, which every
	// compression of the matrix reuses.
	grp     rowGroups
	grouped bool
	scratch []int32
}

// minRows is the row capacity of a new matrix: most places (homes) fit.
const minRows = 4

// NewBitMatrix returns an empty matrix with the given number of columns
// (time slots). Columns must be positive.
func NewBitMatrix(cols int) *BitMatrix {
	if cols <= 0 {
		panic("sparse: NewBitMatrix with non-positive cols")
	}
	return &BitMatrix{cols: cols, words: (cols + 63) / 64}
}

// tableLen returns the person→row table length for rows rows: the
// smallest power of two at least 2·rows.
func tableLen(rows int) int {
	return max(2, 1<<bits.Len(uint(2*rows-1)))
}

// slot returns the first index slot to probe for person in a table of
// length n (a power of two): Fibonacci hashing of the ID.
func slot(person uint32, n int) int {
	return int((uint64(person) * 0x9e3779b97f4a7c15) >> (64 - bits.Len(uint(n-1))))
}

// lookup returns person's local row index, or -1 if the person has no
// row.
func (m *BitMatrix) lookup(person uint32) int {
	n := len(m.index)
	if n == 0 {
		return -1
	}
	for i := slot(person, n); ; i = (i + 1) & (n - 1) {
		v := m.index[i]
		if v == 0 {
			return -1
		}
		if uint32(v>>32) == person {
			return int(uint32(v)) - 1
		}
	}
}

// insert records person → row in the index, which must have a free
// slot and no entry for person.
func (m *BitMatrix) insert(person uint32, row int) {
	n := len(m.index)
	i := slot(person, n)
	for m.index[i] != 0 {
		i = (i + 1) & (n - 1)
	}
	m.index[i] = uint64(person)<<32 | uint64(row+1)
}

// reserve makes room for rows rows. The person→row table grows by
// rehashing the existing rows from ids, inside its capacity when that
// suffices; otherwise both it and the arena move to a new slab with
// room for twice the rows, and the IDs to an array as long.
func (m *BitMatrix) reserve(rows int) {
	n := tableLen(rows)
	if n <= len(m.index) && rows*m.words <= cap(m.bits) {
		return
	}
	if n > cap(m.index) || rows*m.words > cap(m.bits) {
		c := max(minRows, 2*rows)
		tab := tableLen(c)
		slab := make([]uint64, tab+c*m.words)
		m.index = slab[:0:tab]
		m.bits = append(slab[tab:tab], m.bits...)
		m.ids = append(make([]uint32, 0, c), m.ids...)
	}
	if n > len(m.index) {
		m.index = m.index[:n]
		clear(m.index)
		for r, p := range m.ids {
			m.insert(p, r)
		}
	}
}

// Cols returns the number of time-slot columns.
func (m *BitMatrix) Cols() int { return m.cols }

// Rows returns the number of distinct persons with at least one Set call.
func (m *BitMatrix) Rows() int { return len(m.ids) }

// IDs returns the global person ID for each local row. The slice is owned
// by the matrix and must not be modified.
func (m *BitMatrix) IDs() []uint32 { return m.ids }

// rowBits returns local row r's bitset, a sub-slice of the arena.
func (m *BitMatrix) rowBits(r int) []uint64 {
	return m.bits[r*m.words : (r+1)*m.words : (r+1)*m.words]
}

// row returns person's bitset for writing, adding a zeroed row to the
// arena on the person's first write. The slice is valid until the next
// row is added.
func (m *BitMatrix) row(person uint32) []uint64 {
	m.grouped = false // any write invalidates the cached compression
	if i := m.lookup(person); i >= 0 {
		return m.rowBits(i)
	}
	r := len(m.ids)
	m.reserve(r + 1)
	m.insert(person, r)
	m.ids = append(m.ids, person)
	// The arena beyond len is zero, so extending it yields a zeroed row.
	m.bits = m.bits[:len(m.bits)+m.words]
	return m.rowBits(r)
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
	return m.bits[i*m.words+t>>6]&(1<<(uint(t)&63)) != 0
}

// NNZ returns the total number of set bits — the matrix's nonzero count,
// which the paper uses as the load-balancing weight for a place.
func (m *BitMatrix) NNZ() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
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
	for _, w := range m.rowBits(i) {
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
	n := len(m.ids)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			w := andPop(m.rowBits(a), m.rowBits(b))
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
	p := len(m.ids)
	return g*(g-1)/2*m.words + p*(p-1)/2
}
