package sparse

// This file implements buffer reuse for the synthesis hot path: the
// per-place BitMatrices are otherwise allocated and dropped once per
// place of every (file, slice) pass, which at scale makes the garbage
// collector a fifth pipeline stage. The pool below lets the core
// pipeline recycle them across places, files and slices.
//
// The stage-4 workers' Pairs pages are not pooled: Reduce reads all of
// a window's pages at once, so none can serve the window while it is
// open, and pooled pages would keep a whole window's worth resident
// between windows. Reduce recycles them itself, as its scatter's
// chunks, and drops them when it returns.

import "sync"

// matrixPool recycles whole BitMatrices including their row bitsets.
var matrixPool = sync.Pool{}

// GetBitMatrix returns an empty BitMatrix with the given column count,
// drawing structure and row bitsets from the pool when available. It is
// a drop-in replacement for NewBitMatrix on hot paths; pair it with
// Recycle.
func GetBitMatrix(cols int) *BitMatrix {
	if v := matrixPool.Get(); v != nil {
		m := v.(*BitMatrix)
		m.reset(cols)
		return m
	}
	return NewBitMatrix(cols)
}

// Recycle clears the matrix and returns it (and its row bitsets) to the
// pool. The caller must not use the matrix, its IDs slice, or any slice
// previously obtained from it afterwards.
func (m *BitMatrix) Recycle() {
	matrixPool.Put(m)
}

// reset restores the matrix to the empty state for the given column
// count, recycling the row arena. Because rows are carved from shared
// blocks, reclaiming them is one memclr per block — not one per row —
// and the blocks are width-agnostic, so a column-count change reuses
// them too.
func (m *BitMatrix) reset(cols int) {
	if cols <= 0 {
		panic("sparse: reset with non-positive cols")
	}
	// cur always has the largest capacity (blocks double), so keeping
	// just cur converges to a single right-sized block after a few uses.
	clear(m.cur)
	m.cur = m.cur[:0]
	for i := range m.blocks {
		m.blocks[i] = nil
	}
	m.blocks = m.blocks[:0]
	m.rows = m.rows[:0]
	m.ids = m.ids[:0]
	// Bumping the epoch invalidates every index entry in O(1); see the
	// index field's doc comment. On the (practically unreachable) wrap to
	// 0, fall back to clearing so stale epoch-0 values cannot alias.
	m.epoch++
	if m.epoch == 0 {
		clear(m.index)
		m.epoch = 1
	}
	m.grp = nil
	m.cols = cols
	m.words = (cols + 63) / 64
}
