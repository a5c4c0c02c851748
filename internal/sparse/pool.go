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

// matrixPool recycles whole BitMatrices: their row arenas, person→row
// tables and compression scratch.
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

// Recycle returns the matrix, with its arena and scratch, to the pool.
// The caller must not use the matrix, its IDs slice, or any slice
// previously obtained from it afterwards.
func (m *BitMatrix) Recycle() {
	matrixPool.Put(m)
}

// reset restores the matrix to the empty state for the given column
// count. It clears only what the last place used — its rows in the
// arena — and keeps every backing array, so a column-count change
// reuses them too; the person→row table starts small again and is
// cleared as it grows (see reserve).
func (m *BitMatrix) reset(cols int) {
	if cols <= 0 {
		panic("sparse: reset with non-positive cols")
	}
	clear(m.bits)
	m.bits = m.bits[:0]
	m.ids = m.ids[:0]
	m.index = m.index[:0]
	m.grouped = false
	m.cols = cols
	m.words = (cols + 63) / 64
}
