package graph

import "fmt"

// CSR exposes the graph's raw compressed-sparse-row storage: offsets
// (len NumVertices+1), neighbor IDs and parallel edge weights (both len
// 2·NumEdges). The slices alias the graph's storage — callers must
// treat them as read-only. This is the serialization surface used by
// internal/gstore's snapshot format.
func (g *Graph) CSR() (offsets []int64, nbrs, weights []uint32) {
	return g.offsets, g.nbrs, g.weights
}

// NewCSR builds a Graph directly from CSR storage, adopting the slices
// without copying (the zero-copy mmap load path of internal/gstore
// depends on this). The arrays are validated structurally:
//
//   - offsets must be non-empty, start at 0, be non-decreasing, and end
//     at len(nbrs)
//   - nbrs and weights must have equal length, which must be even
//     (every undirected edge is stored from both endpoints)
//   - every neighbor ID must be < NumVertices
//   - every row must be strictly increasing (sorted, no duplicates, no
//     self-loops)
//
// Validation is a single O(V+E) pass; it does not verify that the two
// half-edges of each undirected edge agree (gstore's checksums cover
// byte-level corruption, and Write only emits symmetric CSR).
func NewCSR(offsets []int64, nbrs, weights []uint32) (*Graph, error) {
	if len(offsets) < 1 {
		return nil, fmt.Errorf("graph: csr: empty offsets")
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr: offsets[0] = %d, want 0", offsets[0])
	}
	if len(nbrs) != len(weights) {
		return nil, fmt.Errorf("graph: csr: %d neighbors but %d weights", len(nbrs), len(weights))
	}
	if len(nbrs)%2 != 0 {
		return nil, fmt.Errorf("graph: csr: odd half-edge count %d", len(nbrs))
	}
	n := len(offsets) - 1
	if last := offsets[n]; last != int64(len(nbrs)) {
		return nil, fmt.Errorf("graph: csr: offsets end at %d, want %d", last, len(nbrs))
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if hi < lo {
			return nil, fmt.Errorf("graph: csr: offsets decrease at vertex %d (%d → %d)", v, lo, hi)
		}
		prev := int64(-1)
		for k := lo; k < hi; k++ {
			u := nbrs[k]
			if int(u) >= n {
				return nil, fmt.Errorf("graph: csr: vertex %d has neighbor %d ≥ %d", v, u, n)
			}
			if int64(u) <= prev {
				return nil, fmt.Errorf("graph: csr: row %d not strictly increasing at slot %d", v, k-lo)
			}
			if int(u) == v {
				return nil, fmt.Errorf("graph: csr: self-loop at vertex %d", v)
			}
			prev = int64(u)
		}
	}
	return &Graph{offsets: offsets, nbrs: nbrs, weights: weights}, nil
}

// DegreeHistogram returns the dense degree histogram: slot k holds the
// number of vertices with degree exactly k, and the slice has length
// MaxDegree()+1 (empty for an empty graph).
func (g *Graph) DegreeHistogram() []int {
	n := g.NumVertices()
	if n == 0 {
		return []int{}
	}
	hist := make([]int, g.MaxDegree()+1)
	for v := 0; v < n; v++ {
		hist[g.Degree(uint32(v))]++
	}
	return hist
}

// TotalWeight returns the sum of all undirected edge weights — the
// network's total collocated person-hours.
func (g *Graph) TotalWeight() uint64 {
	var s uint64
	for _, w := range g.weights {
		s += uint64(w)
	}
	return s / 2 // each edge's weight is stored from both endpoints
}

// VerticesWithEdges returns the number of non-isolated vertices.
func (g *Graph) VerticesWithEdges() int {
	count := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			count++
		}
	}
	return count
}
