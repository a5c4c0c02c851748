// Package graph provides the network-analysis layer of the pipeline,
// standing in for the paper's use of igraph (Section V): CSR graphs built
// from sparse adjacency matrices, degree distributions, local clustering
// coefficients, radius-k ego networks, induced subgraphs and connected
// components.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Telemetry series for the analysis stage: one count per CSR build,
// plus edge volume and build latency.
var (
	mGraphBuilds  = telemetry.C("analysis_graph_builds_total")
	mGraphEdges   = telemetry.C("analysis_graph_edges_total")
	mBuildSeconds = telemetry.H("analysis_graph_build_seconds")
)

// Graph is an undirected weighted graph in compressed sparse row form.
// Vertex IDs are dense in [0, NumVertices); neighbor lists are sorted.
type Graph struct {
	offsets []int64
	nbrs    []uint32
	weights []uint32
}

// FromTri builds a Graph from a sparse upper-triangular adjacency
// matrix. n is the vertex-space size; pass 0 to size it from the largest
// referenced ID. Vertices with no edges are retained as isolated.
func FromTri(t *sparse.Tri, n int) *Graph {
	sw := telemetry.Clock()
	defer func() {
		sw.Observe(mBuildSeconds)
		mGraphBuilds.Inc()
		mGraphEdges.Add(int64(t.NNZ()))
	}()
	if n == 0 && t.NNZ() > 0 {
		n = int(t.MaxVertex()) + 1
	}
	deg := make([]int64, n)
	for k := range t.I {
		deg[t.I[k]]++
		deg[t.J[k]]++
	}
	g := &Graph{
		offsets: make([]int64, n+1),
		nbrs:    make([]uint32, 2*t.NNZ()),
		weights: make([]uint32, 2*t.NNZ()),
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for k := range t.I {
		i, j, w := t.I[k], t.J[k], t.W[k]
		g.nbrs[cursor[i]], g.weights[cursor[i]] = j, w
		cursor[i]++
		g.nbrs[cursor[j]], g.weights[cursor[j]] = i, w
		cursor[j]++
	}
	// Tri entries are sorted by (I, J) with I < J, so every row comes out
	// of the scatter sorted: v's lower neighbors arrive (as I of entries
	// (I, v)) in ascending I before its higher ones (as J of entries
	// (v, J)) in ascending J. Only a row built from a Tri that breaks the
	// contract needs sorting.
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if row := g.nbrs[lo:hi]; !slices.IsSorted(row) {
			sort.Sort(&rowSorter{row, g.weights[lo:hi]})
		}
	}
	return g
}

type rowSorter struct {
	ids []uint32
	wts []uint32
}

func (r *rowSorter) Len() int           { return len(r.ids) }
func (r *rowSorter) Less(i, j int) bool { return r.ids[i] < r.ids[j] }
func (r *rowSorter) Swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}

// NumVertices returns the vertex count, including isolated vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return len(g.nbrs) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's sorted neighbor IDs and the parallel edge
// weights. The slices alias the graph's storage; callers must not modify
// them.
func (g *Graph) Neighbors(v uint32) (ids, weights []uint32) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.nbrs[lo:hi], g.weights[lo:hi]
}

// HasEdge reports whether u and v are adjacent, by binary search on the
// smaller neighbor list.
func (g *Graph) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row, _ := g.Neighbors(u)
	i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	return i < len(row) && row[i] == v
}

// EdgeWeight returns the weight of edge (u, v), 0 when absent.
func (g *Graph) EdgeWeight(u, v uint32) uint32 {
	row, wts := g.Neighbors(u)
	i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	if i < len(row) && row[i] == v {
		return wts[i]
	}
	return 0
}

// Strength returns the sum of v's edge weights (weighted degree) — total
// collocated person-hours for a collocation network.
func (g *Graph) Strength(v uint32) uint64 {
	_, wts := g.Neighbors(v)
	var s uint64
	for _, w := range wts {
		s += uint64(w)
	}
	return s
}

// MaxDegree returns the largest vertex degree, 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > max {
			max = d
		}
	}
	return max
}

// triangles returns twice the number of triangles through v, using a
// marker array owned by the caller (len NumVertices, all false on entry
// and restored to all false on exit).
func (g *Graph) triangles(v uint32, mark []bool) int64 {
	row, _ := g.Neighbors(v)
	for _, u := range row {
		mark[u] = true
	}
	var count int64
	for _, u := range row {
		urow, _ := g.Neighbors(u)
		for _, w := range urow {
			if w != v && mark[w] {
				count++
			}
		}
	}
	for _, u := range row {
		mark[u] = false
	}
	return count / 2 // each triangle (v,u,w) seen from both u and w
}

// LocalClustering returns the local clustering coefficient of v: the
// fraction of pairs of v's neighbors that are themselves connected
// (Wasserman & Faust). Vertices of degree < 2 return 0.
func (g *Graph) LocalClustering(v uint32) float64 {
	d := g.Degree(v)
	if d < 2 {
		return 0
	}
	t := g.triangles(v, make([]bool, g.NumVertices()))
	return float64(2*t) / float64(d*(d-1))
}

// Ego returns the sorted vertex set within BFS distance radius of v,
// including v itself — the paper's V = v ∪ V1 ∪ V2 construction for
// radius 2.
func (g *Graph) Ego(v uint32, radius int) []uint32 {
	members, _ := g.EgoScratch(v, radius, &PathScratch{})
	return members
}

// EgoScratch is Ego with caller-owned scratch state; it also returns
// the number of edges the ego network induces. Members are marked with
// the scratch's epoch and expanded level by level in its queue, so the
// edge count is a stamp test per adjacency and only the returned,
// sorted member slice is allocated.
func (g *Graph) EgoScratch(v uint32, radius int, s *PathScratch) (members []uint32, edges int) {
	n := g.NumVertices()
	if int(v) >= n {
		panic(fmt.Sprintf("graph: ego seed %d out of range", v))
	}
	epoch := s.grow(n)
	s.stamp[v] = epoch
	queue := append(s.queue[:0], v)
	for d, lo := 0, 0; d < radius && lo < len(queue); d++ {
		hi := len(queue)
		for _, u := range queue[lo:hi] {
			row, _ := g.Neighbors(u)
			for _, w := range row {
				if s.stamp[w] != epoch {
					s.stamp[w] = epoch
					queue = append(queue, w)
				}
			}
		}
		lo = hi
	}
	s.queue = queue
	for _, m := range queue {
		// Rows are sorted: count each induced edge once, from its lower
		// end, by looking only at the neighbors above m.
		row, _ := g.Neighbors(m)
		i, _ := slices.BinarySearch(row, m+1)
		for _, u := range row[i:] {
			if s.stamp[u] == epoch {
				edges++
			}
		}
	}
	// Sorting the members costs m·log m, a sweep of the stamps in vertex
	// order n: the sweep wins once the ego holds a fair share of the graph.
	if size := len(queue); size*bits.Len(uint(size)) < n {
		members = slices.Clone(queue)
		slices.Sort(members)
	} else {
		members = make([]uint32, 0, size)
		for u, st := range s.stamp[:n] {
			if st == epoch {
				members = append(members, uint32(u))
			}
		}
	}
	return members, edges
}

// Induced returns the subgraph induced by the given vertices (which must
// be sorted and unique): all edges with both endpoints in the set are
// preserved. The second result maps new vertex IDs back to the original
// ones.
func (g *Graph) Induced(vs []uint32) (*Graph, []uint32) {
	index := make(map[uint32]uint32, len(vs))
	for i, v := range vs {
		index[v] = uint32(i)
	}
	acc := sparse.NewAccum()
	for _, v := range vs {
		row, wts := g.Neighbors(v)
		for k, u := range row {
			if u <= v {
				continue // each undirected edge once
			}
			if _, ok := index[u]; ok {
				acc.Add(index[v], index[u], wts[k])
			}
		}
	}
	orig := make([]uint32, len(vs))
	copy(orig, vs)
	return FromTri(acc.Tri(), len(vs)), orig
}

// ConnectedComponents labels each vertex with a component ID in
// [0, count) and returns the labels and component count.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	n := g.NumVertices()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []uint32
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], uint32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			row, _ := g.Neighbors(v)
			for _, u := range row {
				if labels[u] == -1 {
					labels[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// GiantComponentSize returns the size of the largest connected
// component, 0 for an empty graph.
func (g *Graph) GiantComponentSize() int {
	labels, count := g.ConnectedComponents()
	if count == 0 {
		return 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}
