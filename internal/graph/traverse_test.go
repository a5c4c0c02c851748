package graph

import (
	"container/heap"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// The reference traversals below are the straight-line forms the
// scratch-based ones replaced: a map of BFS distances for Ego, a member
// set probed once per adjacency for the induced edge count, and
// Dijkstra over freshly allocated dist/parent/done arrays. They share
// no state with PathScratch, so a stamp leaking from one query into
// the next shows up as a disagreement.

func refEgo(g *Graph, v uint32, radius int) []uint32 {
	dist := map[uint32]int{v: 0}
	frontier := []uint32{v}
	for d := 0; d < radius; d++ {
		var next []uint32
		for _, u := range frontier {
			row, _ := g.Neighbors(u)
			for _, w := range row {
				if _, ok := dist[w]; !ok {
					dist[w] = d + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	out := make([]uint32, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refEgoEdges(g *Graph, members []uint32) int {
	inSet := make(map[uint32]struct{}, len(members))
	for _, m := range members {
		inSet[m] = struct{}{}
	}
	edges := 0
	for _, m := range members {
		row, _ := g.Neighbors(m)
		for _, u := range row {
			if _, ok := inSet[u]; ok && u > m {
				edges++
			}
		}
	}
	return edges
}

// refTrace rebuilds a path by walking parents backwards and reversing.
func refTrace(parent []uint32, src, dst uint32) []uint32 {
	var rev []uint32
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	slices.Reverse(rev)
	return rev
}

func refBFS(g *Graph, src, dst uint32) ([]uint32, bool) {
	if src == dst {
		return []uint32{src}, true
	}
	seen := make([]bool, g.NumVertices())
	parent := make([]uint32, g.NumVertices())
	seen[src] = true
	queue := []uint32{src}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		row, _ := g.Neighbors(v)
		for _, u := range row {
			if seen[u] {
				continue
			}
			seen[u], parent[u] = true, v
			if u == dst {
				return refTrace(parent, src, dst), true
			}
			queue = append(queue, u)
		}
	}
	return nil, false
}

type refHeap []pathItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pathItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func refDijkstra(g *Graph, src, dst uint32) ([]uint32, float64, bool) {
	if src == dst {
		return []uint32{src}, 0, true
	}
	n := g.NumVertices()
	dist := make([]float64, n)
	parent := make([]uint32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = -1 // unreached
	}
	dist[src], parent[src] = 0, src
	pq := &refHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pathItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		if it.v == dst {
			return refTrace(parent, src, dst), it.d, true
		}
		row, wts := g.Neighbors(it.v)
		for k, u := range row {
			if done[u] || wts[k] == 0 {
				continue
			}
			nd := it.d + 1/float64(wts[k])
			if dist[u] < 0 || nd < dist[u] {
				dist[u], parent[u] = nd, it.v
				heap.Push(pq, pathItem{v: u, d: nd})
			}
		}
	}
	return nil, 0, false
}

// baGraph grows a seeded preferential-attachment graph on n vertices,
// m edges per arrival, with weights 1..4: few distinct edge costs, so
// Dijkstra meets many equal-cost ties.
func baGraph(n, m int, seed uint64) *Graph {
	r := rng.New(seed)
	var es []sparse.Entry
	var ends []uint32 // every edge endpoint once: degree-proportional draws
	for v := 1; v <= m; v++ {
		for u := 0; u < v; u++ {
			es = append(es, sparse.Entry{I: uint32(u), J: uint32(v), W: uint32(1 + r.Intn(4))})
			ends = append(ends, uint32(u), uint32(v))
		}
	}
	for v := m + 1; v < n; v++ {
		var picked []uint32
		for len(picked) < m {
			if u := ends[r.Intn(len(ends))]; !slices.Contains(picked, u) {
				picked = append(picked, u)
			}
		}
		for _, u := range picked {
			es = append(es, sparse.Entry{I: u, J: uint32(v), W: uint32(1 + r.Intn(4))})
			ends = append(ends, u, uint32(v))
		}
	}
	return FromTri(sparse.Coalesce(1, es), n)
}

// sparseGraph is a seeded random graph on n vertices that leaves about
// half of them isolated and gives a third of its edges weight 0.
func sparseGraph(n int, seed uint64) *Graph {
	r := rng.New(seed)
	var es []sparse.Entry
	for k := 0; k < n/2; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(n / 2)), J: uint32(r.Intn(n / 2)), W: uint32(r.Intn(3))})
	}
	return FromTri(sparse.Coalesce(1, es), n)
}

// checkTraversals runs random ego, BFS and weighted queries
// through the shared scratch s and compares each with the references.
func checkTraversals(t *testing.T, name string, g *Graph, s *PathScratch, r *rng.Source, queries int) {
	t.Helper()
	n := g.NumVertices()
	for q := 0; q < queries; q++ {
		v := uint32(r.Intn(n))
		radius := q % 7
		members, edges := g.EgoScratch(v, radius, s)
		want := refEgo(g, v, radius)
		if !slices.Equal(members, want) {
			t.Fatalf("%s query %d: EgoScratch(%d, %d) members = %v, want %v", name, q, v, radius, members, want)
		}
		if we := refEgoEdges(g, want); edges != we {
			t.Fatalf("%s query %d: EgoScratch(%d, %d) edges = %d, want %d", name, q, v, radius, edges, we)
		}

		dst := uint32(r.Intn(n))
		p, ok := g.ShortestPathBFSScratch(v, dst, s)
		wp, wok := refBFS(g, v, dst)
		if ok != wok || !slices.Equal(p, wp) {
			t.Fatalf("%s query %d: BFS %d→%d = %v (%v), want %v (%v)", name, q, v, dst, p, ok, wp, wok)
		}
		p, cost, ok := g.ShortestPathWeightedScratch(v, dst, s)
		wp, wcost, wok := refDijkstra(g, v, dst)
		if ok != wok || cost != wcost || !slices.Equal(p, wp) {
			t.Fatalf("%s query %d: weighted %d→%d = %v cost %v (%v), want %v cost %v (%v)",
				name, q, v, dst, p, cost, ok, wp, wcost, wok)
		}
	}
}

// TestTraversalsMatchReference drives one scratch through hundreds of
// ego (every radius 0–6), BFS and weighted queries, first on a larger
// BA graph and then on a smaller graph with isolated vertices and
// zero-weight edges, so stale stamps past the small graph's end stay
// behind; then across the stamp wraparound, at every offset from it
// (a weighted search opens two epochs, so the wrap can fall between
// them). Before each wrap the stamps are set to the first epochs the
// wrap reuses, as marks left 2^32 epochs ago would be: only re-zeroing
// keeps them from reading as marks.
func TestTraversalsMatchReference(t *testing.T) {
	r := rng.New(33)
	big, small := baGraph(1500, 3, 5), sparseGraph(400, 6)
	s := &PathScratch{}
	checkTraversals(t, "ba-1500", big, s, r, 300)
	checkTraversals(t, "sparse-400", small, s, r, 300)
	checkTraversals(t, "ba-1500 again", big, s, r, 100)
	for off := uint32(0); off < 4; off++ {
		for _, g := range []*Graph{small, big} {
			for i := range s.stamp {
				s.stamp[i] = 1 + uint32(i)%4
			}
			s.epoch = math.MaxUint32 - off
			checkTraversals(t, "across wraparound", g, s, r, 14)
		}
	}
}

// TestTraversalAllocs pins the allocation-free contract of a warm
// scratch: EgoScratch allocates only the returned members, BFS and
// weighted search only the returned path — never an O(V) array.
func TestTraversalAllocs(t *testing.T) {
	g := baGraph(2000, 3, 9)
	s := &PathScratch{}
	// Warm up: size the arrays, the queue and the heap.
	for v := uint32(0); v < 50; v++ {
		g.EgoScratch(v, 3, s)
		g.ShortestPathBFSScratch(v, 1999-v, s)
		g.ShortestPathWeightedScratch(v, 1999-v, s)
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"EgoScratch", func() { g.EgoScratch(7, 2, s) }},
		{"ShortestPathBFSScratch", func() { g.ShortestPathBFSScratch(3, 1500, s) }},
		{"ShortestPathWeightedScratch", func() { g.ShortestPathWeightedScratch(3, 1500, s) }},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(200, c.fn); a != 1 {
			t.Errorf("%s: %v allocs per call on a warm scratch, want 1 (the returned slice)", c.name, a)
		}
	}
}
