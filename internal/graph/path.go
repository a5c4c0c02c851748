package graph

import "container/heap"

// ShortestPathBFS returns a minimum-hop path from src to dst (inclusive
// of both endpoints) via breadth-first search, and whether one exists.
// A vertex's path to itself is [src].
func (g *Graph) ShortestPathBFS(src, dst uint32) ([]uint32, bool) {
	return g.ShortestPathBFSScratch(src, dst, &PathScratch{})
}

// PathScratch holds the reusable state of the graph's traversals: ego
// networks, BFS and weighted shortest paths. A zero PathScratch is
// ready; arrays grow to NumVertices on first use and later traversals
// reuse them without re-zeroing (marks are epoch-stamped), so a pooled
// scratch makes repeated queries allocation-free apart from the
// returned slice itself.
type PathScratch struct {
	parent []uint32
	stamp  []uint32
	dist   []float64 // weighted search only
	queue  []uint32
	heap   pathHeap
	epoch  uint32
}

// grow sizes the scratch for an n-vertex graph and opens a new epoch:
// a vertex is marked in it when its stamp equals the returned value.
func (s *PathScratch) grow(n int) uint32 {
	if len(s.stamp) < n {
		s.parent = make([]uint32, n)
		s.stamp = make([]uint32, n)
	}
	s.epoch++
	if s.epoch == 0 { // stamp wraparound: re-zero once every 2^32 epochs
		clear(s.stamp)
		s.epoch = 1
	}
	return s.epoch
}

// ShortestPathBFSScratch is ShortestPathBFS with caller-owned scratch
// state — the allocation-free variant for hot callers.
func (g *Graph) ShortestPathBFSScratch(src, dst uint32, s *PathScratch) ([]uint32, bool) {
	n := g.NumVertices()
	if int(src) >= n || int(dst) >= n {
		return nil, false
	}
	if src == dst {
		return []uint32{src}, true
	}
	epoch := s.grow(n)
	s.stamp[src] = epoch
	s.parent[src] = src
	queue := append(s.queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		row, _ := g.Neighbors(v)
		for _, u := range row {
			if s.stamp[u] == epoch {
				continue
			}
			s.stamp[u] = epoch
			s.parent[u] = v
			if u == dst {
				s.queue = queue
				return tracePath(s.parent, src, dst), true
			}
			queue = append(queue, u)
		}
	}
	s.queue = queue
	return nil, false
}

// ShortestPathWeighted returns the minimum-cost path from src to dst
// under Dijkstra, where traversing an edge of collocation weight w
// costs 1/w — strongly collocated pairs are "close", so the returned
// path prefers strong ties (the contact-tracing reading of the
// network). It returns the path, its total cost, and whether a path
// exists.
func (g *Graph) ShortestPathWeighted(src, dst uint32) ([]uint32, float64, bool) {
	return g.ShortestPathWeightedScratch(src, dst, &PathScratch{})
}

// ShortestPathWeightedScratch is ShortestPathWeighted with caller-owned
// scratch state. Two epochs mark a vertex reached (dist holds its best
// cost so far) and settled.
func (g *Graph) ShortestPathWeightedScratch(src, dst uint32, s *PathScratch) ([]uint32, float64, bool) {
	n := g.NumVertices()
	if int(src) >= n || int(dst) >= n {
		return nil, 0, false
	}
	if src == dst {
		return []uint32{src}, 0, true
	}
	// No stamp is written between the two grows, so a wraparound in
	// the second still leaves both epochs distinct from every stale mark.
	reached, done := s.grow(n), s.grow(n)
	if len(s.dist) < n {
		s.dist = make([]float64, n)
	}
	s.stamp[src] = reached
	s.dist[src] = 0
	s.parent[src] = src
	pq := &s.heap
	pq.items = pq.items[:0]
	pq.push(pathItem{v: src, d: 0})
	for pq.Len() > 0 {
		it := pq.pop()
		if s.stamp[it.v] == done {
			continue
		}
		s.stamp[it.v] = done
		if it.v == dst {
			return tracePath(s.parent, src, dst), it.d, true
		}
		row, wts := g.Neighbors(it.v)
		for k, u := range row {
			if s.stamp[u] == done {
				continue
			}
			w := wts[k]
			if w == 0 {
				continue // zero-weight edges carry no contact signal
			}
			nd := it.d + 1/float64(w)
			if s.stamp[u] != reached || nd < s.dist[u] {
				s.stamp[u] = reached
				s.dist[u] = nd
				s.parent[u] = it.v
				pq.push(pathItem{v: u, d: nd})
			}
		}
	}
	return nil, 0, false
}

// tracePath rebuilds the src→dst path from the parent array into one
// exactly sized slice.
func tracePath(parent []uint32, src, dst uint32) []uint32 {
	hops := 0
	for v := dst; v != src; v = parent[v] {
		hops++
	}
	out := make([]uint32, hops+1)
	for i, v := hops, dst; i >= 0; i, v = i-1, parent[v] {
		out[i] = v
	}
	return out
}

type pathItem struct {
	v uint32
	d float64
}

// pathHeap is a min-heap on d run by container/heap, so equal-cost ties
// pop in container/heap's order. No item passes through an interface
// value — push appends and sifts with heap.Fix, Pop parks the item in
// popped — so a warm heap does not allocate.
type pathHeap struct {
	items  []pathItem
	popped pathItem
}

func (h *pathHeap) Len() int           { return len(h.items) }
func (h *pathHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *pathHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *pathHeap) Push(any)           { panic("graph: pathHeap grows through push") }
func (h *pathHeap) Pop() any {
	n := len(h.items) - 1
	h.popped = h.items[n]
	h.items = h.items[:n]
	return nil
}

// push is heap.Push: heap.Fix on a new last element sifts it up exactly
// as heap.Push does.
func (h *pathHeap) push(it pathItem) {
	h.items = append(h.items, it)
	heap.Fix(h, len(h.items)-1)
}

func (h *pathHeap) pop() pathItem {
	heap.Pop(h)
	return h.popped
}
