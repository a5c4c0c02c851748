package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// TriangleCounts returns the number of triangles through every vertex,
// counted with the given worker count (0 → 1) by forward triangle
// enumeration. The forward set of v is the tail of its sorted row, the
// neighbors with a higher ID; each triangle v < u < x is found once,
// from v, by marking v's forward set and walking the forward set of
// each marked u, and is credited to all three corners. A mark is a 0/1
// byte that the walk adds into the counts instead of branching on it:
// about half the probes hit, the worst case for a branch predictor.
// Workers take blocks of v off an atomic counter (shard) and count into
// private arrays that are summed afterwards, so the counts do not depend
// on the worker count. Self-loops (which only a hand-built Tri can
// carry) close no triangle.
func (g *Graph) TriangleCounts(workers int) []int64 {
	workers = max(workers, 1)
	n := g.NumVertices()
	// v's forward set is g.nbrs[fwd[v]:g.offsets[v+1]].
	fwd := make([]int64, n)
	for v := range fwd {
		row, _ := g.Neighbors(uint32(v))
		i, _ := slices.BinarySearch(row, uint32(v)+1)
		fwd[v] = g.offsets[v] + int64(i)
	}

	counts := make([][]int64, workers)
	marks := make([][]uint8, workers)
	for w := range counts {
		counts[w] = make([]int64, n)
		marks[w] = make([]uint8, n)
	}
	shard(workers, n, 1024, func(w, v int) {
		fv := g.nbrs[fwd[v]:g.offsets[v+1]]
		if len(fv) < 2 {
			return
		}
		tri, mark := counts[w], marks[w]
		for _, u := range fv {
			mark[u] = 1
		}
		var tv int64
		for _, u := range fv {
			var tu int64
			for _, x := range g.nbrs[fwd[u]:g.offsets[u+1]] {
				m := int64(mark[x])
				tu += m
				tri[x] += m
			}
			tri[u] += tu
			tv += tu
		}
		tri[v] += tv
		for _, u := range fv {
			mark[u] = 0
		}
	})
	sumInto(counts[0], counts[1:])
	return counts[0]
}

// sumInto adds every array of parts into dst, element by element, over
// dst's length.
func sumInto(dst []int64, parts [][]int64) {
	for _, p := range parts {
		for v := range dst {
			dst[v] += p[v]
		}
	}
}

// ClusteringAll computes the local clustering coefficient of every
// vertex with the given worker count (0 → 1): TriangleCounts turned
// into coefficients. The counts are integers, so the coefficients do not
// depend on the worker count and equal LocalClustering's bit for bit.
func (g *Graph) ClusteringAll(workers int) []float64 {
	return g.ClusteringFromTriangles(g.TriangleCounts(workers))
}

// ClusteringFromTriangles turns per-vertex triangle counts (as
// TriangleCounts or UpdateTriangleCounts return them) into local
// clustering coefficients 2t / (d(d−1)); vertices of degree < 2 get 0.
func (g *Graph) ClusteringFromTriangles(tri []int64) []float64 {
	out := make([]float64, g.NumVertices())
	for v := range out {
		if d := g.Degree(uint32(v)); d >= 2 {
			out[v] = float64(2*tri[v]) / float64(d*(d-1))
		}
	}
	return out
}

// TriangleUpdate reports what UpdateTriangleCounts found between the
// previous generation and the new one.
type TriangleUpdate struct {
	// Added and Removed count the undirected edges only the new graph
	// has and only the previous one had.
	Added, Removed int64
	// Recounted is set when updating would have cost more than a full
	// count, so the counts came from TriangleCounts instead.
	Recounted bool
}

// UpdateTriangleCounts returns g's per-vertex triangle counts from the
// previous generation's topology — its CSR offsets and sorted neighbor
// IDs — and that generation's counts prevTri, by visiting only the
// edges that changed. The result equals TriangleCounts(workers) exactly.
//
// A sharded merge of each row's old and new neighbors flags the removed
// edges on the old graph's CSR slots and the added edges on the new
// one's (a row that did not change is skipped after one comparison).
// Every triangle that lost an edge is subtracted on the old graph and
// every triangle that gained one is added on the new graph: for each
// flagged edge (a, b), a < b, one pass over row b against row a's
// marked positions finds the common neighbors x, and triangle {a, b, x}
// is counted only at its smallest flagged edge (edges ordered by (low,
// high) endpoint). The flags of a–x and b–x are read at those positions,
// so no edge is searched for. Rows past either graph's end count as
// empty, so the vertex count may change between generations.
//
// The flag pass also prices both ways to the answer: the update costs
// about the changed edges' endpoint degrees, a full count the sum over
// vertices of back-degree × forward-degree. When the update is the
// dearer, the counts are recounted in full.
func (g *Graph) UpdateTriangleCounts(prevOffsets []int64, prevNbrs []uint32, prevTri []int64, workers int) ([]int64, TriangleUpdate) {
	return g.updateTriangleCounts(prevOffsets, prevNbrs, prevTri, workers, true)
}

// updateTriangleCounts is UpdateTriangleCounts; with mayRecount false it
// updates whatever the cost, which is how the tests reach the update on
// changes the cost rule would hand to a full count.
func (g *Graph) updateTriangleCounts(prevOffsets []int64, prevNbrs []uint32, prevTri []int64, workers int, mayRecount bool) ([]int64, TriangleUpdate) {
	if len(prevOffsets) == 0 || len(prevTri) != len(prevOffsets)-1 || prevOffsets[len(prevOffsets)-1] != int64(len(prevNbrs)) {
		panic(fmt.Sprintf("graph: previous topology of %d offsets, %d neighbors and %d counts", len(prevOffsets), len(prevNbrs), len(prevTri)))
	}
	workers = max(workers, 1)
	old := &Graph{offsets: prevOffsets, nbrs: prevNbrs}
	n0, n1 := old.NumVertices(), g.NumVertices()
	n := max(n0, n1)
	removed, added := newBitset(len(prevNbrs)), newBitset(len(g.nbrs))

	type tally struct{ added, removed, update, recount int64 }
	tallies := make([]tally, workers)
	shard(workers, n, 1024, func(w, v int) {
		t := &tallies[w]
		or, nr := old.row(v), g.row(v)
		olo, nlo := old.start(v), g.start(v)
		f, _ := slices.BinarySearch(nr, uint32(v)+1)
		t.recount += int64(f) * int64(len(nr)-f)
		if slices.Equal(or, nr) {
			return
		}
		do, dn := int64(len(or)), int64(len(nr))
		i, j := 0, 0
		for i < len(or) || j < len(nr) {
			switch {
			case j == len(nr) || (i < len(or) && or[i] < nr[j]):
				removed.set(olo + int64(i))
				if b := or[i]; b > uint32(v) {
					t.removed++
					t.update += do + int64(old.Degree(b))
				}
				i++
			case i == len(or) || nr[j] < or[i]:
				added.set(nlo + int64(j))
				if b := nr[j]; b > uint32(v) {
					t.added++
					t.update += dn + int64(g.Degree(b))
				}
				j++
			default:
				i++
				j++
			}
		}
	})
	var sum tally
	for _, t := range tallies {
		sum.added += t.added
		sum.removed += t.removed
		sum.update += t.update
		sum.recount += t.recount
	}
	up := TriangleUpdate{Added: sum.added, Removed: sum.removed}
	if mayRecount && sum.update > sum.recount {
		up.Recounted = true
		return g.TriangleCounts(workers), up
	}

	deltas := make([][]int64, workers)
	marks := make([][]int32, workers)
	for w := range deltas {
		deltas[w] = make([]int64, n)
		marks[w] = make([]int32, n)
	}
	shard(workers, n, 64, func(w, v int) {
		old.changedTriangles(v, removed, deltas[w], marks[w], -1)
		g.changedTriangles(v, added, deltas[w], marks[w], 1)
	})
	tri := make([]int64, n1)
	copy(tri, prevTri)
	sumInto(tri, deltas)
	return tri, up
}

// row returns v's neighbor IDs, empty past the last vertex.
func (g *Graph) row(v int) []uint32 {
	if v >= g.NumVertices() {
		return nil
	}
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// start returns the CSR slot of v's first neighbor, the end of the
// neighbor array past the last vertex.
func (g *Graph) start(v int) int64 {
	if v >= g.NumVertices() {
		return int64(len(g.nbrs))
	}
	return g.offsets[v]
}

// changedTriangles adds sign to delta at the three corners of every
// triangle whose smallest flagged edge is (a, b) with a = v < b. flags
// marks g's CSR slots. Row a's neighbors are marked in pos with their
// slot in the row, plus one, so one pass over row b finds the common
// neighbors x with the slots of both a–x and b–x; pos must be all zero
// on entry and is all zero on return. A triangle is skipped at (a, b)
// when a–x is flagged and x < b, or b–x is flagged and x < a: that edge
// is the smaller one.
func (g *Graph) changedTriangles(v int, flags bitset, delta []int64, pos []int32, sign int64) {
	if v >= g.NumVertices() {
		return
	}
	a := uint32(v)
	alo := g.offsets[v]
	ra := g.nbrs[alo:g.offsets[v+1]]
	marked := false
	for k, b := range ra {
		if !flags.has(alo+int64(k)) || b <= a {
			continue
		}
		if !marked {
			for i, x := range ra {
				pos[x] = int32(i + 1)
			}
			marked = true
		}
		blo := g.offsets[b]
		var t int64
		for j, x := range g.nbrs[blo:g.offsets[b+1]] {
			p := pos[x]
			if p == 0 || x == a || x == b ||
				(flags.has(alo+int64(p-1)) && x < b) || (flags.has(blo+int64(j)) && x < a) {
				continue
			}
			delta[x] += sign
			t++
		}
		delta[a] += sign * t
		delta[b] += sign * t
	}
	if marked {
		for _, x := range ra {
			pos[x] = 0
		}
	}
}

// bitset holds one flag per CSR slot.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// set raises flag i. Workers flag the slots of different rows, which
// may share a word, so the update is a compare-and-swap.
func (b bitset) set(i int64) {
	w, bit := &b[i>>6], uint64(1)<<(i&63)
	for old := atomic.LoadUint64(w); !atomic.CompareAndSwapUint64(w, old, old|bit); old = atomic.LoadUint64(w) {
	}
}

// has reports flag i; it may not run concurrently with set.
func (b bitset) has(i int64) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// shard runs fn(worker, v) for every v in [0, n) on the given number
// of goroutines, which take blocks of block vertices off an atomic
// counter, and returns when all are done.
func shard(workers, n, block int, fn func(w, v int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block)) - int64(block))
				if lo >= n {
					return
				}
				for v := lo; v < min(lo+block, n); v++ {
					fn(w, v)
				}
			}
		}()
	}
	wg.Wait()
}
