package graph

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// referenceFromTri is the serial scatter FromTri is defined by: count
// both endpoints of every entry, prefix the offsets, place each entry
// into both rows in Tri order, and sort any row that came out unsorted.
func referenceFromTri(t *sparse.Tri, n int) *Graph {
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
	cursor := slices.Clone(g.offsets[:n])
	for k := range t.I {
		i, j, w := t.I[k], t.J[k], t.W[k]
		g.nbrs[cursor[i]], g.weights[cursor[i]] = j, w
		cursor[i]++
		g.nbrs[cursor[j]], g.weights[cursor[j]] = i, w
		cursor[j]++
	}
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if row := g.nbrs[lo:hi]; !slices.IsSorted(row) {
			sort.Sort(&rowSorter{row, g.weights[lo:hi]})
		}
	}
	return g
}

// randomTri draws m random pairs below n with weights from a wide
// range, 0 and math.MaxUint32 included, coalesced into a valid Tri.
func randomTri(src *rng.Source, n, m int) *sparse.Tri {
	es := make([]sparse.Entry, m)
	for k := range es {
		w := uint32(src.Uint64())
		switch src.Intn(8) {
		case 0:
			w = 0
		case 1:
			w = math.MaxUint32
		}
		es[k] = sparse.Entry{I: uint32(src.Intn(n)), J: uint32(src.Intn(n)), W: w}
	}
	t := sparse.Coalesce(1, es)
	for k := range t.W { // Coalesce sums repeats; redraw so 0 and MaxUint32 survive
		if src.Intn(8) == 0 {
			t.W[k] = [2]uint32{0, math.MaxUint32}[src.Intn(2)]
		}
	}
	return t
}

// TestFromTriMatchesSerialReference: the parallel transpose equals the
// serial scatter, array for array, at 1 … 8 workers, whichever way the
// chunks fall across rows.
func TestFromTriMatchesSerialReference(t *testing.T) {
	src := rng.New(41)
	hub := func(n, m int) *sparse.Tri { // row 0 holds most entries
		es := make([]sparse.Entry, 0, m)
		for k := range m {
			i := uint32(0)
			if k%8 == 0 {
				i = uint32(1 + src.Intn(n-1))
			}
			es = append(es, sparse.Entry{I: i, J: uint32(src.Intn(n)), W: uint32(src.Intn(100))})
		}
		return sparse.Coalesce(1, es)
	}
	shuffled := func(tr *sparse.Tri) *sparse.Tri { // rows out of order
		out := &sparse.Tri{I: slices.Clone(tr.I), J: slices.Clone(tr.J), W: slices.Clone(tr.W)}
		for k := len(out.I) - 1; k > 0; k-- {
			r := src.Intn(k + 1)
			out.I[k], out.I[r] = out.I[r], out.I[k]
			out.J[k], out.J[r] = out.J[r], out.J[k]
			out.W[k], out.W[r] = out.W[r], out.W[k]
		}
		for k := range out.I { // and some entries below the diagonal
			if src.Intn(4) == 0 {
				out.I[k], out.J[k] = out.J[k], out.I[k]
			}
		}
		return out
	}
	sparseRows := &sparse.Tri{ // empty rows between and after the full ones
		I: []uint32{2, 2, 9, 40},
		J: []uint32{9, 40, 41, 41},
		W: []uint32{1, 0, math.MaxUint32, 7},
	}
	seam := &sparse.Tri{ // in order but where two workers' chunks meet
		I: []uint32{0, 0, 0, 0, 0, 0, 0, 0},
		J: []uint32{5, 6, 7, 8, 1, 2, 3, 4},
		W: []uint32{5, 6, 7, 8, 1, 2, 3, 4},
	}
	cases := []struct {
		name string
		tri  *sparse.Tri
		n    int
	}{
		{"empty", &sparse.Tri{}, 0},
		{"empty-n", &sparse.Tri{}, 17},
		{"one-edge", buildTri([][3]uint32{{3, 5, 2}}), 0},
		{"empty-rows", sparseRows, 0},
		{"n-past-max", sparseRows, 100},
		{"hub", hub(300, 4000), 0},
		{"out-of-order", shuffled(randomTri(src, 200, 1500)), 0},
		{"out-of-order-hub", shuffled(hub(100, 900)), 150},
		{"out-of-order-at-seam", seam, 0},
	}
	for range 12 {
		n := 2 + src.Intn(500)
		cases = append(cases, struct {
			name string
			tri  *sparse.Tri
			n    int
		}{"random", randomTri(src, n, src.Intn(6*n)), n + src.Intn(3)*src.Intn(50)})
	}
	for _, c := range cases {
		want := referenceFromTri(c.tri, c.n)
		for workers := 1; workers <= 8; workers++ {
			got := fromTri(c.tri, c.n, workers)
			if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.nbrs, want.nbrs) || !slices.Equal(got.weights, want.weights) {
				t.Fatalf("%s (%d entries, n %d), %d workers: CSR differs from the serial reference", c.name, c.tri.NNZ(), c.n, workers)
			}
		}
	}
}

var fromTriSink *Graph

// BenchmarkFromTri times the transpose of a collocation-sized Tri
// (20 000 vertices, ≈ 800 000 entries) at the default worker count.
func BenchmarkFromTri(b *testing.B) {
	tri := randomTri(rng.New(7), 20000, 800000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fromTriSink = FromTri(tri, 20000)
	}
}
