package graph

import (
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// edgeSet is an editable weighted edge list over vertices [0, n), keyed
// by (low, high) endpoint. A key with equal endpoints is a self-loop,
// which only a hand-built Tri can carry.
type edgeSet struct {
	n int
	w map[[2]uint32]uint32
}

func (s *edgeSet) set(a, b, w uint32) {
	if a > b {
		a, b = b, a
	}
	s.w[[2]uint32{a, b}] = w
	s.n = max(s.n, int(b)+1)
}

// keys returns the edges in (low, high) order.
func (s *edgeSet) keys() [][2]uint32 {
	keys := make([][2]uint32, 0, len(s.w))
	for k := range s.w {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y [2]uint32) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	return keys
}

// graph builds the set as a hand-built Tri, self-loops included.
func (s *edgeSet) graph() *Graph {
	t := &sparse.Tri{}
	for _, k := range s.keys() {
		t.I = append(t.I, k[0])
		t.J = append(t.J, k[1])
		t.W = append(t.W, s.w[k])
	}
	return FromTri(t, s.n)
}

// withoutLoops is the set's graph with its self-loops dropped.
func (s *edgeSet) withoutLoops() *Graph {
	var es []sparse.Entry
	for k, w := range s.w {
		es = append(es, sparse.Entry{I: k[0], J: k[1], W: w})
	}
	return FromTri(sparse.Coalesce(1, es), s.n)
}

// random returns an existing edge, or false when there is none.
func (s *edgeSet) random(r *rng.Source) ([2]uint32, bool) {
	keys := s.keys()
	if len(keys) == 0 {
		return [2]uint32{}, false
	}
	return keys[r.Intn(len(keys))], true
}

// addRandom adds m edges between random distinct vertices of [0, n).
func (s *edgeSet) addRandom(r *rng.Source, n, m int) {
	for ; m > 0; m-- {
		a, b := uint32(r.Intn(n)), uint32(r.Intn(n))
		if a != b {
			s.set(a, b, uint32(r.Intn(5)+1))
		}
	}
}

// edits are the ways one generation becomes the next. "rebuild" is the
// only one the cost rule must hand to a full count.
var edits = []struct {
	name string
	do   func(r *rng.Source, s *edgeSet)
}{
	{"adds", func(r *rng.Source, s *edgeSet) { s.addRandom(r, max(s.n, 40), 1+r.Intn(30)) }},
	{"removes", func(r *rng.Source, s *edgeSet) {
		for m := 1 + r.Intn(30); m > 0; m-- {
			if k, ok := s.random(r); ok {
				delete(s.w, k)
			}
		}
	}},
	{"reweight", func(r *rng.Source, s *edgeSet) {
		for m := 1 + r.Intn(30); m > 0; m-- {
			if k, ok := s.random(r); ok {
				s.w[k] = uint32(r.Intn(9) + 1)
			}
		}
	}},
	{"none", func(*rng.Source, *edgeSet) {}},
	{"grow", func(r *rng.Source, s *edgeSet) {
		n0 := s.n
		n1 := n0 + 1 + r.Intn(12)
		for v := n0; v < n1; v++ {
			for m := 1 + r.Intn(5); m > 0; m-- {
				if u := r.Intn(n1); u != v {
					s.set(uint32(v), uint32(u), 1)
				}
			}
		}
		s.n = n1
	}},
	{"shrink", func(r *rng.Source, s *edgeSet) {
		cut := uint32(max(s.n-1-r.Intn(12), 0))
		for k := range s.w {
			if k[1] >= cut {
				delete(s.w, k)
			}
		}
		s.n = 0
		for k := range s.w {
			s.n = max(s.n, int(k[1])+1)
		}
	}},
	{"hub", func(r *rng.Source, s *edgeSet) {
		n := max(s.n, 40)
		h := uint32(r.Intn(n))
		for m := 40 + r.Intn(40); m > 0; m-- {
			if u := uint32(r.Intn(n)); u != h {
				s.set(h, u, 2)
			}
		}
	}},
	{"selfloops", func(r *rng.Source, s *edgeSet) {
		for m := 1 + r.Intn(4); m > 0; m-- {
			v := uint32(r.Intn(max(s.n, 1)))
			if _, ok := s.w[[2]uint32{v, v}]; ok {
				delete(s.w, [2]uint32{v, v})
			} else {
				s.set(v, v, 1)
			}
		}
		s.addRandom(r, max(s.n, 40), 3)
	}},
	{"empty", func(_ *rng.Source, s *edgeSet) {
		clear(s.w)
		s.n = 0
	}},
	{"rebuild", func(r *rng.Source, s *edgeSet) {
		clear(s.w)
		s.n = 0
		s.addRandom(r, 300, 2400)
	}},
}

// TestUpdateTriangleCountsMatchesFullCount: over seeded edit sequences
// that cover every edit kind, at 1, 2 and 7 workers, the updated counts
// equal a full TriangleCounts of the new graph at every step — through
// the cost rule and with the update forced — and the added/removed
// tallies equal the edge-set difference. Each step starts from the
// previous step's updated counts, so an error carries forward. Every
// kind of small edit must take the update path somewhere, and a rebuilt
// graph must be recounted.
func TestUpdateTriangleCountsMatchesFullCount(t *testing.T) {
	updated := map[string]int{}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, workers := range []int{1, 2, 7} {
			r := rng.New(seed)
			s := &edgeSet{w: map[[2]uint32]uint32{}}
			s.addRandom(r, 300, 2400)
			g := s.graph()
			tri := g.TriangleCounts(1)
			for step := 0; step < 3*len(edits); step++ {
				e := edits[r.Intn(len(edits))]
				if step < len(edits) {
					e = edits[step]
				}
				before := s.keys()
				e.do(r, s)
				next := s.graph()
				want := next.TriangleCounts(1)
				if ref := s.withoutLoops().TriangleCounts(1); !slices.Equal(want, ref) {
					t.Fatalf("seed %d step %d (%s): self-loops changed the full count", seed, step, e.name)
				}
				off, nbrs, _ := g.CSR()
				forced, fup := next.updateTriangleCounts(off, nbrs, tri, workers, false)
				got, up := next.UpdateTriangleCounts(off, nbrs, tri, workers)
				if !slices.Equal(forced, want) {
					t.Fatalf("seed %d, %d workers, step %d (%s): forced update differs from the full count", seed, workers, step, e.name)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %d workers, step %d (%s): update differs from the full count (recounted %v)", seed, workers, step, e.name, up.Recounted)
				}
				wantAdded, wantRemoved := edgeDiff(before, s.keys())
				if up.Added != wantAdded || up.Removed != wantRemoved || fup.Added != wantAdded || fup.Removed != wantRemoved {
					t.Fatalf("seed %d step %d (%s): added/removed %d/%d, want %d/%d", seed, step, e.name, up.Added, up.Removed, wantAdded, wantRemoved)
				}
				if e.name == "rebuild" && !up.Recounted {
					t.Fatalf("seed %d step %d: a rebuilt graph was updated, not recounted", seed, step)
				}
				if !up.Recounted {
					updated[e.name]++
				}
				g, tri = next, got
			}
		}
	}
	for _, e := range edits {
		if updated[e.name] == 0 && e.name != "rebuild" && e.name != "empty" {
			t.Errorf("no %q step took the update path", e.name)
		}
	}
}

// edgeDiff counts the non-loop edges only in after and only in before.
func edgeDiff(before, after [][2]uint32) (added, removed int64) {
	in := func(keys [][2]uint32, k [2]uint32) bool {
		_, ok := slices.BinarySearchFunc(keys, k, func(x, y [2]uint32) int {
			if x[0] != y[0] {
				return int(x[0]) - int(y[0])
			}
			return int(x[1]) - int(y[1])
		})
		return ok
	}
	for _, k := range after {
		if k[0] != k[1] && !in(before, k) {
			added++
		}
	}
	for _, k := range before {
		if k[0] != k[1] && !in(after, k) {
			removed++
		}
	}
	return added, removed
}

// TestTriangleCountsKnown pins the counts on small shapes: K4 has three
// triangles through every vertex, a path none, and a triangle with a
// pendant vertex one through each triangle corner.
func TestTriangleCountsKnown(t *testing.T) {
	k4 := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}, {1, 3, 1}, {2, 3, 1}}), 0)
	pendant := FromTri(buildTri([][3]uint32{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1}}), 0)
	for name, c := range map[string]struct {
		g    *Graph
		want []int64
	}{
		"k4":      {k4, []int64{3, 3, 3, 3}},
		"path":    {path(), []int64{0, 0, 0, 0}},
		"pendant": {pendant, []int64{1, 1, 1, 0}},
	} {
		for _, workers := range []int{1, 3} {
			if got := c.g.TriangleCounts(workers); !slices.Equal(got, c.want) {
				t.Fatalf("%s, %d workers: TriangleCounts = %v, want %v", name, workers, got, c.want)
			}
		}
	}
}

// bruteTriangles counts, for every vertex v, the pairs of its neighbors
// (self-loops aside) that are adjacent to each other.
func bruteTriangles(g *Graph) []int64 {
	tri := make([]int64, g.NumVertices())
	for v := range tri {
		row, _ := g.Neighbors(uint32(v))
		for i, u := range row {
			for _, x := range row[i+1:] {
				if u != uint32(v) && x != uint32(v) && g.HasEdge(u, x) {
					tri[v]++
				}
			}
		}
	}
	return tri
}

// cliqueUnion returns n vertices carrying cliques of 2–12 random members,
// a hub joined to a quarter of the vertices, and some random edges; the
// top tenth of the IDs is left isolated.
func cliqueUnion(r *rng.Source, n int) *edgeSet {
	s := &edgeSet{w: map[[2]uint32]uint32{}}
	used := max(n-n/10, 2)
	for c := 0; c < used/4; c++ {
		members := make([]uint32, 2+r.Intn(11))
		for k := range members {
			members[k] = uint32(r.Intn(used))
		}
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				if members[i] != members[j] {
					s.set(members[i], members[j], 1)
				}
			}
		}
	}
	hub := uint32(r.Intn(used))
	for m := used / 4; m > 0; m-- {
		if u := uint32(r.Intn(used)); u != hub {
			s.set(hub, u, 1)
		}
	}
	s.addRandom(r, used, used/2)
	s.n = n
	return s
}

// TestTriangleCountsMatchesBruteForce holds TriangleCounts to the
// brute-force count at 1 to 8 workers on random clique unions (hubs and
// isolated vertices included; the larger ones span several 1024-vertex
// blocks, so every worker counts) and on a hand-built Tri whose I = J
// self-loops close no triangle.
func TestTriangleCountsMatchesBruteForce(t *testing.T) {
	var graphs []*Graph
	for seed := uint64(1); seed <= 4; seed++ {
		for _, n := range []int{3, 40, 300, 3000} {
			graphs = append(graphs, cliqueUnion(rng.New(seed), n).graph())
		}
	}
	loops := cliqueUnion(rng.New(9), 200)
	for v := uint32(0); v < 200; v += 3 {
		loops.set(v, v, 1)
	}
	graphs = append(graphs, loops.graph())
	for i, g := range graphs {
		want := bruteTriangles(g)
		for workers := 1; workers <= 8; workers++ {
			if got := g.TriangleCounts(workers); !slices.Equal(got, want) {
				t.Fatalf("graph %d (%d vertices), %d workers: TriangleCounts differs from the brute-force count", i, g.NumVertices(), workers)
			}
		}
	}
}

// FuzzTriangleCounts decodes a graph from the fuzz bytes — the first
// byte sets the vertex count, every later pair of bytes is an edge, a
// self-loop when both name one vertex — and holds TriangleCounts at 1
// and 3 workers to the brute-force count.
func FuzzTriangleCounts(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 3, 3, 3, 4, 4, 5})
	f.Add([]byte{255, 7, 9, 9, 11, 7, 11, 200, 201})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		s := &edgeSet{w: map[[2]uint32]uint32{}}
		n := 1 + int(raw[0])
		for off := 1; off+2 <= len(raw); off += 2 {
			s.set(uint32(int(raw[off])%n), uint32(int(raw[off+1])%n), 1)
		}
		s.n = n
		g := s.graph()
		want := bruteTriangles(g)
		for _, workers := range []int{1, 3} {
			if got := g.TriangleCounts(workers); !slices.Equal(got, want) {
				t.Fatalf("%d vertices, %d edges, %d workers: TriangleCounts = %v, want %v", n, len(s.w), workers, got, want)
			}
		}
	})
}

var triSink []int64

// BenchmarkUpdateTriangleCounts times the update on a collocation-shaped
// 20 000-vertex graph after a window that adds 1 % new edges, beside a
// full count of the same graph.
func BenchmarkUpdateTriangleCounts(b *testing.B) {
	r := rng.New(3)
	s := &edgeSet{w: map[[2]uint32]uint32{}}
	const n = 20000
	for p := 0; p < n/20; p++ { // places of 20–60 members
		members := make([]uint32, 20+r.Intn(40))
		for k := range members {
			members[k] = uint32(r.Intn(n))
		}
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				if members[i] != members[j] {
					s.set(members[i], members[j], 1)
				}
			}
		}
	}
	prev := s.graph()
	s.addRandom(r, n, len(s.w)/100)
	g := s.graph()
	off, nbrs, _ := prev.CSR()
	tri := prev.TriangleCounts(2)
	b.Run("update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			triSink, _ = g.UpdateTriangleCounts(off, nbrs, tri, 2)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			triSink = g.TriangleCounts(2)
		}
	})
}

// BenchmarkTriangleCounts times the full count on a collocation-shaped
// 20 000-vertex graph: three layers of places, each a clique of 10–50
// members. About half the probes of its forward walk hit a mark, where
// a uniform random graph (BenchmarkClusteringAll) has almost no
// triangles and so almost no hits.
func BenchmarkTriangleCounts(b *testing.B) {
	const n = 20000
	r := rng.New(9)
	var es []sparse.Entry
	for layer := 0; layer < 3; layer++ {
		perm := r.Perm(n)
		for lo := 0; lo < n; {
			hi := min(lo+10+r.Intn(41), n)
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					es = append(es, sparse.Entry{I: uint32(perm[i]), J: uint32(perm[j]), W: 1})
				}
			}
			lo = hi
		}
	}
	g := FromTri(sparse.Coalesce(1, es), n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triSink = g.TriangleCounts(2)
	}
}
