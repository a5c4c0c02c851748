package graph

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// buildTri assembles a Tri from edge triples.
func buildTri(edges [][3]uint32) *sparse.Tri {
	var es []sparse.Entry
	for _, e := range edges {
		es = append(es, sparse.Entry{I: e[0], J: e[1], W: e[2]})
	}
	return sparse.Coalesce(1, es)
}

// triangle returns K3 on vertices 0,1,2 with unit weights.
func triangle() *Graph {
	return FromTri(buildTri([][3]uint32{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}), 0)
}

// path returns P4: 0-1-2-3.
func path() *Graph {
	return FromTri(buildTri([][3]uint32{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}), 0)
}

func TestBasicCounts(t *testing.T) {
	g := triangle()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	p := path()
	if p.NumVertices() != 4 || p.NumEdges() != 3 {
		t.Fatalf("path: %d vertices, %d edges", p.NumVertices(), p.NumEdges())
	}
}

func TestIsolatedVerticesRetained(t *testing.T) {
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}}), 5)
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.Degree(4) != 0 {
		t.Fatalf("isolated vertex degree = %d", g.Degree(4))
	}
	if hist := g.DegreeHistogram(); !reflect.DeepEqual(hist, []int{3, 2}) {
		t.Fatalf("degree histogram = %v, want [3 2]", hist)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromTri(&sparse.Tri{}, 0)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.GiantComponentSize() != 0 {
		t.Fatal("empty graph has a giant component")
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	r := rng.New(4)
	var es []sparse.Entry
	for k := 0; k < 300; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(50)), J: uint32(r.Intn(50)), W: 1})
	}
	g := FromTri(sparse.Coalesce(1, es), 50)
	sum := 0
	for v := 0; v < g.NumVertices(); v++ {
		sum += g.Degree(uint32(v))
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("Σdeg = %d, 2|E| = %d", sum, 2*g.NumEdges())
	}
}

func TestNeighborsSortedAndWeighted(t *testing.T) {
	g := FromTri(buildTri([][3]uint32{{2, 0, 5}, {2, 7, 3}, {2, 4, 9}}), 0)
	row, wts := g.Neighbors(2)
	if len(row) != 3 {
		t.Fatalf("degree(2) = %d", len(row))
	}
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			t.Fatalf("neighbors not sorted: %v", row)
		}
	}
	if g.EdgeWeight(2, 4) != 9 || g.EdgeWeight(4, 2) != 9 {
		t.Fatal("edge weight lookup failed")
	}
	if g.EdgeWeight(0, 7) != 0 {
		t.Fatal("absent edge has nonzero weight")
	}
	_ = wts
}

// TestFromTriSortsOutOfOrderRows: a hand-built Tri that breaks the
// (I, J)-sorted, I < J contract still yields sorted rows with their
// weights carried along. Each weight encodes its edge as 10·lo + hi.
func TestFromTriSortsOutOfOrderRows(t *testing.T) {
	tri := &sparse.Tri{
		I: []uint32{3, 0, 2, 1, 0},
		J: []uint32{4, 3, 0, 4, 1},
		W: []uint32{34, 3, 2, 14, 1},
	}
	g := FromTri(tri, 5)
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	for v := uint32(0); v < 5; v++ {
		row, wts := g.Neighbors(v)
		for k, u := range row {
			if k > 0 && row[k-1] >= u {
				t.Fatalf("row %d not sorted: %v", v, row)
			}
			if want := 10*min(v, u) + max(v, u); wts[k] != want {
				t.Fatalf("edge (%d,%d) carries weight %d, want %d", v, u, wts[k], want)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := path()
	cases := []struct {
		u, v uint32
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, 2, false}, {2, 3, true}, {0, 3, false}}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v", c.u, c.v, got)
		}
	}
}

func TestStrength(t *testing.T) {
	g := FromTri(buildTri([][3]uint32{{0, 1, 5}, {0, 2, 7}}), 0)
	if got := g.Strength(0); got != 12 {
		t.Fatalf("Strength(0) = %d, want 12", got)
	}
	if got := g.Strength(1); got != 5 {
		t.Fatalf("Strength(1) = %d, want 5", got)
	}
}

func TestClusteringTriangle(t *testing.T) {
	g := triangle()
	for v := uint32(0); v < 3; v++ {
		if c := g.LocalClustering(v); c != 1 {
			t.Fatalf("triangle clustering(%d) = %v, want 1", v, c)
		}
	}
}

func TestClusteringPath(t *testing.T) {
	g := path()
	for v := uint32(0); v < 4; v++ {
		if c := g.LocalClustering(v); c != 0 {
			t.Fatalf("path clustering(%d) = %v, want 0", v, c)
		}
	}
}

func TestClusteringPartial(t *testing.T) {
	// Star center 0 with leaves 1,2,3 and one leaf-leaf edge (1,2):
	// pairs of neighbors = 3, connected pairs = 1 → c = 1/3.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}}), 0)
	if c := g.LocalClustering(0); math.Abs(c-1.0/3) > 1e-12 {
		t.Fatalf("clustering = %v, want 1/3", c)
	}
}

// TestClusteringAllMatchesSingle: the forward-enumeration kernel gives
// LocalClustering's bits at every vertex, for any worker count, on a
// random graph and on a hub-heavy one spanning several work blocks.
func TestClusteringAllMatchesSingle(t *testing.T) {
	r := rng.New(8)
	var es []sparse.Entry
	for k := 0; k < 500; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(60)), J: uint32(r.Intn(60)), W: 1})
	}
	random := FromTri(sparse.Coalesce(1, es), 60)

	// Hubs joined to a quarter of the graph and to each other, over a
	// sparse random background with isolated vertices at the end.
	const n = 3000
	es = nil
	for h := uint32(0); h < 8; h++ {
		hub := uint32(r.Intn(n - 100))
		for k := 0; k < n/4; k++ {
			es = append(es, sparse.Entry{I: hub, J: uint32(r.Intn(n - 100)), W: 1})
		}
	}
	for k := 0; k < 6*n; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(n - 100)), J: uint32(r.Intn(n - 100)), W: 1})
	}
	hubs := FromTri(sparse.Coalesce(1, es), n)

	for name, g := range map[string]*Graph{"random": random, "hubs": hubs} {
		for _, workers := range []int{1, 4} {
			all := g.ClusteringAll(workers)
			for v := 0; v < g.NumVertices(); v++ {
				if c := g.LocalClustering(uint32(v)); all[v] != c {
					t.Fatalf("%s, %d workers, vertex %d: ClusteringAll %v != LocalClustering %v", name, workers, v, all[v], c)
				}
			}
		}
	}
}

func TestClusteringInUnitRange(t *testing.T) {
	r := rng.New(9)
	var es []sparse.Entry
	for k := 0; k < 2000; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(200)), J: uint32(r.Intn(200)), W: 1})
	}
	g := FromTri(sparse.Coalesce(1, es), 200)
	for v, c := range g.ClusteringAll(2) {
		if c < 0 || c > 1 {
			t.Fatalf("clustering(%d) = %v out of [0,1]", v, c)
		}
	}
}

func TestEgoRadii(t *testing.T) {
	// 0-1-2-3-4 chain.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}}), 0)
	if got := g.Ego(0, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Ego(0,0) = %v", got)
	}
	if got := g.Ego(0, 1); len(got) != 2 {
		t.Fatalf("Ego(0,1) = %v", got)
	}
	got := g.Ego(0, 2)
	want := []uint32{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Ego(0,2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ego(0,2) = %v, want %v", got, want)
		}
	}
	if got := g.Ego(2, 2); len(got) != 5 {
		t.Fatalf("Ego(2,2) = %v, want all 5", got)
	}
}

func TestEgoExactDistances(t *testing.T) {
	r := rng.New(10)
	var es []sparse.Entry
	for k := 0; k < 400; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(80)), J: uint32(r.Intn(80)), W: 1})
	}
	g := FromTri(sparse.Coalesce(1, es), 80)
	// Reference BFS distances.
	dist := make([]int, 80)
	for i := range dist {
		dist[i] = -1
	}
	dist[7] = 0
	queue := []uint32{7}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		row, _ := g.Neighbors(v)
		for _, u := range row {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	ego := g.Ego(7, 2)
	inEgo := make(map[uint32]bool)
	for _, v := range ego {
		inEgo[v] = true
	}
	for v := 0; v < 80; v++ {
		want := dist[v] >= 0 && dist[v] <= 2
		if inEgo[uint32(v)] != want {
			t.Fatalf("vertex %d: dist %d, in ego %v", v, dist[v], inEgo[uint32(v)])
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Square 0-1-2-3-0 with diagonal 0-2; induce on {0,1,2}.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 4}, {0, 2, 5}}), 0)
	sub, orig := g.Induced([]uint32{0, 1, 2})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced: %d vertices %d edges, want 3/3", sub.NumVertices(), sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[2] != 2 {
		t.Fatalf("orig mapping = %v", orig)
	}
	// Weight preserved: edge (0,2) weight 5 → new ids 0,2.
	if sub.EdgeWeight(0, 2) != 5 {
		t.Fatalf("induced edge weight = %d, want 5", sub.EdgeWeight(0, 2))
	}
}

func TestInducedOnEgoPreservesInternalEdges(t *testing.T) {
	r := rng.New(12)
	var es []sparse.Entry
	for k := 0; k < 600; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(100)), J: uint32(r.Intn(100)), W: 1})
	}
	g := FromTri(sparse.Coalesce(1, es), 100)
	ego := g.Ego(3, 2)
	sub, orig := g.Induced(ego)
	// Every edge of sub exists in g between the mapped endpoints; and
	// every g-edge within the set exists in sub.
	index := make(map[uint32]uint32)
	for i, v := range orig {
		index[v] = uint32(i)
	}
	countInSet := 0
	for _, v := range ego {
		row, _ := g.Neighbors(v)
		for _, u := range row {
			if u > v {
				if _, ok := index[u]; ok {
					countInSet++
					if !sub.HasEdge(index[v], index[u]) {
						t.Fatalf("edge (%d,%d) missing from induced subgraph", v, u)
					}
				}
			}
		}
	}
	if sub.NumEdges() != countInSet {
		t.Fatalf("induced has %d edges, want %d", sub.NumEdges(), countInSet)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := FromTri(buildTri([][3]uint32{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
	}), 7)
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("first triangle split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("second triangle split")
	}
	if labels[0] == labels[3] || labels[6] == labels[0] || labels[6] == labels[3] {
		t.Fatal("components merged incorrectly")
	}
	if g.GiantComponentSize() != 3 {
		t.Fatalf("giant component = %d, want 3", g.GiantComponentSize())
	}
}

func TestMaxDegree(t *testing.T) {
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}}), 0)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

// Property: FromTri round-trips edge weights for arbitrary edge sets.
func TestQuickFromTriWeights(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var es []sparse.Entry
		type edge struct{ i, j uint32 }
		weights := make(map[edge]uint32)
		for k := 0; k < 50; k++ {
			i, j := uint32(r.Intn(30)), uint32(r.Intn(30))
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			w := uint32(1 + r.Intn(9))
			es = append(es, sparse.Entry{I: i, J: j, W: w})
			weights[edge{i, j}] += w
		}
		g := FromTri(sparse.Coalesce(1, es), 30)
		for e, w := range weights {
			if g.EdgeWeight(e.i, e.j) != w {
				return false
			}
		}
		return g.NumEdges() == len(weights)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every clique has clustering 1 at all vertices.
func TestQuickCliqueClustering(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n%6) + 3
		var es []sparse.Entry
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				es = append(es, sparse.Entry{I: uint32(i), J: uint32(j), W: 1})
			}
		}
		g := FromTri(sparse.Coalesce(1, es), k)
		for v := 0; v < k; v++ {
			if g.LocalClustering(uint32(v)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClusteringAll(b *testing.B) {
	r := rng.New(5)
	var es []sparse.Entry
	for k := 0; k < 50000; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(5000)), J: uint32(r.Intn(5000)), W: 1})
	}
	g := FromTri(sparse.Coalesce(1, es), 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClusteringAll(4)
	}
}

func BenchmarkEgoRadius2(b *testing.B) {
	r := rng.New(6)
	var es []sparse.Entry
	for k := 0; k < 100000; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(20000)), J: uint32(r.Intn(20000)), W: 1})
	}
	g := FromTri(sparse.Coalesce(1, es), 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ego(uint32(i%20000), 2)
	}
}
