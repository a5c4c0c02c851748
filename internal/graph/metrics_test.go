package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestGlobalTransitivityTriangle(t *testing.T) {
	if got := triangle().GlobalTransitivity(); got != 1 {
		t.Fatalf("triangle transitivity = %v, want 1", got)
	}
}

func TestGlobalTransitivityPath(t *testing.T) {
	if got := path().GlobalTransitivity(); got != 0 {
		t.Fatalf("path transitivity = %v, want 0", got)
	}
}

func TestGlobalTransitivityStarPlusEdge(t *testing.T) {
	// Star 0-(1,2,3) plus edge (1,2): 1 triangle; triples: v0 has C(3,2)=3,
	// v1 has C(2,2)=1, v2 has 1, v3 has 0 → 5. Transitivity = 3*1/ (3+1+1)?
	// Standard definition: 3·triangles / triples = 3/5.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}}), 0)
	if got := g.GlobalTransitivity(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("transitivity = %v, want 0.6", got)
	}
}

func TestAssortativityRegularGraphIsDegenerate(t *testing.T) {
	// In a cycle all degrees are equal: correlation undefined → 0.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}}), 0)
	if got := g.DegreeAssortativity(); got != 0 {
		t.Fatalf("regular graph assortativity = %v, want 0", got)
	}
}

func TestAssortativityStarIsNegative(t *testing.T) {
	// A star is maximally disassortative: hubs connect to leaves.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}}), 0)
	if got := g.DegreeAssortativity(); got >= 0 {
		t.Fatalf("star assortativity = %v, want < 0", got)
	}
}

func TestAssortativityTwoCliquesPositiveVsStar(t *testing.T) {
	// Two disjoint cliques of different sizes: edges always connect
	// equal-degree vertices → assortativity 1 (or NaN-guarded 0 if
	// degenerate). Compare with star: cliques must be at least as high.
	var es []sparse.Entry
	for i := uint32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			es = append(es, sparse.Entry{I: i, J: j, W: 1})
		}
	}
	for i := uint32(4); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			es = append(es, sparse.Entry{I: i, J: j, W: 1})
		}
	}
	g := FromTri(sparse.Coalesce(1, es), 10)
	cliques := g.DegreeAssortativity()
	star := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}}), 0).DegreeAssortativity()
	if cliques <= star {
		t.Fatalf("cliques %v not more assortative than star %v", cliques, star)
	}
	if math.Abs(cliques-1) > 1e-9 {
		t.Fatalf("equal-degree-within-component assortativity = %v, want 1", cliques)
	}
}

func TestMeanShortestPathPathGraph(t *testing.T) {
	// Path 0-1-2-3: exact mean over ordered reachable pairs =
	// (sum of all pairwise distances × 2) / 12 = (1+2+3+1+2+1)×2/12 = 5/3.
	g := path()
	got := g.MeanShortestPath(4, rng.New(1))
	if math.Abs(got-5.0/3) > 1e-9 {
		t.Fatalf("mean path = %v, want %v", got, 5.0/3)
	}
}

func TestMeanShortestPathClique(t *testing.T) {
	g := triangle()
	if got := g.MeanShortestPath(3, rng.New(1)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("clique mean path = %v, want 1", got)
	}
}

func TestMeanShortestPathIgnoresSmallComponents(t *testing.T) {
	// Giant: clique of 4 (mean 1); small: single edge. Sampling the
	// giant only must return 1.
	var es []sparse.Entry
	for i := uint32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			es = append(es, sparse.Entry{I: i, J: j, W: 1})
		}
	}
	es = append(es, sparse.Entry{I: 10, J: 11, W: 1})
	g := FromTri(sparse.Coalesce(1, es), 12)
	if got := g.MeanShortestPath(4, rng.New(2)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("giant-component mean path = %v, want 1", got)
	}
}

func TestMeanShortestPathEmpty(t *testing.T) {
	g := FromTri(&sparse.Tri{}, 5)
	if got := g.MeanShortestPath(3, rng.New(1)); got != 0 {
		t.Fatalf("edgeless mean path = %v, want 0", got)
	}
}

func TestTopDegree(t *testing.T) {
	// Degrees: 0→3 (star hub), 1→2, 2→2, 3→1, 4 isolated.
	g := FromTri(buildTri([][3]uint32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}}), 5)
	if got := g.TopDegree(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("TopDegree(1) = %v, want [0]", got)
	}
	// Vertices 1 and 2 tie at degree 2; ascending-id break keeps 1 first.
	if got := g.TopDegree(3); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("TopDegree(3) = %v, want [0 1 2]", got)
	}
	// k beyond n clamps; isolated vertices come last.
	if got := g.TopDegree(99); len(got) != 5 || got[4] != 4 {
		t.Fatalf("TopDegree(99) = %v", got)
	}
	if got := g.TopDegree(0); got != nil {
		t.Fatalf("TopDegree(0) = %v, want nil", got)
	}
	if got := g.TopDegree(-3); got != nil {
		t.Fatalf("TopDegree(-3) = %v, want nil", got)
	}
}
