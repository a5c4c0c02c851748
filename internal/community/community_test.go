package community

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// cliqueRing builds r cliques of size s joined in a ring by single
// bridge edges — the classic community-detection testbed.
func cliqueRing(r, s int) (*graph.Graph, []int) {
	var es []sparse.Entry
	truth := make([]int, r*s)
	for c := 0; c < r; c++ {
		base := uint32(c * s)
		for i := 0; i < s; i++ {
			truth[int(base)+i] = c
			for j := i + 1; j < s; j++ {
				es = append(es, sparse.Entry{I: base + uint32(i), J: base + uint32(j), W: 3})
			}
		}
		next := uint32(((c + 1) % r) * s)
		es = append(es, sparse.Entry{I: base, J: next, W: 1})
	}
	return graph.FromTri(sparse.Coalesce(1, es), r*s), truth
}

func TestLabelPropagationFindsCliques(t *testing.T) {
	g, truth := cliqueRing(6, 8)
	labels := LabelPropagation(g, 50, rng.New(1))
	if nmi := NMI(labels, truth); nmi < 0.9 {
		t.Fatalf("LP NMI = %v, want ≥ 0.9 (found %d communities)", nmi, NumCommunities(labels))
	}
}

func TestLouvainFindsCliques(t *testing.T) {
	g, truth := cliqueRing(6, 8)
	labels, q := Louvain(g, rng.New(2))
	if nmi := NMI(labels, truth); nmi < 0.95 {
		t.Fatalf("Louvain NMI = %v (%d communities)", nmi, NumCommunities(labels))
	}
	if q < 0.5 {
		t.Fatalf("Louvain modularity = %v, want > 0.5", q)
	}
}

func TestLouvainModularityMatchesFunction(t *testing.T) {
	g, _ := cliqueRing(4, 6)
	labels, q := Louvain(g, rng.New(3))
	if got := Modularity(g, labels); math.Abs(got-q) > 1e-9 {
		t.Fatalf("returned modularity %v != recomputed %v", q, got)
	}
}

func TestModularityAllInOneIsZero(t *testing.T) {
	g, _ := cliqueRing(3, 5)
	labels := make([]int, g.NumVertices())
	if q := Modularity(g, labels); math.Abs(q) > 1e-12 {
		t.Fatalf("single-community modularity = %v, want 0", q)
	}
}

func TestModularityGroundTruthBeatsRandomPartition(t *testing.T) {
	g, truth := cliqueRing(5, 7)
	src := rng.New(4)
	random := make([]int, len(truth))
	for i := range random {
		random[i] = src.Intn(5)
	}
	if Modularity(g, truth) <= Modularity(g, random) {
		t.Fatal("ground-truth partition not better than random")
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := graph.FromTri(&sparse.Tri{}, 4)
	if q := Modularity(g, []int{0, 1, 2, 3}); q != 0 {
		t.Fatalf("empty-graph modularity = %v", q)
	}
}

func TestRelabelDense(t *testing.T) {
	got := Relabel([]int{42, 7, 42, 9, 7})
	want := []int{0, 1, 0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Relabel = %v, want %v", got, want)
		}
	}
}

func TestNumCommunitiesAndSizes(t *testing.T) {
	labels := []int{0, 0, 1, 2, 2, 2}
	if NumCommunities(labels) != 3 {
		t.Fatal("NumCommunities wrong")
	}
	sizes := Sizes(labels)
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestNMIIdentity(t *testing.T) {
	a := []int{0, 0, 1, 1, 2}
	if nmi := NMI(a, a); math.Abs(nmi-1) > 1e-9 {
		t.Fatalf("NMI(a,a) = %v", nmi)
	}
	// Renamed labels still identical.
	b := []int{5, 5, 9, 9, 7}
	if nmi := NMI(a, b); math.Abs(nmi-1) > 1e-9 {
		t.Fatalf("NMI up to renaming = %v", nmi)
	}
}

func TestNMITrivialPartitions(t *testing.T) {
	a := []int{0, 0, 0}
	if nmi := NMI(a, a); nmi != 1 {
		t.Fatalf("trivial identical partitions NMI = %v", nmi)
	}
}

func TestNMIIndependent(t *testing.T) {
	src := rng.New(5)
	n := 4000
	a := make([]int, n)
	b := make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = src.Intn(4)
		b[i] = src.Intn(4)
	}
	if nmi := NMI(a, b); nmi > 0.05 {
		t.Fatalf("independent partitions NMI = %v, want ≈0", nmi)
	}
}

func TestNMIMismatchedLengths(t *testing.T) {
	if NMI([]int{0}, []int{0, 1}) != 0 {
		t.Fatal("mismatched lengths should return 0")
	}
	if NMI(nil, nil) != 0 {
		t.Fatal("empty should return 0")
	}
}

func TestLabelPropagationIsolatedVerticesKeepOwnLabels(t *testing.T) {
	g := graph.FromTri(&sparse.Tri{}, 3)
	labels := LabelPropagation(g, 10, rng.New(6))
	if NumCommunities(labels) != 3 {
		t.Fatalf("isolated vertices merged: %v", labels)
	}
}

// Property: Louvain's modularity is never worse than the trivial
// all-singletons or all-in-one partitions.
func TestQuickLouvainBeatsTrivial(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var es []sparse.Entry
		n := 30
		for k := 0; k < 80; k++ {
			es = append(es, sparse.Entry{I: uint32(src.Intn(n)), J: uint32(src.Intn(n)), W: uint32(1 + src.Intn(3))})
		}
		g := graph.FromTri(sparse.Coalesce(1, es), n)
		if g.NumEdges() == 0 {
			return true
		}
		_, q := Louvain(g, src)
		allOne := make([]int, n)
		singles := make([]int, n)
		for i := range singles {
			singles[i] = i
		}
		return q >= Modularity(g, allOne)-1e-9 && q >= Modularity(g, singles)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLouvainCliqueRing(b *testing.B) {
	g, _ := cliqueRing(40, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Louvain(g, rng.New(uint64(i)))
	}
}
