package gennet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/netstat"
	"repro/internal/rng"
)

func TestErdosRenyiEdgeCount(t *testing.T) {
	tri, err := ErdosRenyi(100, 500, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if tri.NNZ() != 500 {
		t.Fatalf("G(100,500) has %d edges", tri.NNZ())
	}
	g := graph.FromTri(tri, 100)
	sum := 0
	for v := 0; v < 100; v++ {
		sum += g.Degree(uint32(v))
	}
	if sum != 1000 {
		t.Fatalf("degree sum %d, want 1000", sum)
	}
}

func TestErdosRenyiValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := ErdosRenyi(1, 0, r); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ErdosRenyi(10, 46, r); err == nil {
		t.Error("m > C(n,2) accepted")
	}
	if _, err := ErdosRenyi(10, -1, r); err == nil {
		t.Error("negative m accepted")
	}
	if tri, err := ErdosRenyi(10, 45, r); err != nil || tri.NNZ() != 45 {
		t.Error("complete graph case failed")
	}
}

func TestErdosRenyiLowClustering(t *testing.T) {
	tri, err := ErdosRenyi(2000, 8000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromTri(tri, 2000)
	if c := g.GlobalTransitivity(); c > 0.02 {
		t.Fatalf("ER transitivity %v unexpectedly high", c)
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	tri, err := BarabasiAlbert(3000, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromTri(tri, 3000)
	// Edge count: C(4,2) seed + 3 per added vertex.
	want := 6 + 3*(3000-4)
	if g.NumEdges() != want {
		t.Fatalf("BA edges = %d, want %d", g.NumEdges(), want)
	}
	// Heavy tail: max degree far above mean.
	mean := 2 * float64(g.NumEdges()) / 3000
	if float64(g.MaxDegree()) < 5*mean {
		t.Fatalf("BA max degree %d not heavy-tailed (mean %.1f)", g.MaxDegree(), mean)
	}
	// MLE exponent around 3 (BA theory), allow broad tolerance.
	alpha, err := netstat.AlphaMLE(g.DegreeHistogram(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 2 || alpha > 4 {
		t.Fatalf("BA alpha = %v, want ≈3", alpha)
	}
}

// TestBarabasiAlbertReproducible: the same seed must give the same graph
// on every call; the targets once came out of a map, whose iteration
// order fed every later preferential pick.
func TestBarabasiAlbertReproducible(t *testing.T) {
	a, err := BarabasiAlbert(3000, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(3000, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("two BarabasiAlbert(3000, 3, rng.New(5)) calls built different graphs")
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := BarabasiAlbert(5, 0, r); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := BarabasiAlbert(3, 3, r); err == nil {
		t.Error("n<=m accepted")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta=0: pure ring lattice, every vertex has degree k.
	tri, err := WattsStrogatz(50, 4, 0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromTri(tri, 50)
	for v := 0; v < 50; v++ {
		if g.Degree(uint32(v)) != 4 {
			t.Fatalf("lattice degree(%d) = %d, want 4", v, g.Degree(uint32(v)))
		}
	}
	// Lattice clustering for k=4 is 0.5.
	c := g.LocalClustering(0)
	if math.Abs(c-0.5) > 1e-9 {
		t.Fatalf("lattice clustering = %v, want 0.5", c)
	}
}

func TestWattsStrogatzRewiringShortensPathsKeepsEdges(t *testing.T) {
	r := rng.New(9)
	lattice, err := WattsStrogatz(400, 6, 0, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rewired, err := WattsStrogatz(400, 6, 0.1, r)
	if err != nil {
		t.Fatal(err)
	}
	gl := graph.FromTri(lattice, 400)
	gr := graph.FromTri(rewired, 400)
	if gr.NumEdges() != gl.NumEdges() {
		t.Fatalf("rewiring changed edge count: %d vs %d", gr.NumEdges(), gl.NumEdges())
	}
	pl := gl.MeanShortestPath(50, rng.New(1))
	pr := gr.MeanShortestPath(50, rng.New(1))
	if pr >= pl {
		t.Fatalf("rewired mean path %v not shorter than lattice %v", pr, pl)
	}
	// Small-world: clustering stays well above ER while paths shrink.
	if c := gr.GlobalTransitivity(); c < 0.2 {
		t.Fatalf("beta=0.1 transitivity %v collapsed", c)
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := WattsStrogatz(10, 3, 0.1, r); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := WattsStrogatz(10, 10, 0.1, r); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := WattsStrogatz(10, 4, 1.5, r); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestConfigurationModelMatchesDegreesApproximately(t *testing.T) {
	// Target: a concentrated degree sequence the erased model can
	// realize almost exactly.
	degrees := make([]int, 500)
	for i := range degrees {
		degrees[i] = 4 + i%5
	}
	tri, err := ConfigurationModel(degrees, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromTri(tri, 500)
	totalTarget, totalGot := 0, 0
	for v, d := range degrees {
		totalTarget += d
		totalGot += g.Degree(uint32(v))
	}
	// Erasure discards a small fraction of stubs.
	if float64(totalGot) < 0.95*float64(totalTarget) {
		t.Fatalf("configuration model realized %d of %d stubs", totalGot, totalTarget)
	}
}

func TestConfigurationModelOddSum(t *testing.T) {
	tri, err := ConfigurationModel([]int{3, 2, 2}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	// 7 stubs → one dropped → 3 edges max.
	if tri.NNZ() > 3 {
		t.Fatalf("odd-sum model produced %d edges", tri.NNZ())
	}
}

func TestConfigurationModelNegativeDegree(t *testing.T) {
	if _, err := ConfigurationModel([]int{1, -1}, rng.New(1)); err == nil {
		t.Fatal("negative degree accepted")
	}
}

func TestDegreeSequence(t *testing.T) {
	tri, err := ErdosRenyi(50, 100, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromTri(tri, 50)
	seq := DegreeSequence(g)
	if len(seq) != 50 {
		t.Fatalf("sequence length %d", len(seq))
	}
	sum := 0
	for _, d := range seq {
		sum += d
	}
	if sum != 200 {
		t.Fatalf("degree sum %d, want 200", sum)
	}
}

// Property: all generators emit simple graphs (no self-loops by
// construction of Tri; no duplicate edges means NNZ == distinct pairs).
func TestQuickGeneratorsSimple(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		er, err := ErdosRenyi(30, 60, r)
		if err != nil {
			return false
		}
		ba, err := BarabasiAlbert(30, 2, r)
		if err != nil {
			return false
		}
		ws, err := WattsStrogatz(30, 4, 0.3, r)
		if err != nil {
			return false
		}
		check := func(I, J []uint32) bool {
			seen := make(map[uint64]bool)
			for k := range I {
				if I[k] >= J[k] {
					return false
				}
				key := uint64(I[k])<<32 | uint64(J[k])
				if seen[key] {
					return false
				}
				seen[key] = true
			}
			return true
		}
		return check(er.I, er.J) && check(ba.I, ba.J) && check(ws.I, ws.J)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
