package disease

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sparse"
)

// Spread on a static contact network is not this package's model: it
// runs on scenario's one process kernel, which E5 also uses. These tests
// keep the behaviours this package's old SpreadOnGraph was pinned by —
// now as inputs to that kernel, in each of its modes.

// kernelModes are the kernel's three process modes at one beta.
func kernelModes(beta float64, infectiousDays int) map[string]scenario.Point {
	return map[string]scenario.Point{
		"sir":       {Beta: beta, InfectiousDays: infectiousDays},
		"seir":      {Beta: beta, IncubationDays: 1, InfectiousDays: infectiousDays},
		"diffusion": {Beta: beta},
	}
}

func spread(g *graph.Graph, p scenario.Point, steps int, seed uint64, seeds ...uint32) scenario.Rep {
	return p.Run(scenario.NewView(g, nil), nil, seeds, rng.New(seed), steps, nil)
}

func graphFromEdges(edges [][3]uint32, n int) *graph.Graph {
	var es []sparse.Entry
	for _, e := range edges {
		es = append(es, sparse.Entry{I: e[0], J: e[1], W: e[2]})
	}
	return graph.FromTri(sparse.Coalesce(1, es), n)
}

func TestSpreadOnGraphChain(t *testing.T) {
	// Chain with overwhelming weights: infection marches one hop per day
	// (one hop per two days with a day of incubation).
	g := graphFromEdges([][3]uint32{{0, 1, 1000}, {1, 2, 1000}, {2, 3, 1000}}, 4)
	want := map[string][]int{
		"sir":       {1, 1, 1, 1, 0, 0, 0, 0, 0, 0},
		"seir":      {1, 1, 0, 1, 0, 1, 0, 0, 0, 0},
		"diffusion": {1, 1, 1, 1, 0, 0, 0, 0, 0, 0},
	}
	for name, p := range kernelModes(0.9, 2) {
		res := spread(g, p, 10, 1, 0)
		if res.Total != 4 || !reflect.DeepEqual(res.NewPerStep, want[name]) {
			t.Errorf("%s: infected %d of 4, per-step %v want %v", name, res.Total, res.NewPerStep, want[name])
		}
	}
}

func TestSpreadOnGraphZeroBeta(t *testing.T) {
	g := graphFromEdges([][3]uint32{{0, 1, 10}}, 2)
	for name, p := range kernelModes(0, 3) {
		if res := spread(g, p, 10, 1, 0); res.Total != 1 {
			t.Errorf("%s: beta=0 infected %d", name, res.Total)
		}
	}
}

func TestSpreadOnGraphIsolatedSeed(t *testing.T) {
	g := graphFromEdges([][3]uint32{{1, 2, 5}}, 3)
	for name, p := range kernelModes(0.5, 3) {
		if res := spread(g, p, 10, 1, 0); res.Total != 1 {
			t.Errorf("%s: isolated seed infected %d", name, res.Total)
		}
	}
}

func TestSpreadOnGraphDeterministic(t *testing.T) {
	g := graphFromEdges([][3]uint32{
		{0, 1, 3}, {1, 2, 2}, {2, 3, 4}, {0, 3, 1}, {1, 3, 2},
	}, 4)
	for name, p := range kernelModes(0.2, 2) {
		a := spread(g, p, 20, 9, 0)
		b := spread(g, p, 20, 9, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: graph spread not deterministic: %+v vs %+v", name, a, b)
		}
	}
}

func TestSpreadOnGraphDuplicateSeeds(t *testing.T) {
	g := graphFromEdges([][3]uint32{{0, 1, 1}}, 2)
	for name, p := range kernelModes(0, 1) {
		if res := spread(g, p, 5, 1, 0, 0); res.Total != 1 {
			t.Errorf("%s: duplicate seed double-counted: %d", name, res.Total)
		}
	}
}

// TestSpreadOnGraphDuplicateSeedsStochastic is the regression test for
// the duplicate-seed bug: a repeated id used to enter the active list
// twice, double-decrementing its clock (early recovery) and drawing
// twice per neighbor (shifted rng stream). A duplicated seed list must
// behave exactly like the deduplicated one under stochastic spread.
func TestSpreadOnGraphDuplicateSeedsStochastic(t *testing.T) {
	var edges [][3]uint32
	const n = 80
	src := rng.New(5)
	for i := uint32(1); i < n; i++ {
		edges = append(edges, [3]uint32{uint32(src.Intn(int(i))), i, uint32(src.Intn(30) + 1)})
	}
	g := graphFromEdges(edges, n)
	for name, p := range kernelModes(0.05, 3) {
		want := spread(g, p, 25, 17, 0)
		got := spread(g, p, 25, 17, 0, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: duplicate seeds changed the spread:\n[0,0] %+v\n[0]   %+v", name, got, want)
		}
	}
}

func TestSpreadHigherOnDenserGraph(t *testing.T) {
	src := rng.New(31)
	// Sparse: ring. Dense: ring + many chords.
	var ring, dense [][3]uint32
	const n = 200
	for i := uint32(0); i < n; i++ {
		ring = append(ring, [3]uint32{i, (i + 1) % n, 2})
	}
	dense = append(dense, ring...)
	for k := 0; k < 400; k++ {
		a, b := uint32(src.Intn(n)), uint32(src.Intn(n))
		if a != b {
			dense = append(dense, [3]uint32{a, b, 2})
		}
	}
	for name, p := range kernelModes(0.15, 3) {
		sparse := spread(graphFromEdges(ring, n), p, 40, 5, 0)
		rich := spread(graphFromEdges(dense, n), p, 40, 5, 0)
		if rich.Total <= sparse.Total {
			t.Errorf("%s: dense graph infected %d, ring %d", name, rich.Total, sparse.Total)
		}
	}
}
