package layout

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// clusteredGraph builds two dense clusters joined by one bridge edge.
func clusteredGraph() *graph.Graph {
	var es []sparse.Entry
	for i := uint32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			es = append(es, sparse.Entry{I: i, J: j, W: 1})
		}
	}
	for i := uint32(10); i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			es = append(es, sparse.Entry{I: i, J: j, W: 1})
		}
	}
	es = append(es, sparse.Entry{I: 0, J: 10, W: 1})
	return graph.FromTri(sparse.Coalesce(1, es), 20)
}

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	var es []sparse.Entry
	for k := 0; k < m; k++ {
		es = append(es, sparse.Entry{I: uint32(r.Intn(n)), J: uint32(r.Intn(n)), W: uint32(1 + r.Intn(5))})
	}
	return graph.FromTri(sparse.Coalesce(1, es), n)
}

func TestLayoutFinitePositions(t *testing.T) {
	g := randomGraph(300, 1500, 1)
	pos := Layout(g, Config{Iterations: 60, Seed: 1})
	if len(pos) != 300 {
		t.Fatalf("got %d positions", len(pos))
	}
	for i, p := range pos {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			t.Fatalf("vertex %d at non-finite position %+v", i, p)
		}
	}
}

func TestLayoutDeterministic(t *testing.T) {
	g := randomGraph(100, 400, 2)
	a := Layout(g, Config{Iterations: 40, Seed: 7, Workers: 1})
	b := Layout(g, Config{Iterations: 40, Seed: 7, Workers: 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed layouts differ at vertex %d", i)
		}
	}
}

func TestLayoutEmptyAndSingle(t *testing.T) {
	empty := graph.FromTri(&sparse.Tri{}, 0)
	if pos := Layout(empty, Config{}); len(pos) != 0 {
		t.Fatal("empty graph produced positions")
	}
	single := graph.FromTri(&sparse.Tri{}, 1)
	if pos := Layout(single, Config{}); len(pos) != 1 {
		t.Fatal("single vertex layout wrong size")
	}
}

func TestClustersEndUpCloserThanCrossPairs(t *testing.T) {
	g := clusteredGraph()
	pos := Layout(g, Config{Iterations: 200, Seed: 3})
	meanIntra, meanCross := 0.0, 0.0
	nIntra, nCross := 0, 0
	dist := func(a, b int) float64 {
		return math.Hypot(pos[a].X-pos[b].X, pos[a].Y-pos[b].Y)
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			d := dist(i, j)
			if (i < 10) == (j < 10) {
				meanIntra += d
				nIntra++
			} else {
				meanCross += d
				nCross++
			}
		}
	}
	meanIntra /= float64(nIntra)
	meanCross /= float64(nCross)
	if meanIntra >= meanCross {
		t.Fatalf("intra-cluster distance %.2f not below cross-cluster %.2f", meanIntra, meanCross)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := randomGraph(400, 1200, 5)
	serial := Layout(g, Config{Iterations: 20, Seed: 9, Workers: 1})
	parallel := Layout(g, Config{Iterations: 20, Seed: 9, Workers: 8})
	for i := range serial {
		if math.Abs(serial[i].X-parallel[i].X) > 1e-6 || math.Abs(serial[i].Y-parallel[i].Y) > 1e-6 {
			t.Fatalf("vertex %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestWriteSVGStructure(t *testing.T) {
	g := clusteredGraph()
	pos := Layout(g, Config{Iterations: 30, Seed: 4})
	var buf bytes.Buffer
	if err := WriteSVG(&buf, g, pos, SVGOptions{Title: "test net"}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(strings.TrimSpace(s), "</svg>") {
		t.Fatal("not an SVG document")
	}
	if got := strings.Count(s, "<circle"); got != 20 {
		t.Fatalf("%d circles, want 20", got)
	}
	if got := strings.Count(s, "<line"); got != g.NumEdges() {
		t.Fatalf("%d lines, want %d edges", got, g.NumEdges())
	}
	if !strings.Contains(s, "<title>test net</title>") {
		t.Fatal("missing title")
	}
}

func TestWriteSVGPositionCountMismatch(t *testing.T) {
	g := clusteredGraph()
	var buf bytes.Buffer
	if err := WriteSVG(&buf, g, make([]Point, 3), SVGOptions{}); err == nil {
		t.Fatal("mismatched position count accepted")
	}
}

func TestWriteSVGDegenerateAllSamePoint(t *testing.T) {
	g := clusteredGraph()
	pos := make([]Point, 20) // all at origin: span is zero
	var buf bytes.Buffer
	if err := WriteSVG(&buf, g, pos, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("SVG contains NaN coordinates")
	}
}

func BenchmarkLayout1kNodes(b *testing.B) {
	g := randomGraph(1000, 8000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Layout(g, Config{Iterations: 50, Seed: 1})
	}
}
