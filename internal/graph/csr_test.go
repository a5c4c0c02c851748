package graph

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// fixture: 0-1 w5, 0-2 w1, 1-2 w3, 2-3 w10, vertices 4..5 isolated.
func fixture() *Graph {
	return FromTri(buildTri([][3]uint32{
		{0, 1, 5}, {0, 2, 1}, {1, 2, 3}, {2, 3, 10},
	}), 6)
}

func TestCSRRoundTrip(t *testing.T) {
	g := fixture()
	offsets, nbrs, weights := g.CSR()
	g2, err := NewCSR(offsets, nbrs, weights)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d vertices/edges",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, aw := g.Neighbors(uint32(v))
		b, bw := g2.Neighbors(uint32(v))
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aw, bw) {
			t.Fatalf("vertex %d: rows differ", v)
		}
	}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		nbrs    []uint32
		weights []uint32
	}{
		{"nil offsets", nil, nil, nil},
		{"nonzero first offset", []int64{1, 1}, nil, nil},
		{"decreasing offsets", []int64{0, 2, 1}, []uint32{1, 0}, []uint32{1, 1}},
		{"end mismatch", []int64{0, 1}, []uint32{0, 0}, []uint32{1, 1}},
		{"weights length mismatch", []int64{0, 1, 2}, []uint32{1, 0}, []uint32{1}},
		{"odd half-edges", []int64{0, 1}, []uint32{0}, []uint32{1}},
		{"neighbor out of range", []int64{0, 1, 2}, []uint32{5, 0}, []uint32{1, 1}},
		{"self-loop", []int64{0, 1, 2}, []uint32{0, 0}, []uint32{1, 1}},
		{"row not increasing", []int64{0, 2, 3, 5}, []uint32{2, 1, 0, 0, 1}, []uint32{1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		if _, err := NewCSR(tc.offsets, tc.nbrs, tc.weights); err == nil {
			t.Errorf("%s: NewCSR accepted invalid input", tc.name)
		}
	}
}

func TestNewCSRAdoptsWithoutCopy(t *testing.T) {
	g := fixture()
	offsets, nbrs, weights := g.CSR()
	g2, err := NewCSR(offsets, nbrs, weights)
	if err != nil {
		t.Fatal(err)
	}
	o2, n2, w2 := g2.CSR()
	if &o2[0] != &offsets[0] || &n2[0] != &nbrs[0] || &w2[0] != &weights[0] {
		t.Fatal("NewCSR copied its input slices")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := fixture()
	// degrees: 0→2, 1→2, 2→3, 3→1, 4→0, 5→0
	want := []int{2, 1, 2, 1}
	if got := g.DegreeHistogram(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeHistogram = %v, want %v", got, want)
	}
	hist := g.DegreeHistogram()
	// Totals over all slots = vertex count.
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != g.NumVertices() {
		t.Fatalf("histogram total = %d, want %d", total, g.NumVertices())
	}
	if got := FromTri(&sparse.Tri{}, 0).DegreeHistogram(); len(got) != 0 {
		t.Fatalf("empty graph histogram = %v, want empty", got)
	}
}

func TestTotalWeightAndVerticesWithEdges(t *testing.T) {
	g := fixture()
	if got := g.TotalWeight(); got != 19 {
		t.Fatalf("TotalWeight = %d, want 19", got)
	}
	if got := g.VerticesWithEdges(); got != 4 {
		t.Fatalf("VerticesWithEdges = %d, want 4", got)
	}
}

func TestShortestPathBFS(t *testing.T) {
	g := fixture()
	p, ok := g.ShortestPathBFS(0, 3)
	if !ok || !reflect.DeepEqual(p, []uint32{0, 2, 3}) {
		t.Fatalf("BFS 0→3 = %v (%v), want [0 2 3]", p, ok)
	}
	// Source equals destination.
	p, ok = g.ShortestPathBFS(1, 1)
	if !ok || !reflect.DeepEqual(p, []uint32{1}) {
		t.Fatalf("BFS 1→1 = %v (%v), want [1]", p, ok)
	}
	// Disconnected.
	if _, ok := g.ShortestPathBFS(0, 4); ok {
		t.Fatal("BFS found a path to an isolated vertex")
	}
}

func TestShortestPathWeighted(t *testing.T) {
	g := fixture()
	// Costs 1/w: 0-1-2-3 = 1/5+1/3+1/10 ≈ 0.633 beats 0-2-3 = 1+1/10.
	p, cost, ok := g.ShortestPathWeighted(0, 3)
	if !ok || !reflect.DeepEqual(p, []uint32{0, 1, 2, 3}) {
		t.Fatalf("weighted 0→3 = %v (%v), want [0 1 2 3]", p, ok)
	}
	want := 1.0/5 + 1.0/3 + 1.0/10
	if d := cost - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("weighted cost = %v, want %v", cost, want)
	}
	if _, _, ok := g.ShortestPathWeighted(3, 5); ok {
		t.Fatal("weighted search found a path to an isolated vertex")
	}
	p, cost, ok = g.ShortestPathWeighted(2, 2)
	if !ok || cost != 0 || !reflect.DeepEqual(p, []uint32{2}) {
		t.Fatalf("weighted 2→2 = %v cost %v (%v), want [2] cost 0", p, cost, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int // expected 1-based line number in the message; 0 for none
	}{
		{"two fields", "0\t1\n", 1},
		{"four fields", "0\t1\t2\t3\n", 1},
		{"junk id", "a\t1\t2\n", 1},
		{"junk weight", "0\t1\tnope\n", 1},
		{"negative", "0\t-1\t2\n", 1},
		{"overflow", "0\t4294967296\t2\n", 1},
		{"self-loop", "3\t3\t2\n", 1},
		{"late failure", "# header\n0\t1\t2\n1\t2\n", 3},
		{"zero weight", "1\t2\t0\n", 1},
		{"repeated pair sums past uint32", "0\t1\t4294967295\n0\t1\t2\n", 0},
	}
	for _, tc := range cases {
		_, err := ReadEdgeList(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrEdgeList) {
			t.Errorf("%s: error %v does not wrap ErrEdgeList", tc.name, err)
		}
		if tc.line > 0 && !strings.Contains(err.Error(), "line "+strconv.Itoa(tc.line)) {
			t.Errorf("%s: error %q lacks line %d", tc.name, err, tc.line)
		}
	}
}

func TestReadEdgeListValid(t *testing.T) {
	in := "# person_i\tperson_j\tcollocated_hours\n" +
		"0\t1\t5\n" +
		"\n" + // blank line ignored
		"0 2 1\n" + // spaces work too
		"  1\t2\t3\n" + // leading whitespace tolerated
		"2\t3\t4\n" +
		"3\t2\t6\n" // a repeated pair sums, in either order
	tri, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g := FromTri(tri, 0)
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if w := g.EdgeWeight(2, 3); w != 10 {
		t.Fatalf("weight(2,3) = %d, want 10", w)
	}
}

func TestWriteReadEdgeListRoundTrip(t *testing.T) {
	tri := buildTri([][3]uint32{{0, 1, 5}, {0, 2, 1}, {1, 2, 3}, {2, 3, 10}})
	var sb strings.Builder
	if err := WriteEdgeList(&sb, tri); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := FromTri(tri, 0), FromTri(back, 0)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		ai, aw := a.Neighbors(uint32(v))
		bi, bw := b.Neighbors(uint32(v))
		if !reflect.DeepEqual(ai, bi) || !reflect.DeepEqual(aw, bw) {
			t.Fatalf("vertex %d rows differ after round trip", v)
		}
	}
}

// fmtEdgeList is the fmt-based writer WriteEdgeList's bytes are held
// to: the header line, then one Fprintf line per entry.
func fmtEdgeList(t *sparse.Tri) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, "# person_i\tperson_j\tcollocated_hours")
	for k := range t.I {
		fmt.Fprintf(&sb, "%d\t%d\t%d\n", t.I[k], t.J[k], t.W[k])
	}
	return sb.String()
}

// TestWriteEdgeListMatchesFmt: the strconv writer's bytes equal the fmt
// form on random Tris whose IDs and weights reach 0 and math.MaxUint32,
// on the empty Tri, and across many buffer refills.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	src := rng.New(17)
	tris := []*sparse.Tri{
		{},
		{I: []uint32{0, math.MaxUint32 - 1}, J: []uint32{math.MaxUint32, math.MaxUint32}, W: []uint32{math.MaxUint32, 0}},
	}
	for range 8 {
		n := 2 + src.Intn(5000)
		tris = append(tris, randomTri(src, n, src.Intn(8*n)))
	}
	for i, tri := range tris {
		var sb strings.Builder
		if err := WriteEdgeList(&sb, tri); err != nil {
			t.Fatal(err)
		}
		if got, want := sb.String(), fmtEdgeList(tri); got != want {
			t.Fatalf("tri %d (%d entries): %d bytes written, the fmt form has %d", i, tri.NNZ(), len(got), len(want))
		}
	}
}

// BenchmarkWriteEdgeList times the edge list of a collocation-sized Tri
// (≈ 800 000 entries) to io.Discard.
func BenchmarkWriteEdgeList(b *testing.B) {
	tri := randomTri(rng.New(7), 20000, 800000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteEdgeList(io.Discard, tri); err != nil {
			b.Fatal(err)
		}
	}
}
