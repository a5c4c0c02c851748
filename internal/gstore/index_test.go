package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// indexTestGraph builds a deterministic ~200-vertex weighted graph with
// hubs (degree > DefaultTopK), leaves, and isolated vertices, so every
// index section has both trivial and interesting rows.
func indexTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	src := rng.New(0xC0FFEE)
	acc := sparse.NewAccum()
	const n = 200
	// Hub 0 connects to ~half the graph; a ring plus random chords
	// gives triangles and a spread of degrees.
	for v := uint32(1); v < n/2; v++ {
		acc.Add(0, v, uint32(src.Intn(500)+1))
	}
	for v := uint32(1); v < n-10; v++ {
		acc.Add(v, v+1, uint32(src.Intn(50)+1))
	}
	for k := 0; k < 300; k++ {
		i := uint32(src.Intn(n - 10))
		j := uint32(src.Intn(n - 10))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		acc.Add(i, j, uint32(src.Intn(100)+1))
	}
	return graph.FromTri(acc.Tri(), n) // vertices n-10..n-1 isolated
}

func writeIndexedBytes(t testing.TB, g *graph.Graph, opts IndexOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteIndexed(&buf, g, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIndexRoundTrip(t *testing.T) {
	g := indexTestGraph(t)
	data := writeIndexedBytes(t, g, IndexOptions{})
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Version() != Version2 {
		t.Fatalf("version = %d, want %d", snap.Version(), Version2)
	}
	ix := snap.Index()
	if ix == nil {
		t.Fatal("indexed snapshot returned nil Index")
	}
	if got := len(ix.Sections()); got != 6 {
		t.Fatalf("sections = %v, want all 6", ix.Sections())
	}

	n := g.NumVertices()
	for v := 0; v < n; v++ {
		u := uint32(v)
		if int(ix.Degrees[v]) != g.Degree(u) {
			t.Fatalf("degree[%d] = %d, want %d", v, ix.Degrees[v], g.Degree(u))
		}
		if ix.Strengths[v] != g.Strength(u) {
			t.Fatalf("strength[%d] = %d, want %d", v, ix.Strengths[v], g.Strength(u))
		}
		if c := g.LocalClustering(u); ix.Clustering[v] != c {
			t.Fatalf("clustering[%d] = %v, want %v", v, ix.Clustering[v], c)
		}

		row := ix.TopKRow(u)
		cnt := len(row) / 2
		wantCnt := g.Degree(u)
		if wantCnt > ix.TopK {
			wantCnt = ix.TopK
		}
		if cnt != wantCnt {
			t.Fatalf("topk row %d has %d pairs, want %d", v, cnt, wantCnt)
		}
		for k := 0; k+3 < len(row); k += 2 {
			w1, w2 := row[k+1], row[k+3]
			if w1 < w2 || (w1 == w2 && row[k] >= row[k+2]) {
				t.Fatalf("topk row %d not sorted weight-desc/id-asc: %v", v, row)
			}
		}
		for k := 0; k+1 < len(row); k += 2 {
			if got := g.EdgeWeight(u, row[k]); got != row[k+1] {
				t.Fatalf("topk row %d pair (%d,%d): real weight %d", v, row[k], row[k+1], got)
			}
		}
	}

	hist := g.DegreeHistogram()
	if len(ix.Histogram) != len(hist) {
		t.Fatalf("histogram len %d, want %d", len(ix.Histogram), len(hist))
	}
	for k := range hist {
		if ix.Histogram[k] != int64(hist[k]) {
			t.Fatalf("histogram[%d] = %d, want %d", k, ix.Histogram[k], hist[k])
		}
	}
	st := ix.Stats
	if st.VerticesWithEdges != uint64(g.VerticesWithEdges()) ||
		st.TotalWeight != g.TotalWeight() || st.MaxDegree != uint64(g.MaxDegree()) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestV1SnapshotsStillOpen proves the old format keeps working: the
// graph loads, the index reports absent, and the version is 1.
func TestV1SnapshotsStillOpen(t *testing.T) {
	g := indexTestGraph(t)
	snap, err := ReadSnapshot(bytes.NewReader(v1Bytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Version() != Version1 {
		t.Fatalf("version = %d, want %d", snap.Version(), Version1)
	}
	if snap.Index() != nil {
		t.Fatalf("v1 snapshot reported sections %v", snap.Index().Sections())
	}
	if snap.Graph().NumEdges() != g.NumEdges() {
		t.Fatal("v1 graph did not round-trip")
	}
}

// collocationGraph builds a graph shaped like a collocation network:
// each of n persons visits a few places, every place is a clique of its
// visitors weighted by shared hours, and a handful of large places make
// hubs. Average degree is about 80.
func collocationGraph(n int, seed uint64) *graph.Graph {
	src := rng.New(seed)
	places := make([][]uint32, n/5)
	for p := uint32(0); p < uint32(n); p++ {
		for k := 0; k < 4; k++ {
			pl := src.Intn(len(places))
			places[pl] = append(places[pl], p)
		}
	}
	for h := 0; h < 4; h++ {
		hub := make([]uint32, 150)
		for k := range hub {
			hub[k] = uint32(src.Intn(n))
		}
		places = append(places, hub)
	}
	acc := sparse.NewAccum()
	for _, members := range places {
		for a := range members {
			for b := a + 1; b < len(members); b++ {
				acc.Add(members[a], members[b], uint32(src.Intn(8)+1))
			}
		}
	}
	return graph.FromTri(acc.Tri(), n)
}

// TestIndexedWriteDeterministic: the bytes must not depend on the
// worker count, so -reindex of a v1 file is bit-identical to a native
// indexed write of the same graph. The collocation graph spans five
// 1024-row blocks, so the larger worker counts really share the work.
func TestIndexedWriteDeterministic(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"small":       indexTestGraph(t),
		"collocation": collocationGraph(4500, 11),
	} {
		t.Run(name, func(t *testing.T) {
			want := writeIndexedBytes(t, g, IndexOptions{Workers: 1})
			for _, workers := range []int{2, 3, 7, 16} {
				if got := writeIndexedBytes(t, g, IndexOptions{Workers: workers}); !bytes.Equal(got, want) {
					t.Fatalf("indexed snapshot bytes differ between 1 and %d workers", workers)
				}
			}
		})
	}
}

// referenceIndexData is the straight-line bake the index sections are
// defined by: one serial pass over the rows, each fully sorted with
// sort.Slice, and clustering vertex by vertex through LocalClustering.
func referenceIndexData(g *graph.Graph, topK int) *Index {
	n := g.NumVertices()
	d := &Index{
		Degrees:    make([]uint32, n),
		Strengths:  make([]uint64, n),
		Clustering: make([]float64, n),
		TopK:       topK,
		TopKOff:    make([]int64, n+1),
		Histogram:  []int64{},
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg := g.Degree(uint32(v))
		d.Degrees[v] = uint32(deg)
		maxDeg = max(maxDeg, deg)
		d.TopKOff[v+1] = d.TopKOff[v] + int64(min(deg, topK))
	}
	if n > 0 {
		d.Histogram = make([]int64, maxDeg+1)
	}
	var withEdges uint64
	for v := 0; v < n; v++ {
		d.Histogram[d.Degrees[v]]++
		if d.Degrees[v] > 0 {
			withEdges++
		}
	}
	type pair struct{ id, w uint32 }
	for v := 0; v < n; v++ {
		ids, wts := g.Neighbors(uint32(v))
		var row []pair
		for k := range ids {
			d.Strengths[v] += uint64(wts[k])
			row = append(row, pair{ids[k], wts[k]})
		}
		sort.Slice(row, func(i, j int) bool {
			if row[i].w != row[j].w {
				return row[i].w > row[j].w
			}
			return row[i].id < row[j].id
		})
		for _, p := range row[:d.TopKOff[v+1]-d.TopKOff[v]] {
			d.TopKPairs = append(d.TopKPairs, p.id, p.w)
		}
		d.Clustering[v] = g.LocalClustering(uint32(v))
	}
	if d.TopKPairs == nil {
		d.TopKPairs = []uint32{}
	}
	d.Stats = IndexStats{
		VerticesWithEdges: withEdges,
		TotalWeight:       g.TotalWeight(),
		MaxDegree:         uint64(maxDeg),
	}
	return d
}

// randomIndexGraph draws a graph with every row shape the bake treats
// differently: isolated vertices, leaves of degree 1 and 2, hubs far
// above DefaultTopK, random chords closing triangles, and weights from
// a small range so that ties are common.
func randomIndexGraph(seed uint64) *graph.Graph {
	src := rng.New(seed)
	n := 60 + src.Intn(300)
	core := n * 3 / 4 // the rest are leaves or isolated
	acc := sparse.NewAccum()
	weight := func() uint32 { return uint32(src.Intn(3) + 1) }
	for h := 1 + src.Intn(3); h > 0; h-- {
		hub := uint32(src.Intn(core))
		for k := 40 + src.Intn(core); k > 0; k-- {
			acc.Add(hub, uint32(src.Intn(core)), weight())
		}
	}
	for k := src.Intn(4 * core); k > 0; k-- {
		acc.Add(uint32(src.Intn(core)), uint32(src.Intn(core)), weight())
	}
	for v := core; v < n; v++ {
		switch src.Intn(3) {
		case 1:
			acc.Add(uint32(v), uint32(src.Intn(core)), weight())
		case 2:
			acc.Add(uint32(v), uint32(src.Intn(core)), weight())
			acc.Add(uint32(v), uint32(src.Intn(core)), weight())
		}
	}
	return graph.FromTri(acc.Tri(), n)
}

// TestBuildIndexDataMatchesReference: the sharded bake equals the
// straight-line reference exactly, section by section, over random
// graphs, k from 1 to past the largest degree, and several worker
// counts.
func TestBuildIndexDataMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		g := randomIndexGraph(seed)
		for _, k := range []int{1, 2, DefaultTopK, g.MaxDegree() + 1} {
			want := referenceIndexData(g, k)
			for _, workers := range []int{1, 2, 7} {
				got := BuildIndexData(g, IndexOptions{TopK: k, Workers: workers})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, k %d, %d workers: BuildIndexData differs from the reference", seed, k, workers)
				}
			}
		}
	}
}

var indexSink *Index

// BenchmarkBuildIndexData times the whole bake on a 20 000-vertex
// collocation-shaped graph at the default worker count.
func BenchmarkBuildIndexData(b *testing.B) {
	g := collocationGraph(20000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = BuildIndexData(g, IndexOptions{})
	}
}

func TestReindexUpgradeIsByteIdentical(t *testing.T) {
	g := indexTestGraph(t)
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.gsnap")
	native := filepath.Join(dir, "native.gsnap")
	if err := os.WriteFile(v1, v1Bytes(t, g), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileIndexed(native, g, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	// Upgrade the v1 file in place, the way netserve -reindex does.
	snap, err := Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileIndexed(v1, snap.Graph(), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	a, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(native)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("reindexed v1 file differs from native indexed write")
	}
}

// sectionExtent locates one index section's payload in a serialized v2
// snapshot by walking the on-disk section table.
func sectionExtent(t *testing.T, data []byte, kind uint32) (off, length int64) {
	t.Helper()
	indexOff := binary.LittleEndian.Uint64(data[36:44])
	if indexOff == 0 {
		t.Fatal("snapshot has no index")
	}
	count := binary.LittleEndian.Uint32(data[indexOff : indexOff+4])
	table := data[indexOff+8:]
	for i := uint32(0); i < count; i++ {
		e := table[i*tableEntrySize:]
		if binary.LittleEndian.Uint32(e[0:4]) != kind {
			continue
		}
		return int64(binary.LittleEndian.Uint64(e[8:16])),
			int64(binary.LittleEndian.Uint64(e[16:24]))
	}
	t.Fatalf("section kind %d not found", kind)
	return 0, 0
}

// TestIndexSectionCorruptionFailsClosed flips bytes inside each index
// section payload in turn: Open must fail with ErrChecksum — never
// return a graph wired to silently wrong index data.
func TestIndexSectionCorruptionFailsClosed(t *testing.T) {
	g := indexTestGraph(t)
	dir := t.TempDir()
	kinds := []struct {
		name string
		kind uint32
	}{
		{"degree", secDegree},
		{"strength", secStrength},
		{"clustering", secClustering},
		{"topk", secTopK},
		{"histogram", secHistogram},
		{"stats", secStats},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			path := filepath.Join(dir, k.name+".gsnap")
			if err := WriteFileIndexed(path, g, IndexOptions{}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off, length := sectionExtent(t, data, k.kind)
			if length == 0 {
				t.Fatalf("section %s empty", k.name)
			}
			if err := faultinject.CorruptFile(path, off+length/2, 2); err != nil {
				t.Fatal(err)
			}
			snap, err := Open(path)
			if err == nil {
				snap.Close()
				t.Fatal("corrupted index section accepted")
			}
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("error = %v, want ErrChecksum", err)
			}
		})
	}

	// The section table itself is CRC-guarded through the header.
	t.Run("table", func(t *testing.T) {
		path := filepath.Join(dir, "table.gsnap")
		if err := WriteFileIndexed(path, g, IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		indexOff := int64(binary.LittleEndian.Uint64(data[36:44]))
		if err := faultinject.CorruptFile(path, indexOff+8+4, 2); err != nil {
			t.Fatal(err)
		}
		_, err = Open(path)
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrInvalid) {
			t.Fatalf("error = %v, want ErrChecksum/ErrInvalid", err)
		}
	})
}

// TestPartialIndexRejected: a v2 image whose degree entry is rewritten
// to an unknown kind, checksums patched, is structurally sound but
// lacks a required section — Open must refuse it rather than hand out
// an Index with a missing column.
func TestPartialIndexRejected(t *testing.T) {
	data := writeIndexedBytes(t, indexTestGraph(t), IndexOptions{})
	tableOff := binary.LittleEndian.Uint64(data[36:44])
	count := binary.LittleEndian.Uint32(data[tableOff:])
	table := data[tableOff : tableOff+8+uint64(count)*tableEntrySize]
	for i := uint32(0); i < count; i++ {
		if e := table[8+i*tableEntrySize:]; binary.LittleEndian.Uint32(e) == secDegree {
			binary.LittleEndian.PutUint32(e, 99)
		}
	}
	binary.LittleEndian.PutUint32(data[44:48], crc32.ChecksumIEEE(table))
	binary.LittleEndian.PutUint32(data[56:60], crc32.ChecksumIEEE(data[0:56]))
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("index without a degree section: err = %v, want ErrInvalid", err)
	}
	if snap != nil {
		t.Fatal("fail-closed violated: non-nil snapshot with error")
	}
}

// TestIndexTruncationFailsClosed chops the file inside the index
// region at several depths: every cut must be rejected with a typed
// error, never a quietly index-less (or wrong) snapshot.
func TestIndexTruncationFailsClosed(t *testing.T) {
	g := indexTestGraph(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.gsnap")
	if err := WriteFileIndexed(full, g, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	indexOff := int64(binary.LittleEndian.Uint64(data[36:44]))
	size := int64(len(data))
	for _, cut := range []int64{size - 1, size - 8, (indexOff + size) / 2, indexOff + 9, indexOff + 1} {
		path := filepath.Join(dir, "cut.gsnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.TruncateFile(path, cut); err != nil {
			t.Fatal(err)
		}
		snap, err := Open(path)
		if err == nil {
			snap.Close()
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrInvalid) &&
			!errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// TestIndexedReadFallback forces the no-mmap io.Reader path (which
// copy-decodes sections instead of aliasing them) and checks it agrees
// with the mmap view.
func TestIndexedReadFallback(t *testing.T) {
	g := indexTestGraph(t)
	data := writeIndexedBytes(t, g, IndexOptions{})
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	path := filepath.Join(t.TempDir(), "m.gsnap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, b := snap.Index(), m.Index()
	if a == nil || b == nil {
		t.Fatal("index missing on a load path")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if a.Degrees[v] != b.Degrees[v] || a.Strengths[v] != b.Strengths[v] ||
			a.Clustering[v] != b.Clustering[v] {
			t.Fatalf("vertex %d: reader/mmap index disagree", v)
		}
		ra, rb := a.TopKRow(uint32(v)), b.TopKRow(uint32(v))
		if len(ra) != len(rb) {
			t.Fatalf("vertex %d: topk rows differ in length", v)
		}
		for k := range ra {
			if ra[k] != rb[k] {
				t.Fatalf("vertex %d: topk rows differ", v)
			}
		}
	}
}

// TestEmptyGraphIndexed: degenerate but must round-trip.
func TestEmptyGraphIndexed(t *testing.T) {
	g := graph.FromTri(&sparse.Tri{}, 0)
	data := writeIndexedBytes(t, g, IndexOptions{})
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Index() == nil {
		t.Fatal("empty graph lost its index")
	}
	if len(snap.Index().Histogram) != 0 {
		t.Fatalf("histogram = %v, want empty", snap.Index().Histogram)
	}
}
