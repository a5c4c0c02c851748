package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

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
	var es []sparse.Entry
	const n = 200
	// Hub 0 connects to ~half the graph; a ring plus random chords
	// gives triangles and a spread of degrees.
	for v := uint32(1); v < n/2; v++ {
		es = append(es, sparse.Entry{I: 0, J: v, W: uint32(src.Intn(500) + 1)})
	}
	for v := uint32(1); v < n-10; v++ {
		es = append(es, sparse.Entry{I: v, J: v + 1, W: uint32(src.Intn(50) + 1)})
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
		es = append(es, sparse.Entry{I: i, J: j, W: uint32(src.Intn(100) + 1)})
	}
	return graph.FromTri(sparse.Coalesce(1, es), n) // vertices n-10..n-1 isolated
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
	var es []sparse.Entry
	for _, members := range places {
		for a := range members {
			for b := a + 1; b < len(members); b++ {
				es = append(es, sparse.Entry{I: members[a], J: members[b], W: uint32(src.Intn(8) + 1)})
			}
		}
	}
	return graph.FromTri(sparse.Coalesce(1, es), n)
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
	var es []sparse.Entry
	weight := func() uint32 { return uint32(src.Intn(3) + 1) }
	for h := 1 + src.Intn(3); h > 0; h-- {
		hub := uint32(src.Intn(core))
		for k := 40 + src.Intn(core); k > 0; k-- {
			es = append(es, sparse.Entry{I: hub, J: uint32(src.Intn(core)), W: weight()})
		}
	}
	for k := src.Intn(4 * core); k > 0; k-- {
		es = append(es, sparse.Entry{I: uint32(src.Intn(core)), J: uint32(src.Intn(core)), W: weight()})
	}
	for v := core; v < n; v++ {
		switch src.Intn(3) {
		case 1:
			es = append(es, sparse.Entry{I: uint32(v), J: uint32(src.Intn(core)), W: weight()})
		case 2:
			es = append(es, sparse.Entry{I: uint32(v), J: uint32(src.Intn(core)), W: weight()})
			es = append(es, sparse.Entry{I: uint32(v), J: uint32(src.Intn(core)), W: weight()})
		}
	}
	return graph.FromTri(sparse.Coalesce(1, es), n)
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

// weightedGraph builds a graph on n vertices whose edges draw their
// weights from draw: hubs 0 … 3 of degree 2 … 60, so every row length
// sits below, at and above small k, plus random chords between the
// leaves, whose rows collect weights from several hubs.
func weightedGraph(src *rng.Source, n int, draw func() uint32) *graph.Graph {
	var es []sparse.Entry
	for hub := range 4 {
		for _, v := range src.Perm(n)[:min(n-1, 2+src.Intn(59))] {
			if v != hub {
				es = append(es, sparse.Entry{I: uint32(hub), J: uint32(v), W: draw()})
			}
		}
	}
	for k := src.Intn(2 * n); k > 0; k-- {
		es = append(es, sparse.Entry{I: uint32(src.Intn(n)), J: uint32(src.Intn(n)), W: draw()})
	}
	t := sparse.Coalesce(1, es)
	for k := range t.W { // Coalesce sums repeats; give every edge one draw
		t.W[k] = draw()
	}
	return graph.FromTri(t, n)
}

// TestBakeRowPassMatchesReference: the row pass sorts by counting only
// while a row's weights fit its table, and by keys past it. Both must
// equal the reference on rows whose weights straddle the bound — within
// one row and across rows — on all-equal and all-zero rows, and on rows
// shorter than, as long as and longer than k.
func TestBakeRowPassMatchesReference(t *testing.T) {
	src := rng.New(29)
	near := []uint32{countLimit - 2, countLimit - 1, countLimit, countLimit + 1}
	draws := map[string]func() uint32{
		"straddle": func() uint32 { return near[src.Intn(len(near))] },
		"small-and-huge": func() uint32 {
			return [...]uint32{0, 1, 2, 3, math.MaxUint32, math.MaxUint32 - 1}[src.Intn(6)]
		},
		"below-bound": func() uint32 { return uint32(src.Intn(countLimit)) },
		"above-bound": func() uint32 { return countLimit + uint32(src.Intn(3)) },
		"all-equal":   func() uint32 { return 7 },
		"all-zero":    func() uint32 { return 0 },
		"wide":        func() uint32 { return uint32(src.Uint64()) },
	}
	for name, draw := range draws {
		for range 6 {
			g := weightedGraph(src, 8+src.Intn(120), draw)
			for _, k := range []int{1, 2, 3, 8, DefaultTopK, g.MaxDegree(), g.MaxDegree() + 1} {
				want := referenceIndexData(g, k)
				for _, workers := range []int{1, 3} {
					if got := BuildIndexData(g, IndexOptions{TopK: k, Workers: workers}); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, k %d, %d workers: BuildIndexData differs from the reference", name, k, workers)
					}
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

// TestIndexedReadFallback runs both branches of the section codec on
// this host and requires them to agree with the mmap view. parse of an
// aligned image aliases it; parse of a copy shifted one byte off
// alignment decodes every CSR and index section instead. With the host
// declared big-endian, leBytes encodes copies, which must be the very
// bytes the aliased writer produced, and fromLE decodes even an aligned
// image.
func TestIndexedReadFallback(t *testing.T) {
	g := indexTestGraph(t)
	data := writeIndexedBytes(t, g, IndexOptions{})
	path := filepath.Join(t.TempDir(), "m.gsnap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	aliased, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if off, _, _ := aliased.Graph().CSR(); nativeLittleEndian && &off[0] != (*int64)(unsafe.Pointer(&data[headerSize])) {
		t.Error("aligned image on a little-endian host: offsets were copied, not aliased")
	}
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	decoded, err := parse(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if off, _, _ := decoded.Graph().CSR(); &off[0] == (*int64)(unsafe.Pointer(&shifted[1+headerSize])) {
		t.Error("misaligned image: offsets alias it")
	}

	defer func(le bool) { nativeLittleEndian = le }(nativeLittleEndian)
	nativeLittleEndian = false
	if got := writeIndexedBytes(t, g, IndexOptions{}); !bytes.Equal(got, data) {
		t.Fatal("encoded-copy writer bytes differ from the aliased writer's")
	}
	swapped, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if off, _, _ := swapped.Graph().CSR(); &off[0] == (*int64)(unsafe.Pointer(&data[headerSize])) {
		t.Error("big-endian host: offsets alias the image")
	}

	for name, s := range map[string]*Snapshot{"aliased": aliased, "misaligned": decoded, "big-endian": swapped} {
		graphsEqual(t, m.Graph(), s.Graph())
		if !reflect.DeepEqual(s.Index(), m.Index()) {
			t.Errorf("%s: index differs from the mmap view", name)
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

// TestSelectSmallest: after selectSmallest(keys, k), keys[:k] holds the
// k smallest keys of a full sort, for lengths on both sides of the
// 16-key cutoff below which a range is sorted, every k, and keys with
// and without repeats.
func TestSelectSmallest(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{0, 1, 2, 15, 16, 17, 40, 333} {
		for _, spread := range []uint64{1 << 40, 8} { // distinct, then repeats
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = src.Uint64n(spread)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			for k := 0; k <= n; k++ {
				got := slices.Clone(keys)
				selectSmallest(got, k)
				top := slices.Clone(got[:k])
				slices.Sort(top)
				if !slices.Equal(top, want[:k]) {
					t.Fatalf("n %d, k %d: selected %v, want %v", n, k, top, want[:k])
				}
			}
		}
	}
}

// pinGraphs are small fixed graphs whose WriteIndexed bytes are pinned
// by TestWriteIndexedBytesPinned: no edges at all, isolated vertices
// beside a triangle, an odd vertex count (the degree section needs
// padding), and a hub whose top-k cut falls inside runs of equal
// weights.
func pinGraphs() map[string]*graph.Graph {
	build := func(n int, edges [][3]uint32) *graph.Graph {
		var es []sparse.Entry
		for _, e := range edges {
			es = append(es, sparse.Entry{I: e[0], J: e[1], W: e[2]})
		}
		return graph.FromTri(sparse.Coalesce(1, es), n)
	}
	ring := [][3]uint32{{0, 3, 2}, {2, 5, 9}}
	for v := uint32(0); v < 7; v++ {
		ring = append(ring, [3]uint32{v, (v + 1) % 7, v + 1})
	}
	hub := [][3]uint32{{1, 2, 3}}
	for v := uint32(1); v <= 40; v++ {
		hub = append(hub, [3]uint32{0, v, 1 + v%3})
	}
	return map[string]*graph.Graph{
		"empty":     graph.FromTri(&sparse.Tri{}, 0),
		"isolated":  build(12, [][3]uint32{{0, 1, 3}, {1, 2, 4}, {0, 2, 5}, {5, 6, 1}}),
		"odd-v":     build(7, ring),
		"topk-ties": build(41, hub),
	}
}

// TestWriteIndexedBytesPinned pins the CRC32 and length of WriteIndexed
// output on pinGraphs, recorded from the streaming two-pass writer that
// preceded the single-pass one: a writer change that moves any byte
// fails here, not only in the end-to-end smoke cksums.
func TestWriteIndexedBytesPinned(t *testing.T) {
	pins := map[string]struct {
		crc uint32
		n   int
	}{
		"empty":     {1153546180, 312},
		"isolated":  {335288869, 896},
		"odd-v":     {1702234810, 888},
		"topk-ties": {3932576101, 3368},
	}
	for name, g := range pinGraphs() {
		data := writeIndexedBytes(t, g, IndexOptions{})
		got, want := pins[name], pins[name]
		got.crc, got.n = crc32.ChecksumIEEE(data), len(data)
		if got != want {
			t.Errorf("%s: crc %d, %d bytes; pinned crc %d, %d bytes", name, got.crc, got.n, want.crc, want.n)
		}
	}
}

// TestForgedIndexRejected rewrites index payloads so that they disagree
// with the CSR, then recomputes the section, table and header CRCs, as
// a forger would. The CRCs then pass, and only Open's structural checks
// stand between the file and wrong answers: a degree that is not the
// row length, and a top-k row boundary moved by one so that both rows
// keep within k but neither is min(deg, k) long.
func TestForgedIndexRejected(t *testing.T) {
	g := indexTestGraph(t)
	forge := func(kind uint32, edit func(payload []byte)) []byte {
		data := writeIndexedBytes(t, g, IndexOptions{})
		tableOff := binary.LittleEndian.Uint64(data[36:44])
		count := binary.LittleEndian.Uint32(data[tableOff:])
		table := data[tableOff : tableOff+8+uint64(count)*tableEntrySize]
		for i := uint32(0); i < count; i++ {
			e := table[8+i*tableEntrySize:]
			if binary.LittleEndian.Uint32(e) != kind {
				continue
			}
			off, length := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
			edit(data[off : off+length])
			binary.LittleEndian.PutUint32(e[24:28], crc32.ChecksumIEEE(data[off:off+length]))
		}
		binary.LittleEndian.PutUint32(data[44:48], crc32.ChecksumIEEE(table))
		fixV2HeaderCRC(data)
		return data
	}
	if g.Degree(0) <= DefaultTopK || g.Degree(1) >= DefaultTopK {
		t.Fatalf("test graph needs a hub at 0 and a small row at 1 (degrees %d, %d)", g.Degree(0), g.Degree(1))
	}
	cases := map[string][]byte{
		"degree": forge(secDegree, func(p []byte) { binary.LittleEndian.PutUint32(p[0:4], 999) }),
		"topk-row": forge(secTopK, func(p []byte) {
			binary.LittleEndian.PutUint64(p[8:16], binary.LittleEndian.Uint64(p[8:16])-1)
		}),
	}
	for name, data := range cases {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: forged index: err = %v, want ErrInvalid", name, err)
		}
		if snap != nil {
			t.Errorf("%s: fail-closed violated: non-nil snapshot", name)
		}
	}
}

// BenchmarkBakeIndex times the bake without the triangle count — the
// row pass, the degree columns and the coefficients — as a Publisher
// pays it, on the same graph as BenchmarkBuildIndexData.
func BenchmarkBakeIndex(b *testing.B) {
	g := collocationGraph(20000, 5)
	opts := IndexOptions{}.withDefaults()
	tri := g.TriangleCounts(opts.Workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = bakeIndex(g, opts, tri)
	}
}
