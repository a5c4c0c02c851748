package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// fixCRCs recomputes the section and header checksums of a snapshot
// image in place, so tests can introduce *structural* damage that the
// CRCs won't catch.
func fixCRCs(data []byte) {
	v := binary.LittleEndian.Uint64(data[8:16])
	h := binary.LittleEndian.Uint64(data[16:24])
	offEnd := uint64(headerSize) + (v+1)*8
	nbrEnd := offEnd + h*4
	binary.LittleEndian.PutUint32(data[24:28], crc32.ChecksumIEEE(data[headerSize:offEnd]))
	binary.LittleEndian.PutUint32(data[28:32], crc32.ChecksumIEEE(data[offEnd:nbrEnd]))
	binary.LittleEndian.PutUint32(data[32:36], crc32.ChecksumIEEE(data[nbrEnd:]))
	binary.LittleEndian.PutUint32(data[36:40], crc32.ChecksumIEEE(data[0:36]))
}

// randomTri builds a deterministic random upper-triangular matrix with
// n vertices and ~m entries.
func randomTri(seed int64, n, m int) *sparse.Tri {
	rng := rand.New(rand.NewSource(seed))
	acc := sparse.NewAccum()
	for k := 0; k < m; k++ {
		i := uint32(rng.Intn(n))
		j := uint32(rng.Intn(n))
		if i == j {
			continue
		}
		acc.Add(i, j, uint32(rng.Intn(500)+1))
	}
	return acc.Tri()
}

// graphsEqual compares two graphs CSR-array by CSR-array.
func graphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	ao, an, aw := a.CSR()
	bo, bn, bw := b.CSR()
	if len(ao) != len(bo) {
		t.Fatalf("offsets length %d != %d", len(ao), len(bo))
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("offsets[%d] = %d != %d", i, ao[i], bo[i])
		}
	}
	if len(an) != len(bn) || len(aw) != len(bw) {
		t.Fatalf("half-edge lengths (%d,%d) != (%d,%d)", len(an), len(aw), len(bn), len(bw))
	}
	for i := range an {
		if an[i] != bn[i] || aw[i] != bw[i] {
			t.Fatalf("half-edge %d: (%d,%d) != (%d,%d)", i, an[i], aw[i], bn[i], bw[i])
		}
	}
}

// v1Bytes returns g's version-1 snapshot image, the CSR-only layout
// older writers produced: a WriteIndexed image cut at the CSR end,
// stamped version 1, with the reserved header tail zeroed and the v1
// header CRC (over [0:36]) at [36:40].
func v1Bytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	offsets, nbrs, _ := g.CSR()
	data := writeIndexedBytes(t, g, IndexOptions{})[:headerSize+8*len(offsets)+8*len(nbrs)]
	binary.LittleEndian.PutUint16(data[6:8], Version1)
	clear(data[36:64])
	binary.LittleEndian.PutUint32(data[36:40], crc32.ChecksumIEEE(data[0:36]))
	return data
}

// writeSnapshot writes g's indexed snapshot to a fresh file under
// t.TempDir.
func writeSnapshot(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.gsnap")
	if err := WriteFileIndexed(path, g, IndexOptions{}); err != nil {
		t.Fatalf("WriteFileIndexed: %v", err)
	}
	return path
}

// TestRoundTripProperty is the bit-exactness property: a snapshot of g,
// v1 or v2, read back in memory or opened from a file, must equal
// FromTri's graph on offsets, neighbors and weights, for a spread of
// shapes including empty graphs, graphs with isolated vertices, and
// random weighted graphs.
func TestRoundTripProperty(t *testing.T) {
	cases := []*graph.Graph{
		graph.FromTri(&sparse.Tri{}, 0),  // empty
		graph.FromTri(&sparse.Tri{}, 17), // isolated vertices only
		graph.FromTri(&sparse.Tri{I: []uint32{0}, J: []uint32{5}, W: []uint32{9}}, 10),
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 20 << uint(seed%3)
		cases = append(cases, graph.FromTri(randomTri(seed, n, n*8), n+int(seed)))
	}
	for i, g := range cases {
		// In-memory round trips via ReadSnapshot.
		for _, data := range [][]byte{v1Bytes(t, g), writeIndexedBytes(t, g, IndexOptions{})} {
			got, err := ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("case %d: ReadSnapshot: %v", i, err)
			}
			graphsEqual(t, g, got.Graph())
		}

		// File round trip via Open (mmap path on linux).
		path := writeSnapshot(t, g)
		snap, err := Open(path)
		if err != nil {
			t.Fatalf("case %d: Open: %v", i, err)
		}
		graphsEqual(t, g, snap.Graph())
		if runtime.GOOS == "linux" && !snap.Mapped() {
			t.Errorf("case %d: expected mmap'd snapshot on linux", i)
		}
		if err := snap.Close(); err != nil {
			t.Fatalf("case %d: Close: %v", i, err)
		}
		if err := snap.Close(); err != nil { // idempotent
			t.Fatalf("case %d: second Close: %v", i, err)
		}
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.gsnap")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(path)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if snap != nil {
		t.Fatal("fail-closed violated: non-nil snapshot with error")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	g := graph.FromTri(randomTri(42, 50, 300), 50)
	for _, cut := range []int64{-1, -9, 10, headerSize, headerSize + 24} {
		path := writeSnapshot(t, g)
		if err := faultinject.TruncateFile(path, cut); err != nil {
			t.Fatal(err)
		}
		snap, err := Open(path)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: want ErrTruncated, got %v", cut, err)
		}
		if snap != nil {
			t.Fatal("fail-closed violated: non-nil snapshot with error")
		}
	}
}

// TestOpenRejectsCorruption flips bytes at every interesting offset via
// the faultinject corruption injector and checks Open fails closed with
// the right typed error.
func TestOpenRejectsCorruption(t *testing.T) {
	g := graph.FromTri(randomTri(7, 64, 400), 64)
	weightsEnd := int64(headerSize + 65*8 + 2*g.NumEdges()*8)
	offCases := []struct {
		name string
		off  int64
		want error
	}{
		{"magic", 0, ErrBadMagic},
		{"version", 6, ErrVersion},
		{"vertex count", 8, ErrChecksum}, // header CRC catches it
		{"edge count", 16, ErrChecksum},  // header CRC catches it
		{"offsets crc", 24, ErrChecksum}, // header CRC catches it
		{"header crc", 56, ErrChecksum},  // direct mismatch
		{"offsets section", headerSize + 8, ErrChecksum},
		{"neighbors section", headerSize + 65*8 + 4, ErrChecksum},
		{"weights section", weightsEnd - 4, ErrChecksum},
		{"index section", -4, ErrChecksum},
	}
	for _, tc := range offCases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSnapshot(t, g)
			if err := faultinject.CorruptFile(path, tc.off, 2); err != nil {
				t.Fatal(err)
			}
			snap, err := Open(path)
			if !errors.Is(err, tc.want) {
				t.Fatalf("corrupt @%d: want %v, got %v", tc.off, tc.want, err)
			}
			if snap != nil {
				t.Fatal("fail-closed violated: non-nil snapshot with error")
			}
			// XOR corruption is an involution: restore and reopen.
			if err := faultinject.CorruptFile(path, tc.off, 2); err != nil {
				t.Fatal(err)
			}
			snap, err = Open(path)
			if err != nil {
				t.Fatalf("restored snapshot should open: %v", err)
			}
			graphsEqual(t, g, snap.Graph())
			snap.Close()
		})
	}
}

// TestOpenRejectsStructuralDamage corrupts in a way that keeps the
// checksums consistent (re-encoding a snapshot whose sections disagree)
// and checks the CSR validator catches it.
func TestOpenRejectsStructuralDamage(t *testing.T) {
	// Hand-build CSR arrays violating row order, bypass graph.NewCSR by
	// encoding the snapshot manually through a throwaway valid graph of
	// the same shape, then swap the neighbor bytes AND fix the CRC.
	g := graph.FromTri(&sparse.Tri{I: []uint32{0, 0}, J: []uint32{1, 2}, W: []uint32{5, 6}}, 3)
	data := v1Bytes(t, g)
	// Neighbor section of vertex 0 is [1, 2]; reverse it to [2, 1]
	// (row no longer strictly increasing), then recompute CRCs so only
	// the structural validation can object.
	nbrStart := headerSize + 4*8
	data[nbrStart], data[nbrStart+4] = data[nbrStart+4], data[nbrStart]
	fixCRCs(data)
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
}

func TestLoadGraphFileSniffsBothFormats(t *testing.T) {
	g := graph.FromTri(randomTri(3, 30, 90), 30)
	// Snapshot input.
	snapPath := writeSnapshot(t, g)
	snap, err := LoadGraphFile(snapPath, 0)
	if err != nil {
		t.Fatalf("LoadGraphFile(gsnap): %v", err)
	}
	graphsEqual(t, g, snap.Graph())
	if snap.Version() != Version2 {
		t.Errorf("snapshot load reports version %d, want %d", snap.Version(), Version2)
	}
	snap.Close()

	// TSV input with the same edges.
	tri := randomTri(3, 30, 90)
	tsvPath := filepath.Join(t.TempDir(), "net.tsv")
	f, err := os.Create(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, tri); err != nil {
		t.Fatal(err)
	}
	f.Close()
	snap2, err := LoadGraphFile(tsvPath, 30)
	if err != nil {
		t.Fatalf("LoadGraphFile(tsv): %v", err)
	}
	defer snap2.Close()
	graphsEqual(t, graph.FromTri(tri, 30), snap2.Graph())
	if snap2.Mapped() {
		t.Error("TSV loads must not claim an mmap")
	}
	if snap2.Version() != 0 || snap2.Index() != nil {
		t.Errorf("TSV load reports version %d, index %v; want 0 and none", snap2.Version(), snap2.Index().Sections())
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.gsnap")
	g1 := graph.FromTri(randomTri(1, 20, 60), 20)
	g2 := graph.FromTri(randomTri(2, 25, 80), 25)
	if err := WriteFileIndexed(path, g1, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileIndexed(path, g2, IndexOptions{}); err != nil { // overwrite via rename
		t.Fatal(err)
	}
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	graphsEqual(t, g2, snap.Graph())
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(ents))
	}
}
