package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// FuzzOpen throws arbitrary bytes at the snapshot loader. The
// invariants: no panic, no out-of-range allocation, and either a typed
// error (fail-closed) or a structurally valid graph.
func FuzzOpen(f *testing.F) {
	// Seed with a valid snapshot and systematic mutations of it.
	g := graph.FromTri(&sparse.Tri{
		I: []uint32{0, 0, 1},
		J: []uint32{1, 2, 3},
		W: []uint32{4, 5, 6},
	}, 5)
	valid := v1Bytes(f, g)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	for _, cut := range []int{1, headerSize - 1, headerSize, len(valid) - 3} {
		f.Add(valid[:cut])
	}
	for _, off := range []int{0, 6, 8, 16, 24, 36, 40, headerSize, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	// Absurd counts with a fixed-up header CRC.
	huge := bytes.Clone(valid)
	for i := 8; i < 24; i++ {
		huge[i] = 0xFF
	}
	fixHeaderCRCOnly(huge)
	f.Add(huge)

	// v2 corpus: a fully indexed snapshot, its truncations, bit flips in
	// the header (version, indexOff, table CRC), section table, and
	// section payloads — plus hostile rewrites of the index offset and
	// table count with the v2 header CRC patched back up so the damage
	// reaches the table parser instead of dying at the header check.
	var ibuf bytes.Buffer
	if err := WriteIndexed(&ibuf, g, IndexOptions{TopK: 2}); err != nil {
		f.Fatal(err)
	}
	iv := ibuf.Bytes()
	f.Add(iv)
	tableOff := int(binary.LittleEndian.Uint64(iv[36:44]))
	for _, cut := range []int{headerSize, tableOff - 1, tableOff, tableOff + 9,
		tableOff + tableEntrySize, len(iv) - 9, len(iv) - 1} {
		if cut >= 0 && cut < len(iv) {
			f.Add(iv[:cut])
		}
	}
	for _, off := range []int{6, 36, 40, 44, 56, tableOff, tableOff + 4, tableOff + 8,
		tableOff + 12, tableOff + 16, tableOff + 24, tableOff + 8 + tableEntrySize,
		len(iv) - 5} {
		mut := bytes.Clone(iv)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	for _, tweak := range []func(b []byte){
		func(b []byte) { binary.LittleEndian.PutUint64(b[36:44], uint64(len(b))) },     // table past EOF
		func(b []byte) { binary.LittleEndian.PutUint64(b[36:44], uint64(tableOff+1)) }, // misaligned table
		func(b []byte) { binary.LittleEndian.PutUint32(b[tableOff:], 0xFFFF) },         // absurd count
		func(b []byte) { binary.LittleEndian.PutUint32(b[tableOff:], 0) },              // empty table
		func(b []byte) { binary.LittleEndian.PutUint32(b[tableOff+8:], 99) },           // unknown kind
		func(b []byte) { // duplicate kind
			copy(b[tableOff+8+tableEntrySize:], b[tableOff+8:tableOff+8+tableEntrySize])
		},
		func(b []byte) { // payload length overflow
			binary.LittleEndian.PutUint64(b[tableOff+8+16:], ^uint64(0)>>1)
		},
	} {
		mut := bytes.Clone(iv)
		tweak(mut)
		fixV2HeaderCRC(mut)
		f.Add(mut)
	}
	// A partial index: the first entry (degree) renamed to an unknown
	// kind with the table and header CRCs patched, so only the
	// all-or-nothing rule can refuse it.
	partial := bytes.Clone(iv)
	binary.LittleEndian.PutUint32(partial[tableOff+8:], 99)
	tableEnd := tableOff + 8 + int(binary.LittleEndian.Uint32(partial[tableOff:]))*tableEntrySize
	binary.LittleEndian.PutUint32(partial[44:48], crc32.ChecksumIEEE(partial[tableOff:tableEnd]))
	fixV2HeaderCRC(partial)
	f.Add(partial)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if snap != nil {
				t.Fatal("fail-closed violated: snapshot returned with error")
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrInvalid) {
				t.Fatalf("untyped loader error: %v", err)
			}
			return
		}
		// Accepted snapshots must be internally consistent.
		got := snap.Graph()
		n := got.NumVertices()
		for v := 0; v < n; v++ {
			row, wts := got.Neighbors(uint32(v))
			if len(row) != len(wts) {
				t.Fatalf("vertex %d: %d nbrs, %d weights", v, len(row), len(wts))
			}
			for k, u := range row {
				if int(u) >= n {
					t.Fatalf("vertex %d: neighbor %d out of range", v, u)
				}
				if k > 0 && row[k-1] >= u {
					t.Fatalf("vertex %d: row not strictly increasing", v)
				}
			}
		}
		// An accepted index is complete and addressable without panics:
		// every column has length V, and every per-vertex lookup a hot
		// endpoint would do stays in bounds. (A hostile snapshot must
		// never crash the daemon.)
		if ix := snap.Index(); ix != nil {
			if len(ix.Degrees) != n || len(ix.Strengths) != n || len(ix.Clustering) != n || len(ix.TopKOff) != n+1 {
				t.Fatalf("index columns degree %d, strength %d, clustering %d, topk offsets %d for %d vertices",
					len(ix.Degrees), len(ix.Strengths), len(ix.Clustering), len(ix.TopKOff), n)
			}
			for v := 0; v < n; v++ {
				row := ix.TopKRow(uint32(v))
				for k := 0; k+1 < len(row); k += 2 {
					if int(row[k]) >= n {
						t.Fatalf("topk row %d: neighbor %d out of range", v, row[k])
					}
				}
			}
		}
	})
}

// FuzzBakeIndex bakes random small graphs with random weights — zero,
// below and past the row pass's counting bound, up to math.MaxUint32 —
// at a random k and worker count, and holds every section to the
// straight-line referenceIndexData.
func FuzzBakeIndex(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(2), uint32(8))
	f.Add(uint64(2), uint8(90), uint8(32), uint8(1), uint32(countLimit+1))
	f.Add(uint64(3), uint8(12), uint8(1), uint8(4), uint32(1))
	f.Add(uint64(4), uint8(200), uint8(7), uint8(3), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, seed uint64, n, k, workers uint8, spread uint32) {
		src := rng.New(seed)
		draw := func() uint32 {
			switch src.Intn(8) {
			case 0:
				return 0
			case 1:
				return math.MaxUint32 - uint32(src.Intn(2))
			case 2:
				return countLimit - 1 + uint32(src.Intn(3))
			}
			return uint32(src.Uint64n(uint64(spread) + 1))
		}
		g := weightedGraph(src, 5+int(n), draw)
		topK := 1 + int(k)%40
		want := referenceIndexData(g, topK)
		got := BuildIndexData(g, IndexOptions{TopK: topK, Workers: 1 + int(workers)%4})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d vertices, k %d: BuildIndexData differs from the reference", g.NumVertices(), topK)
		}
	})
}

// fuzz helper: recompute only the header CRC (leaves section CRCs as
// they are) so mutated counts pass the header check and exercise the
// geometry guards.
func fixHeaderCRCOnly(data []byte) {
	if len(data) < headerSize {
		return
	}
	binary.LittleEndian.PutUint32(data[36:40], crc32.ChecksumIEEE(data[0:36]))
}

// fuzz helper: recompute a v2 header's CRC (at [56:60], over [0:56])
// so deliberate index-table damage reaches the table parser.
func fixV2HeaderCRC(data []byte) {
	if len(data) < headerSize {
		return
	}
	binary.LittleEndian.PutUint32(data[56:60], crc32.ChecksumIEEE(data[0:56]))
}
