// Index sections: the version-2 extension of the snapshot format.
//
// A v2 snapshot is a v1 snapshot (same 64-byte header shape, same CSR
// sections) followed by six precomputed per-vertex index sections that
// turn netserve's hot endpoints into O(1) reads off the mmap:
//
//	degree      V·4 bytes   uint32   degree column
//	strength    V·8 bytes   uint64   weighted-degree column
//	clustering  V·8 bytes   float64  local clustering-coefficient column
//	topk        (V+1)·8 + Σmin(deg,k)·8 bytes
//	            per-vertex offsets, then (id,weight) uint32 pairs
//	            sorted weight-descending, ID-ascending — the first
//	            neighbors page, pre-sorted
//	histogram   (maxDegree+1)·8 bytes  int64  dense degree histogram
//	stats       32 bytes    vertices-with-edges, total weight,
//	                        max degree (uint64 each) + reserved
//
// The sections live behind a section table whose file offset sits in
// the v2 header; every payload is 8-byte aligned and CRC32-guarded by
// its table entry, and the table itself is CRC-guarded by the header.
// Open fails closed (ErrChecksum / ErrTruncated / ErrInvalid) on any
// damaged section. The CRCs detect damage, not forgery: a file written
// with recomputed CRCs passes them, and then only the structural checks
// stand — section lengths, top-k offsets and neighbor IDs in range, and
// the degree column and every top-k row length (min(deg, k)) equal to
// what the CSR offsets say. Values those checks do not cover (strength,
// clustering, top-k weights, histogram, stats) are trusted as written.
// A table missing any of the six is ErrInvalid too: an Index is all or
// nothing. Files without a table
// (v1) report a nil Index, and netserve bakes one at load.

package gstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Section kinds in the v2 section table. All six are required; unknown
// kinds are skipped on read (forward compatibility); duplicates are
// rejected.
const (
	secDegree     = 1
	secStrength   = 2
	secClustering = 3
	secTopK       = 4
	secHistogram  = 5
	secStats      = 6
)

// DefaultTopK is the per-vertex strongest-neighbor count baked by
// WriteIndexed when IndexOptions.TopK is zero — sized to cover the
// default /v1/neighbors first page.
const DefaultTopK = 32

// maxSections bounds the section-table count field; anything larger is
// structurally absurd and rejected before allocation.
const maxSections = 64

// tableEntrySize is the fixed byte size of one section-table entry.
const tableEntrySize = 32

// IndexOptions configures index baking.
type IndexOptions struct {
	// TopK is the per-vertex strongest-neighbor count (default
	// DefaultTopK).
	TopK int
	// Workers shards both passes of the bake, the row pass (strength
	// and top-k) and the clustering pass (default
	// runtime.GOMAXPROCS(0)). The output does not depend on it.
	Workers int
}

func (o IndexOptions) withDefaults() IndexOptions {
	if o.TopK <= 0 {
		o.TopK = DefaultTopK
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// IndexStats is the precomputed global-stats section.
type IndexStats struct {
	VerticesWithEdges uint64
	TotalWeight       uint64
	MaxDegree         uint64
}

// Index is the full set of index sections: decoded (or mmap-aliased)
// from a snapshot by Open, or baked from a graph by BuildIndexData.
// All slices are immutable and safe for concurrent readers.
type Index struct {
	// Degrees[v] is v's neighbor count.
	Degrees []uint32
	// Strengths[v] is the sum of v's edge weights.
	Strengths []uint64
	// Clustering[v] is v's local clustering coefficient.
	Clustering []float64
	// TopK is the baked per-vertex neighbor budget k; TopKOff has
	// length V+1 and TopKPairs holds interleaved (id, weight) uint32
	// pairs, row v occupying pair slots [TopKOff[v], TopKOff[v+1]),
	// sorted weight-descending then ID-ascending.
	TopK      int
	TopKOff   []int64
	TopKPairs []uint32
	// Histogram[k] is the number of vertices with degree exactly k.
	Histogram []int64
	// Stats holds the precomputed global aggregates.
	Stats IndexStats
}

// Sections lists the index sections by name (for CLI display), or nil
// for a nil Index.
func (ix *Index) Sections() []string {
	if ix == nil {
		return nil
	}
	return []string{"degree", "strength", "clustering", fmt.Sprintf("topk(%d)", ix.TopK), "histogram", "stats"}
}

// TopKRow returns v's baked (id, weight) pairs, strongest first, still
// interleaved.
func (ix *Index) TopKRow(v uint32) []uint32 {
	return ix.TopKPairs[2*ix.TopKOff[v] : 2*ix.TopKOff[v+1]]
}

// ---------------------------------------------------------------------------
// Baking

// BuildIndexData computes every index section from g. The result is
// deterministic: independent of Workers, and byte-stable across runs —
// the -reindex upgrade of a v1 file is bit-identical to a natively
// indexed write of the same graph. It always counts g's triangles in
// full; a Publisher updates them from the previous generation instead,
// and BuildIndexData is the oracle its bytes are held to.
func BuildIndexData(g *graph.Graph, opts IndexOptions) *Index {
	opts = opts.withDefaults()
	return bakeIndex(g, opts, g.TriangleCounts(opts.Workers))
}

// bakeIndex computes every index section from g and its per-vertex
// triangle counts tri; opts must have its defaults applied.
func bakeIndex(g *graph.Graph, opts IndexOptions, tri []int64) *Index {
	n := g.NumVertices()
	d := &Index{
		Degrees:   make([]uint32, n),
		Strengths: make([]uint64, n),
		TopK:      opts.TopK,
		TopKOff:   make([]int64, n+1),
	}

	maxDeg := 0
	var totalPairs int64
	for v := 0; v < n; v++ {
		deg := g.Degree(uint32(v))
		d.Degrees[v] = uint32(deg)
		if deg > maxDeg {
			maxDeg = deg
		}
		cnt := deg
		if cnt > opts.TopK {
			cnt = opts.TopK
		}
		totalPairs += int64(cnt)
		d.TopKOff[v+1] = totalPairs
	}

	d.Histogram = make([]int64, maxDeg+1)
	if n == 0 {
		d.Histogram = []int64{}
	}
	var withEdges uint64
	for v := 0; v < n; v++ {
		d.Histogram[d.Degrees[v]]++
		if d.Degrees[v] > 0 {
			withEdges++
		}
	}

	// Strengths + top-k rows: the row pass, sharded over the workers in
	// blocks of rows taken off an atomic counter. A CSR row is sorted by
	// ID, so its top k in (weight descending, ID ascending) order is a
	// stable counting sort by weight: topKRow histograms the weights in a
	// small per-worker table, walks down from the largest weight to the
	// k-th, and places each kept neighbor in ID order. A row whose
	// largest weight does not fit the table becomes packed keys
	// ^w<<32 | id instead, whose ascending order is the same, selects its
	// k smallest keys and sorts only those. Either way a row's content
	// does not depend on which worker did it.
	d.TopKPairs = make([]uint32, 2*totalPairs)
	const block = 1024
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rs rowScratch
			for {
				lo := int(next.Add(block) - block)
				if lo >= n {
					return
				}
				for v := lo; v < min(lo+block, n); v++ {
					ids, wts := g.Neighbors(uint32(v))
					d.Strengths[v] = rs.topKRow(ids, wts, d.TopKPairs[2*d.TopKOff[v]:2*d.TopKOff[v+1]])
				}
			}
		}()
	}
	wg.Wait()

	d.Clustering = g.ClusteringFromTriangles(tri)
	d.Stats = IndexStats{
		VerticesWithEdges: withEdges,
		TotalWeight:       g.TotalWeight(),
		MaxDegree:         uint64(maxDeg),
	}
	return d
}

// countLimit bounds the weights the row pass sorts by counting: a row
// whose largest weight is countLimit or more takes the key sort.
const countLimit = 1024

// rowScratch is one row-pass worker's reusable state: the weight
// histogram, all zero between rows, and the key buffer of the sort.
type rowScratch struct {
	hist [countLimit]int
	keys []uint64
}

// topKRow fills out with the len(out)/2 strongest (id, weight) pairs of
// the ID-sorted row ids/wts, weight descending then ID ascending, and
// returns the row's strength.
func (rs *rowScratch) topKRow(ids, wts []uint32, out []uint32) uint64 {
	var s uint64
	var top uint32
	for _, w := range wts {
		s += uint64(w)
		top = max(top, w)
		if w < countLimit {
			rs.hist[w]++
		}
	}
	if top >= countLimit {
		rs.clear(wts, top)
		rs.keys = rs.keys[:0]
		for k, id := range ids {
			rs.keys = append(rs.keys, uint64(^wts[k])<<32|uint64(id))
		}
		keep := rs.keys[:len(out)/2]
		selectSmallest(rs.keys, len(keep))
		slices.Sort(keep)
		for k, key := range keep {
			out[2*k] = uint32(key)
			out[2*k+1] = ^uint32(key >> 32)
		}
		return s
	}
	if need := len(out) / 2; need > 0 {
		// Walk down from the largest weight, turning each count into the
		// first slot of its weight, until the k-th slot is reached: every
		// weight above cut is kept whole, and the first quota
		// neighbors of weight cut in ID order.
		cut, at := top, 0
		for {
			c := rs.hist[cut]
			if c == 0 { // a weight the row lacks keeps its zero
				cut--
				continue
			}
			rs.hist[cut] = at
			if at+c >= need {
				break
			}
			at += c
			cut--
		}
		quota := need - at
		for k, id := range ids {
			w := wts[k]
			if w < cut || w == cut && quota == 0 {
				continue
			}
			if w == cut {
				quota--
			}
			p := rs.hist[w]
			rs.hist[w] = p + 1
			out[2*p], out[2*p+1] = id, w
		}
	}
	rs.clear(wts, top)
	return s
}

// clear zeroes the histogram slots the row wts touched; top is the
// row's largest weight.
func (rs *rowScratch) clear(wts []uint32, top uint32) {
	if int(top) < min(len(wts), countLimit) {
		clear(rs.hist[:top+1])
		return
	}
	for _, w := range wts {
		if w < countLimit {
			rs.hist[w] = 0
		}
	}
}

// selectSmallest partially orders keys so that keys[:k] holds its k
// smallest elements, in no particular order: quickselect with a
// median-of-three pivot, finishing any range that partitions badly
// with a sort, so the worst case stays O(n log n).
func selectSmallest(keys []uint64, k int) {
	lo, hi := 0, len(keys)
	if k <= 0 || k >= hi {
		return
	}
	for budget := 2 * bits.Len(uint(hi)); hi-lo > 16; budget-- {
		if budget == 0 {
			slices.Sort(keys[lo:hi])
			return
		}
		// Median of three to keys[lo], then a Hoare partition around it.
		mid := lo + (hi-lo)/2
		if keys[mid] < keys[lo] {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi-1] < keys[lo] {
			keys[hi-1], keys[lo] = keys[lo], keys[hi-1]
		}
		if keys[hi-1] < keys[mid] {
			keys[hi-1], keys[mid] = keys[mid], keys[hi-1]
		}
		keys[lo], keys[mid] = keys[mid], keys[lo]
		pivot := keys[lo]
		i, j := lo+1, hi-1
		for {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i >= j {
				break
			}
			keys[i], keys[j] = keys[j], keys[i]
			i++
			j--
		}
		keys[lo], keys[j] = keys[j], keys[lo]
		// keys[lo:j] < pivot = keys[j] < keys[j+1:hi].
		switch {
		case j == k || j+1 == k:
			return
		case j < k:
			lo = j + 1
		default:
			hi = j
		}
	}
	slices.Sort(keys[lo:hi])
}

// ---------------------------------------------------------------------------
// Writing

// section is one table entry plus its payload, the little-endian bytes
// of one or more arrays written back to back.
type section struct {
	kind  uint32
	meta  uint32
	parts [][]byte
}

// align8 rounds n up to the next multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

// WriteIndexed serializes g plus freshly baked index sections as a
// version-2 snapshot. The output is deterministic; on a little-endian
// host every section is written from its array's own memory, with no
// encoded copy.
func WriteIndexed(w io.Writer, g *graph.Graph, opts IndexOptions) error {
	return writeIndexData(w, g, BuildIndexData(g, opts))
}

// WriteFileIndexed writes an indexed v2 snapshot atomically: the bytes
// go to a temporary file in the same directory, are fsynced, and are
// renamed over path — a concurrently reloading netserve never observes
// a half-written snapshot.
func WriteFileIndexed(path string, g *graph.Graph, opts IndexOptions) error {
	return writeFileIndexData(path, g, BuildIndexData(g, opts))
}

// writeFileIndexData writes g and its baked index d to path atomically.
func writeFileIndexData(path string, g *graph.Graph, d *Index) error {
	return writeFileWith(path, func(w io.Writer) error {
		return writeIndexData(w, g, d)
	})
}

// writeIndexData lays out the header, the three CSR sections, the
// section table and the 8-byte-aligned payloads, CRCs each section once
// over the bytes it is about to write, and writes each byte slice once.
func writeIndexData(w io.Writer, g *graph.Graph, d *Index) error {
	offsets, nbrs, weights := g.CSR()
	var stats [32]byte
	binary.LittleEndian.PutUint64(stats[0:8], d.Stats.VerticesWithEdges)
	binary.LittleEndian.PutUint64(stats[8:16], d.Stats.TotalWeight)
	binary.LittleEndian.PutUint64(stats[16:24], d.Stats.MaxDegree)
	sections := []section{
		{kind: secDegree, parts: [][]byte{leBytes(d.Degrees)}},
		{kind: secStrength, parts: [][]byte{leBytes(d.Strengths)}},
		{kind: secClustering, parts: [][]byte{leBytes(d.Clustering)}},
		{kind: secTopK, meta: uint32(d.TopK), parts: [][]byte{leBytes(d.TopKOff), leBytes(d.TopKPairs)}},
		{kind: secHistogram, parts: [][]byte{leBytes(d.Histogram)}},
		{kind: secStats, parts: [][]byte{stats[:]}},
	}

	// The CSR end is 8-aligned by construction (header 64 + (V+1)·8 +
	// H·4 + H·4); the table follows immediately, then the payloads, each
	// padded to 8 bytes.
	var hdr [headerSize]byte
	csr := [][]byte{leBytes(offsets), leBytes(nbrs), leBytes(weights)}
	table := make([]byte, 8+len(sections)*tableEntrySize)
	out := [][]byte{hdr[:], csr[0], csr[1], csr[2], table}
	tableOff := int64(headerSize + len(csr[0]) + len(csr[1]) + len(csr[2]))
	pos := tableOff + int64(len(table))
	var pad [8]byte
	binary.LittleEndian.PutUint32(table[0:4], uint32(len(sections)))
	for i, s := range sections {
		out = append(out, pad[:align8(pos)-pos])
		pos = align8(pos)
		var crc uint32
		var length int64
		for _, p := range s.parts {
			crc = crc32.Update(crc, crc32.IEEETable, p)
			length += int64(len(p))
			out = append(out, p)
		}
		e := table[8+i*tableEntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], s.kind)
		binary.LittleEndian.PutUint32(e[4:8], s.meta)
		binary.LittleEndian.PutUint64(e[8:16], uint64(pos))
		binary.LittleEndian.PutUint64(e[16:24], uint64(length))
		binary.LittleEndian.PutUint32(e[24:28], crc)
		pos += length
	}
	out = append(out, pad[:align8(pos)-pos]) // trailing alignment of the last payload
	pos = align8(pos)

	copy(hdr[0:6], Magic)
	binary.LittleEndian.PutUint16(hdr[6:8], Version2)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(offsets)-1))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(nbrs)))
	for i, b := range csr {
		binary.LittleEndian.PutUint32(hdr[24+4*i:], crc32.ChecksumIEEE(b))
	}
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(tableOff))
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(table))
	binary.LittleEndian.PutUint32(hdr[56:60], crc32.ChecksumIEEE(hdr[0:56]))

	for _, b := range out {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	mWrites.Inc()
	mWriteBytes.Add(pos)
	return nil
}

// ---------------------------------------------------------------------------
// Reading

// parseIndex validates and decodes the v2 section table and payloads,
// all six known sections or none, aliasing data by fromLE's rules, and
// checks the degree column and top-k row lengths against the CSR
// offsets csrOff. The returned error is always typed.
func parseIndex(data []byte, h header, csrOff []int64) (*Index, error) {
	size := int64(len(data))
	tableOff := int64(h.indexOff)
	if tableOff < 0 || tableOff%8 != 0 {
		return nil, fmt.Errorf("%w: misaligned section table offset %d", ErrInvalid, tableOff)
	}
	if tableOff+8 > size {
		return nil, fmt.Errorf("%w: section table at %d beyond %d bytes", ErrTruncated, tableOff, size)
	}
	count := binary.LittleEndian.Uint32(data[tableOff : tableOff+4])
	if count == 0 || count > maxSections {
		return nil, fmt.Errorf("%w: absurd section count %d", ErrInvalid, count)
	}
	tableLen := int64(8 + int(count)*tableEntrySize)
	if tableOff+tableLen > size {
		return nil, fmt.Errorf("%w: section table needs %d bytes, file ends at %d", ErrTruncated, tableLen, size)
	}
	table := data[tableOff : tableOff+tableLen]
	if got := crc32.ChecksumIEEE(table); got != h.indexCRC {
		return nil, fmt.Errorf("%w: section table crc %08x, stored %08x", ErrChecksum, got, h.indexCRC)
	}

	ix := &Index{}
	seen := make(map[uint32]bool, count)
	end := tableOff + tableLen
	numV := int64(h.vertices)
	for i := 0; i < int(count); i++ {
		e := table[8+i*tableEntrySize:]
		kind := binary.LittleEndian.Uint32(e[0:4])
		meta := binary.LittleEndian.Uint32(e[4:8])
		off := int64(binary.LittleEndian.Uint64(e[8:16]))
		length := int64(binary.LittleEndian.Uint64(e[16:24]))
		crc := binary.LittleEndian.Uint32(e[24:28])
		if off < 0 || length < 0 || off%8 != 0 {
			return nil, fmt.Errorf("%w: section %d misaligned (off %d len %d)", ErrInvalid, kind, off, length)
		}
		if off < tableOff+tableLen || off+length > size {
			return nil, fmt.Errorf("%w: section %d [%d,%d) outside file of %d bytes", ErrTruncated, kind, off, off+length, size)
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("%w: section %d crc %08x, stored %08x", ErrChecksum, kind, got, crc)
		}
		if e := align8(off + length); e > end {
			end = e
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section kind %d", ErrInvalid, kind)
		}
		seen[kind] = true

		switch kind {
		case secDegree:
			if length != numV*4 {
				return nil, fmt.Errorf("%w: degree section %d bytes, want %d", ErrInvalid, length, numV*4)
			}
			ix.Degrees = fromLE[uint32](payload)
		case secStrength:
			if length != numV*8 {
				return nil, fmt.Errorf("%w: strength section %d bytes, want %d", ErrInvalid, length, numV*8)
			}
			ix.Strengths = fromLE[uint64](payload)
		case secClustering:
			if length != numV*8 {
				return nil, fmt.Errorf("%w: clustering section %d bytes, want %d", ErrInvalid, length, numV*8)
			}
			ix.Clustering = fromLE[float64](payload)
		case secTopK:
			if length < (numV+1)*8 || (length-(numV+1)*8)%8 != 0 {
				return nil, fmt.Errorf("%w: topk section %d bytes for %d vertices", ErrInvalid, length, numV)
			}
			offsets := fromLE[int64](payload[:(numV+1)*8])
			pairs := fromLE[uint32](payload[(numV+1)*8:])
			entries := int64(len(pairs)) / 2
			if offsets[0] != 0 || offsets[numV] != entries {
				return nil, fmt.Errorf("%w: topk offsets span [%d,%d), want [0,%d)", ErrInvalid, offsets[0], offsets[numV], entries)
			}
			for p := int64(0); p < entries; p++ {
				if int64(pairs[2*p]) >= numV {
					return nil, fmt.Errorf("%w: topk neighbor %d ≥ %d vertices", ErrInvalid, pairs[2*p], numV)
				}
			}
			ix.TopK = int(meta)
			ix.TopKOff = offsets
			ix.TopKPairs = pairs
		case secHistogram:
			if length%8 != 0 || length/8 > numV+1 {
				return nil, fmt.Errorf("%w: histogram section %d bytes for %d vertices", ErrInvalid, length, numV)
			}
			ix.Histogram = fromLE[int64](payload)
		case secStats:
			if length != 32 {
				return nil, fmt.Errorf("%w: stats section %d bytes, want 32", ErrInvalid, length)
			}
			ix.Stats = IndexStats{
				VerticesWithEdges: binary.LittleEndian.Uint64(payload[0:8]),
				TotalWeight:       binary.LittleEndian.Uint64(payload[8:16]),
				MaxDegree:         binary.LittleEndian.Uint64(payload[16:24]),
			}
		default:
			// Unknown kind: skip (a newer writer added a section this
			// reader does not understand). Its bytes are still CRC- and
			// bounds-checked above.
		}
	}
	if end != size {
		return nil, fmt.Errorf("%w: %d trailing bytes after index sections", ErrInvalid, size-end)
	}
	for kind := uint32(secDegree); kind <= secStats; kind++ {
		if !seen[kind] {
			return nil, fmt.Errorf("%w: index section %d missing", ErrInvalid, kind)
		}
	}
	// The columns must describe the CSR they sit beside: a forged file
	// with recomputed CRCs passes every checksum.
	for v := int64(0); v < numV; v++ {
		deg := csrOff[v+1] - csrOff[v]
		if int64(ix.Degrees[v]) != deg {
			return nil, fmt.Errorf("%w: degree[%d] = %d, CSR row has %d", ErrInvalid, v, ix.Degrees[v], deg)
		}
		if cnt := ix.TopKOff[v+1] - ix.TopKOff[v]; cnt != min(deg, int64(ix.TopK)) {
			return nil, fmt.Errorf("%w: topk row %d has %d entries, want min(%d, k=%d)", ErrInvalid, v, cnt, deg, ix.TopK)
		}
	}
	return ix, nil
}
