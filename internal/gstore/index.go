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
// damaged section — a hostile or bit-rotted snapshot can never yield
// wrong answers, only a typed refusal. A table missing any of the six
// is ErrInvalid too: an Index is all or nothing. Files without a table
// (v1) report a nil Index, and netserve bakes one at load.

package gstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
	// blocks of rows taken off an atomic counter. Each row becomes packed
	// keys ^w<<32 | id, whose ascending order is weight-descending then
	// ID-ascending; a row longer than k first selects its k smallest keys,
	// and only those are sorted. The keys are totally ordered, so a row's
	// content does not depend on which worker did it or on how the
	// selection partitioned it.
	d.TopKPairs = make([]uint32, 2*totalPairs)
	const block = 1024
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var keys []uint64
			for {
				lo := int(next.Add(block) - block)
				if lo >= n {
					return
				}
				for v := lo; v < min(lo+block, n); v++ {
					ids, wts := g.Neighbors(uint32(v))
					var s uint64
					keys = keys[:0]
					for k, id := range ids {
						s += uint64(wts[k])
						keys = append(keys, uint64(^wts[k])<<32|uint64(id))
					}
					d.Strengths[v] = s
					out := d.TopKPairs[2*d.TopKOff[v] : 2*d.TopKOff[v+1]]
					top := keys[:len(out)/2]
					selectSmallest(keys, len(top))
					slices.Sort(top)
					for k, key := range top {
						out[2*k] = uint32(key)
						out[2*k+1] = ^uint32(key >> 32)
					}
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

// section is one table entry plus its streaming payload encoder.
type section struct {
	kind   uint32
	meta   uint32
	length int64
	encode func(sink func([]byte) (int, error)) error
}

// align8 rounds n up to the next multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

// WriteIndexed serializes g plus freshly baked index sections as a
// version-2 snapshot. It streams in fixed-size chunks and the output
// is deterministic.
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

func writeIndexData(w io.Writer, g *graph.Graph, d *Index) error {
	offsets, nbrs, weights := g.CSR()
	numV := int64(len(offsets) - 1)

	sections := []section{
		{kind: secDegree, length: numV * 4,
			encode: func(sink func([]byte) (int, error)) error { return encodeUint32s(d.Degrees, sink) }},
		{kind: secStrength, length: numV * 8,
			encode: func(sink func([]byte) (int, error)) error { return encodeUint64s(d.Strengths, sink) }},
		{kind: secClustering, length: numV * 8,
			encode: func(sink func([]byte) (int, error)) error { return encodeFloat64s(d.Clustering, sink) }},
		{kind: secTopK, meta: uint32(d.TopK), length: (numV+1)*8 + int64(len(d.TopKPairs))*4,
			encode: func(sink func([]byte) (int, error)) error {
				if err := encodeInt64s(d.TopKOff, sink); err != nil {
					return err
				}
				return encodeUint32s(d.TopKPairs, sink)
			}},
		{kind: secHistogram, length: int64(len(d.Histogram)) * 8,
			encode: func(sink func([]byte) (int, error)) error { return encodeInt64s(d.Histogram, sink) }},
		{kind: secStats, length: 32,
			encode: func(sink func([]byte) (int, error)) error {
				var b [32]byte
				binary.LittleEndian.PutUint64(b[0:8], d.Stats.VerticesWithEdges)
				binary.LittleEndian.PutUint64(b[8:16], d.Stats.TotalWeight)
				binary.LittleEndian.PutUint64(b[16:24], d.Stats.MaxDegree)
				_, err := sink(b[:])
				return err
			}},
	}

	// Layout: CSR end is 8-aligned by construction (header 64 + (V+1)·8
	// + H·4 + H·4); the table follows immediately, then payloads, each
	// padded to 8 bytes.
	csrEnd := headerSize + (numV+1)*8 + int64(len(nbrs))*8
	tableOff := csrEnd
	tableLen := int64(8 + len(sections)*tableEntrySize)
	payloadOff := align8(tableOff + tableLen)
	offs := make([]int64, len(sections))
	for i := range sections {
		offs[i] = payloadOff
		payloadOff = align8(payloadOff + sections[i].length)
	}

	// Pass 1: checksums (CSR sections, each payload, then the table).
	crcOff := crc32.NewIEEE()
	if err := encodeInt64s(offsets, crcOff.Write); err != nil {
		return err
	}
	crcNbr := crc32.NewIEEE()
	if err := encodeUint32s(nbrs, crcNbr.Write); err != nil {
		return err
	}
	crcWts := crc32.NewIEEE()
	if err := encodeUint32s(weights, crcWts.Write); err != nil {
		return err
	}
	payloadCRC := make([]uint32, len(sections))
	for i := range sections {
		h := crc32.NewIEEE()
		if err := sections[i].encode(h.Write); err != nil {
			return err
		}
		payloadCRC[i] = h.Sum32()
	}
	table := make([]byte, tableLen)
	binary.LittleEndian.PutUint32(table[0:4], uint32(len(sections)))
	for i, s := range sections {
		e := table[8+i*tableEntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], s.kind)
		binary.LittleEndian.PutUint32(e[4:8], s.meta)
		binary.LittleEndian.PutUint64(e[8:16], uint64(offs[i]))
		binary.LittleEndian.PutUint64(e[16:24], uint64(s.length))
		binary.LittleEndian.PutUint32(e[24:28], payloadCRC[i])
	}

	var hdr [headerSize]byte
	copy(hdr[0:6], Magic)
	binary.LittleEndian.PutUint16(hdr[6:8], Version2)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(numV))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(nbrs)))
	binary.LittleEndian.PutUint32(hdr[24:28], crcOff.Sum32())
	binary.LittleEndian.PutUint32(hdr[28:32], crcNbr.Sum32())
	binary.LittleEndian.PutUint32(hdr[32:36], crcWts.Sum32())
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(tableOff))
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(table))
	binary.LittleEndian.PutUint32(hdr[56:60], crc32.ChecksumIEEE(hdr[0:56]))

	// Pass 2: stream everything out.
	bw := newCountingWriter(w)
	sink := bw.sink
	if _, err := sink(hdr[:]); err != nil {
		return err
	}
	if err := encodeInt64s(offsets, sink); err != nil {
		return err
	}
	if err := encodeUint32s(nbrs, sink); err != nil {
		return err
	}
	if err := encodeUint32s(weights, sink); err != nil {
		return err
	}
	if _, err := sink(table); err != nil {
		return err
	}
	var pad [8]byte
	for i := range sections {
		if gap := offs[i] - bw.n; gap > 0 {
			if _, err := sink(pad[:gap]); err != nil {
				return err
			}
		}
		if err := sections[i].encode(sink); err != nil {
			return err
		}
	}
	if gap := payloadOff - bw.n; gap > 0 { // trailing alignment of the last payload
		if _, err := sink(pad[:gap]); err != nil {
			return err
		}
	}
	if err := bw.flush(); err != nil {
		return err
	}
	mWrites.Inc()
	mWriteBytes.Add(payloadOff)
	return nil
}

// countingWriter is a buffered writer that tracks the absolute byte
// position, so the payload padding loop can close alignment gaps.
type countingWriter struct {
	bw *bufio.Writer
	n  int64
}

func newCountingWriter(w io.Writer) *countingWriter {
	return &countingWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

func (c *countingWriter) sink(p []byte) (int, error) {
	n, err := c.bw.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) flush() error { return c.bw.Flush() }

// ---------------------------------------------------------------------------
// Streaming encoders for the additional element types

// encodeUint64s streams vs little-endian through sink in 64 KiB chunks.
func encodeUint64s(vs []uint64, sink func([]byte) (int, error)) error {
	var buf [1 << 16]byte
	k := 0
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[k:], v)
		k += 8
		if k == len(buf) {
			if _, err := sink(buf[:k]); err != nil {
				return err
			}
			k = 0
		}
	}
	if k > 0 {
		if _, err := sink(buf[:k]); err != nil {
			return err
		}
	}
	return nil
}

// encodeFloat64s streams vs as little-endian IEEE-754 bits.
func encodeFloat64s(vs []float64, sink func([]byte) (int, error)) error {
	var buf [1 << 16]byte
	k := 0
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[k:], math.Float64bits(v))
		k += 8
		if k == len(buf) {
			if _, err := sink(buf[:k]); err != nil {
				return err
			}
			k = 0
		}
	}
	if k > 0 {
		if _, err := sink(buf[:k]); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reading

// parseIndex validates and decodes the v2 section table and payloads,
// all six known sections or none. zeroCopy aliasing follows the same
// rules as the CSR sections. The returned error is always typed.
func parseIndex(data []byte, h header, zeroCopy bool) (*Index, error) {
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
			ix.Degrees = decodeUint32s(payload, zeroCopy)
		case secStrength:
			if length != numV*8 {
				return nil, fmt.Errorf("%w: strength section %d bytes, want %d", ErrInvalid, length, numV*8)
			}
			ix.Strengths = decodeUint64s(payload, zeroCopy)
		case secClustering:
			if length != numV*8 {
				return nil, fmt.Errorf("%w: clustering section %d bytes, want %d", ErrInvalid, length, numV*8)
			}
			ix.Clustering = decodeFloat64s(payload, zeroCopy)
		case secTopK:
			if length < (numV+1)*8 || (length-(numV+1)*8)%8 != 0 {
				return nil, fmt.Errorf("%w: topk section %d bytes for %d vertices", ErrInvalid, length, numV)
			}
			offsets := decodeInt64s(payload[:(numV+1)*8], zeroCopy)
			pairs := decodeUint32s(payload[(numV+1)*8:], zeroCopy)
			entries := int64(len(pairs)) / 2
			if offsets[0] != 0 || offsets[numV] != entries {
				return nil, fmt.Errorf("%w: topk offsets span [%d,%d), want [0,%d)", ErrInvalid, offsets[0], offsets[numV], entries)
			}
			k := int64(meta)
			for v := int64(0); v < numV; v++ {
				cnt := offsets[v+1] - offsets[v]
				if cnt < 0 || cnt > k {
					return nil, fmt.Errorf("%w: topk row %d has %d entries (k=%d)", ErrInvalid, v, cnt, k)
				}
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
			ix.Histogram = decodeInt64s(payload, zeroCopy)
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
	return ix, nil
}

// decode helpers: alias when zero-copy is possible, else copy-decode.

func decodeUint32s(b []byte, zeroCopy bool) []uint32 {
	if zeroCopy && nativeLittleEndian {
		if s := castUint32s(b); s != nil {
			return s
		}
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func decodeInt64s(b []byte, zeroCopy bool) []int64 {
	if zeroCopy && nativeLittleEndian {
		if s := castInt64s(b); s != nil {
			return s
		}
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decodeUint64s(b []byte, zeroCopy bool) []uint64 {
	if zeroCopy && nativeLittleEndian {
		if s := castUint64s(b); s != nil {
			return s
		}
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func decodeFloat64s(b []byte, zeroCopy bool) []float64 {
	if zeroCopy && nativeLittleEndian {
		if s := castFloat64s(b); s != nil {
			return s
		}
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
