// Package gstore is the snapshot layer of the serving stack: a
// versioned, checksummed binary container for graph.Graph that loads a
// multi-gigabyte collocation network in milliseconds.
//
// # Format (version 1, read only)
//
// All integers are little-endian. The file is a fixed 64-byte header
// followed by the graph's three CSR sections, each 4-byte aligned (the
// offsets section is 8-byte aligned at byte 64):
//
//	[0:6]    magic "GSNAP\x00"
//	[6:8]    version uint16 (= 1)
//	[8:16]   numVertices uint64 (V)
//	[16:24]  numHalfEdges uint64 (H = 2·edges)
//	[24:28]  CRC32 (IEEE) of the offsets section
//	[28:32]  CRC32 of the neighbors section
//	[32:36]  CRC32 of the weights section
//	[36:40]  CRC32 of header bytes [0:36]
//	[40:64]  reserved (zero)
//	[64:]    offsets  (V+1)·8 bytes  int64
//	         nbrs     H·4 bytes      uint32
//	         weights  H·4 bytes      uint32
//
// The section layout matches graph.Graph's in-memory CSR arrays
// byte-for-byte on little-endian hardware, so Open can mmap the file
// and hand the mapped sections straight to graph.NewCSR — a zero-copy
// load. On big-endian hosts (and on platforms without mmap) Open falls
// back to a buffered read plus an explicit decode.
//
// # Format (version 2)
//
// Version 2 keeps the v1 header shape and CSR sections and appends the
// precomputed per-vertex index sections behind a CRC-guarded section
// table — see index.go for the layout and the fail-closed rules.
// WriteIndexed emits v2, the only format this package writes. Open
// still reads v1 files, reporting them with a nil Snapshot.Index;
// netserve -reindex upgrades them in place.
//
// # Fail-closed contract
//
// Open never publishes a partial Snapshot: every header field, every
// section checksum and the CSR structural invariants are verified
// before a Snapshot is returned, and each failure mode carries a typed
// sentinel (ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum,
// ErrInvalid) detectable with errors.Is. internal/netserve relies on
// this to keep serving the previous snapshot generation when a reload
// hits a corrupt file.
package gstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Telemetry series for the snapshot store.
var (
	mWrites       = telemetry.C("gstore_writes_total")
	mWriteBytes   = telemetry.C("gstore_write_bytes_total")
	mOpens        = telemetry.C("gstore_opens_total")
	mOpenFailures = telemetry.C("gstore_open_failures_total")
	mOpenSeconds  = telemetry.H("gstore_open_seconds")
)

// Magic is the 6-byte file signature; CLIs sniff it to distinguish
// .gsnap snapshots from TSV edge lists.
const Magic = "GSNAP\x00"

// Format versions. Version1 (CSR only, the original layout) is still
// read; WriteIndexed emits Version2 (CSR plus the precomputed index
// sections described in index.go). Open accepts both.
const (
	Version1 = 1
	Version2 = 2
)

// Version is the newest format version this package writes and reads.
const Version = Version2

// headerSize is the fixed header length in bytes.
const headerSize = 64

// Typed failure modes of Open/ReadSnapshot, detectable with errors.Is.
var (
	ErrBadMagic  = errors.New("gstore: not a snapshot (bad magic)")
	ErrVersion   = errors.New("gstore: unsupported snapshot version")
	ErrTruncated = errors.New("gstore: truncated snapshot")
	ErrChecksum  = errors.New("gstore: snapshot checksum mismatch")
	ErrInvalid   = errors.New("gstore: invalid snapshot structure")
)

// SniffMagic reports whether the byte prefix looks like a snapshot
// file. Any prefix of at least len(Magic) bytes is decisive.
func SniffMagic(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// ---------------------------------------------------------------------------
// Writing

// writeFileWith is the shared atomic-publish discipline: write to a
// temp file in the destination directory, fsync, rename over path.
func writeFileWith(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// encodeInt64s streams vs little-endian through sink in 64 KiB chunks.
func encodeInt64s(vs []int64, sink func([]byte) (int, error)) error {
	var buf [1 << 16]byte
	k := 0
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[k:], uint64(v))
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

// encodeUint32s streams vs little-endian through sink in 64 KiB chunks.
func encodeUint32s(vs []uint32, sink func([]byte) (int, error)) error {
	var buf [1 << 16]byte
	k := 0
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[k:], v)
		k += 4
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

// header is the decoded fixed header.
type header struct {
	version                uint16
	vertices, halfEdges    uint64
	crcOff, crcNbr, crcWts uint32
	indexOff               uint64 // v2: section-table offset (0 = no index)
	indexCRC               uint32 // v2: CRC32 of the section table
}

// parseHeader validates the fixed header (magic, version, header CRC)
// and the declared section geometry against the total file size.
//
// The two versions differ only in the reserved tail of the 64-byte
// header: v1 stores the header CRC (over bytes [0:36]) at [36:40]; v2
// stores the section-table offset at [36:44], the table CRC at
// [44:48], and the header CRC (over bytes [0:56]) at [56:60].
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %d bytes, need ≥ %d for the header", ErrTruncated, len(data), headerSize)
	}
	if !SniffMagic(data) {
		return h, ErrBadMagic
	}
	h.version = binary.LittleEndian.Uint16(data[6:8])
	switch h.version {
	case Version1:
		if got, want := crc32.ChecksumIEEE(data[0:36]), binary.LittleEndian.Uint32(data[36:40]); got != want {
			return h, fmt.Errorf("%w: header crc %08x, stored %08x", ErrChecksum, got, want)
		}
	case Version2:
		if got, want := crc32.ChecksumIEEE(data[0:56]), binary.LittleEndian.Uint32(data[56:60]); got != want {
			return h, fmt.Errorf("%w: header crc %08x, stored %08x", ErrChecksum, got, want)
		}
		h.indexOff = binary.LittleEndian.Uint64(data[36:44])
		h.indexCRC = binary.LittleEndian.Uint32(data[44:48])
	default:
		return h, fmt.Errorf("%w: version %d, support 1..%d", ErrVersion, h.version, Version)
	}
	h.vertices = binary.LittleEndian.Uint64(data[8:16])
	h.halfEdges = binary.LittleEndian.Uint64(data[16:24])
	h.crcOff = binary.LittleEndian.Uint32(data[24:28])
	h.crcNbr = binary.LittleEndian.Uint32(data[28:32])
	h.crcWts = binary.LittleEndian.Uint32(data[32:36])
	// Geometry, with overflow guards: both counts must be addressable.
	const maxCount = 1 << 56 // far beyond any file that fits on disk
	if h.vertices >= maxCount || h.halfEdges >= maxCount {
		return h, fmt.Errorf("%w: absurd counts V=%d H=%d", ErrInvalid, h.vertices, h.halfEdges)
	}
	csrEnd := headerSize + (h.vertices+1)*8 + h.halfEdges*8
	if uint64(len(data)) < csrEnd {
		return h, fmt.Errorf("%w: %d bytes, header declares %d", ErrTruncated, len(data), csrEnd)
	}
	if h.indexOff == 0 {
		// No index sections: the CSR sections must end the file exactly.
		if uint64(len(data)) != csrEnd {
			return h, fmt.Errorf("%w: %d trailing bytes after declared sections", ErrInvalid, uint64(len(data))-csrEnd)
		}
	} else if h.indexOff != csrEnd {
		// The section table sits immediately after the (8-aligned) CSR
		// sections; anything else is structural corruption.
		return h, fmt.Errorf("%w: section table at %d, CSR ends at %d", ErrInvalid, h.indexOff, csrEnd)
	}
	return h, nil
}

// parse decodes a whole snapshot image. When zeroCopy is true and the
// host is little-endian, the returned graph's CSR arrays (and any v2
// index sections) alias data; otherwise they are fresh decoded copies.
// The *Index is nil when the snapshot carries no index sections.
func parse(data []byte, zeroCopy bool) (*graph.Graph, *Index, uint16, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, nil, 0, err
	}
	offBytes := data[headerSize : headerSize+(h.vertices+1)*8]
	nbrBytes := data[headerSize+uint64(len(offBytes)) : headerSize+uint64(len(offBytes))+h.halfEdges*4]
	wtsBytes := data[headerSize+uint64(len(offBytes))+h.halfEdges*4 : headerSize+uint64(len(offBytes))+h.halfEdges*8]
	if got := crc32.ChecksumIEEE(offBytes); got != h.crcOff {
		return nil, nil, 0, fmt.Errorf("%w: offsets section crc %08x, stored %08x", ErrChecksum, got, h.crcOff)
	}
	if got := crc32.ChecksumIEEE(nbrBytes); got != h.crcNbr {
		return nil, nil, 0, fmt.Errorf("%w: neighbors section crc %08x, stored %08x", ErrChecksum, got, h.crcNbr)
	}
	if got := crc32.ChecksumIEEE(wtsBytes); got != h.crcWts {
		return nil, nil, 0, fmt.Errorf("%w: weights section crc %08x, stored %08x", ErrChecksum, got, h.crcWts)
	}

	var offsets []int64
	var nbrs, weights []uint32
	if zeroCopy && nativeLittleEndian {
		o, nb, wt := castInt64s(offBytes), castUint32s(nbrBytes), castUint32s(wtsBytes)
		if o != nil && nb != nil && wt != nil {
			offsets, nbrs, weights = o, nb, wt
		}
	}
	if offsets == nil { // big-endian host, misaligned image, or copy requested
		offsets = make([]int64, h.vertices+1)
		for i := range offsets {
			offsets[i] = int64(binary.LittleEndian.Uint64(offBytes[i*8:]))
		}
		nbrs = make([]uint32, h.halfEdges)
		for i := range nbrs {
			nbrs[i] = binary.LittleEndian.Uint32(nbrBytes[i*4:])
		}
		weights = make([]uint32, h.halfEdges)
		for i := range weights {
			weights[i] = binary.LittleEndian.Uint32(wtsBytes[i*4:])
		}
	}
	g, err := graph.NewCSR(offsets, nbrs, weights)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	var ix *Index
	if h.indexOff != 0 {
		ix, err = parseIndex(data, h, zeroCopy)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return g, ix, h.version, nil
}

// ReadSnapshot decodes a snapshot from r (buffered fully in memory)
// into a full Snapshot, including any index sections — the in-memory
// twin of Open, used by tests and tools that already hold the bytes.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	g, ix, ver, perr := parse(data, true)
	if perr != nil {
		return nil, perr
	}
	return &Snapshot{g: g, idx: ix, version: ver, size: int64(len(data))}, nil
}

// Snapshot is an opened snapshot: an immutable graph plus the resources
// (mmap region) backing it. Close releases the mapping — the Graph must
// not be used afterwards when Mapped reports true.
type Snapshot struct {
	g       *graph.Graph
	idx     *Index
	version uint16
	path    string
	size    int64
	mapped  bool
	unmap   func() error
}

// Graph returns the decoded graph. It is immutable and safe for
// concurrent readers.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Index returns the snapshot's precomputed index sections, or nil when
// the file carries none (every v1 file, and graphs loaded from TSV).
// Like Graph, it may alias the mmap region — invalid after Close.
func (s *Snapshot) Index() *Index { return s.idx }

// Version returns the snapshot file's format version, or 0 when the
// graph was not loaded from a snapshot file (a TSV edge list).
func (s *Snapshot) Version() int { return int(s.version) }

// Path returns the file the snapshot was loaded from.
func (s *Snapshot) Path() string { return s.path }

// SizeBytes returns the on-disk snapshot size (0 for TSV loads).
func (s *Snapshot) SizeBytes() int64 { return s.size }

// Mapped reports whether the graph aliases an mmap'd region.
func (s *Snapshot) Mapped() bool { return s.mapped }

// Close releases the snapshot's resources. It is idempotent.
func (s *Snapshot) Close() error {
	if s.unmap == nil {
		return nil
	}
	f := s.unmap
	s.unmap = nil
	return f()
}

// Open opens a snapshot file. On platforms with mmap support the
// sections are memory-mapped and handed to the graph zero-copy (the
// checksum pass touches every page once, priming the cache); elsewhere
// the file is read and decoded. Failures are typed — errors.Is against
// ErrBadMagic / ErrVersion / ErrTruncated / ErrChecksum / ErrInvalid —
// and never yield a partial Snapshot.
func Open(path string) (*Snapshot, error) {
	sw := telemetry.Clock()
	s, err := open(path)
	if err != nil {
		mOpenFailures.Inc()
		return nil, err
	}
	sw.Observe(mOpenSeconds)
	mOpens.Inc()
	return s, nil
}

func open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()

	if data, unmap, merr := mapFile(f, size); merr == nil {
		g, ix, ver, perr := parse(data, true)
		if perr != nil {
			unmap()
			return nil, perr
		}
		return &Snapshot{g: g, idx: ix, version: ver, path: path, size: size, mapped: true, unmap: unmap}, nil
	}

	// Fallback: buffered read (platforms without mmap, or mmap failure).
	data, err := io.ReadAll(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	g, ix, ver, perr := parse(data, true)
	if perr != nil {
		return nil, perr
	}
	return &Snapshot{g: g, idx: ix, version: ver, path: path, size: size}, nil
}

// LoadGraphFile opens either a .gsnap snapshot or a TSV edge list,
// sniffing the magic bytes — the input-format bridge for the analysis
// CLIs (egoviz, netstat, netserve). n is the vertex-space floor applied
// to TSV inputs (snapshots fix their own vertex space).
func LoadGraphFile(path string, n int) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	prefix := make([]byte, len(Magic))
	nr, _ := io.ReadFull(f, prefix)
	if SniffMagic(prefix[:nr]) {
		f.Close()
		return Open(path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	tri, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return &Snapshot{g: graph.FromTri(tri, n), path: path}, nil
}
