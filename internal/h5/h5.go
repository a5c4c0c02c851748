// Package h5 implements "H5-lite", a minimal chunked binary container
// standing in for the serial HDF5 library the paper uses for log output.
//
// The format preserves the properties the paper relies on:
//
//   - Chunked writes: a full logger cache is appended as one chunk with a
//     single write call (fast write performance).
//   - Compact binary storage, optionally DEFLATE-compressed per chunk.
//   - Fast index-based reads: a chunk index written at the end of the file
//     allows random access to any chunk without scanning (helpful when
//     loading files later for analysis), as well as cheap sequential
//     iteration.
//   - Self-description: a fixed record size and column names are stored in
//     the header so analysis tools can interpret the records.
//
// File layout:
//
//	header : magic "H5LT" | version u16 | flags u16 | recordSize u32 |
//	         ncols u16 | {nameLen u16, name bytes} × ncols
//	chunks : {compLen u32 | rawLen u32 | records u32 | payload [| crc u32]} × nchunks
//	index  : {offset u64 | compLen u32 | rawLen u32 | records u32} × nchunks
//	footer : indexOffset u64 | nchunks u32 | magic "H5IX"
//
// The optional per-chunk crc u32 trailer (CRC-32/IEEE over the stored
// payload) is present when FlagCRC32 is set in the header flags; it
// protects long-running logs against silent corruption and lets the
// salvage scanner (Recover) distinguish intact chunks from torn tails in
// a crashed, footer-less file. Because every chunk is self-delimiting
// (12-byte header + declared payload length), a file whose process died
// before Close can be rebuilt from its longest intact chunk prefix.
//
// All integers are little-endian.
package h5

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Telemetry series for the storage layer. Chunk granularity (one count
// per WriteChunk/ReadChunk, i.e. per logger cache flush or index read)
// keeps the per-record hot paths free of telemetry.
var (
	mChunksWritten = telemetry.C("h5_chunks_written_total")
	mBytesWritten  = telemetry.C("h5_bytes_written_total")
	mChunksRead    = telemetry.C("h5_chunks_read_total")
	mBytesRead     = telemetry.C("h5_bytes_read_total")
)

const (
	headerMagic = "H5LT"
	footerMagic = "H5IX"
	version     = 1

	// FlagDeflate enables per-chunk DEFLATE compression.
	FlagDeflate uint16 = 1 << 0
	// FlagCRC32 appends a CRC-32/IEEE checksum trailer to every chunk.
	// Readers verify it on every chunk read; Recover uses it to validate
	// salvaged chunks. Files without the flag read exactly as before.
	FlagCRC32 uint16 = 1 << 1

	footerSize = 8 + 4 + 4
	// chunkHdrSize is the self-delimiting per-chunk header:
	// compLen u32 | rawLen u32 | records u32.
	chunkHdrSize = 12
	crcSize      = 4
)

// knownFlags is the mask of flags this implementation understands.
const knownFlags = FlagDeflate | FlagCRC32

// ErrCorrupt is returned when a file fails structural validation.
var ErrCorrupt = errors.New("h5: corrupt file")

// Crash-point names compiled into the writer, for chaos tests
// (see internal/faultinject).
const (
	CrashWriteChunk = "h5.writechunk"
	CrashClose      = "h5.close"
)

// chunkMeta is one index entry describing a stored chunk.
type chunkMeta struct {
	offset  uint64 // file offset of the chunk payload (after its header)
	compLen uint32 // stored payload length
	rawLen  uint32 // decompressed payload length
	records uint32 // number of fixed-size records in the chunk
}

// Schema describes the fixed-width records stored in a file.
type Schema struct {
	// RecordSize is the size in bytes of one record. Chunk payloads must
	// be a whole number of records.
	RecordSize int
	// Columns are human-readable column names, stored for
	// self-description (mirroring HDF5 dataset attributes).
	Columns []string
}

// Writer appends chunks to an H5-lite file.
type Writer struct {
	w        io.Writer
	closer   io.Closer
	schema   Schema
	flags    uint16
	compress bool
	crc      bool
	offset   uint64
	index    []chunkMeta
	closed   bool
	// scratch buffers reused across chunks
	comp bytes.Buffer
	out  []byte // one chunk's header, payload and CRC, written at once
}

// Create creates path and returns a Writer over it.
func Create(path string, schema Schema, flags uint16) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, schema, flags)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// NewWriter writes the header to w and returns a Writer. If w is also an
// io.Closer it is NOT closed by Writer.Close; use Create for that.
func NewWriter(w io.Writer, schema Schema, flags uint16) (*Writer, error) {
	if schema.RecordSize <= 0 {
		return nil, fmt.Errorf("h5: record size must be positive, got %d", schema.RecordSize)
	}
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("h5: unknown flags %#x", flags&^knownFlags)
	}
	hw := &Writer{
		w: w, schema: schema, flags: flags,
		compress: flags&FlagDeflate != 0,
		crc:      flags&FlagCRC32 != 0,
	}
	var hdr bytes.Buffer
	hdr.WriteString(headerMagic)
	le := binary.LittleEndian
	var u16 [2]byte
	var u32 [4]byte
	le.PutUint16(u16[:], version)
	hdr.Write(u16[:])
	le.PutUint16(u16[:], flags)
	hdr.Write(u16[:])
	le.PutUint32(u32[:], uint32(schema.RecordSize))
	hdr.Write(u32[:])
	if len(schema.Columns) > 0xffff {
		return nil, fmt.Errorf("h5: too many columns: %d", len(schema.Columns))
	}
	le.PutUint16(u16[:], uint16(len(schema.Columns)))
	hdr.Write(u16[:])
	for _, c := range schema.Columns {
		if len(c) > 0xffff {
			return nil, fmt.Errorf("h5: column name too long: %d bytes", len(c))
		}
		le.PutUint16(u16[:], uint16(len(c)))
		hdr.Write(u16[:])
		hdr.WriteString(c)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return nil, err
	}
	hw.offset = uint64(hdr.Len())
	return hw, nil
}

// Schema returns the schema the writer was created with.
func (w *Writer) Schema() Schema { return w.schema }

// Chunks returns the number of chunks written so far.
func (w *Writer) Chunks() int { return len(w.index) }

// WriteChunk appends one chunk containing len(payload)/RecordSize
// records. The payload length must be a positive multiple of RecordSize.
func (w *Writer) WriteChunk(payload []byte) error {
	if w.closed {
		return errors.New("h5: write on closed writer")
	}
	if err := faultinject.Hit(CrashWriteChunk); err != nil {
		return err
	}
	rs := w.schema.RecordSize
	if len(payload) == 0 || len(payload)%rs != 0 {
		return fmt.Errorf("h5: chunk payload %d bytes is not a positive multiple of record size %d", len(payload), rs)
	}
	records := uint32(len(payload) / rs)

	stored := payload
	if w.compress {
		w.comp.Reset()
		fw, err := flate.NewWriter(&w.comp, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(payload); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		stored = w.comp.Bytes()
	}

	// Header, payload and CRC go out in one Write: one syscall per
	// chunk on an unbuffered file.
	le := binary.LittleEndian
	out := le.AppendUint32(w.out[:0], uint32(len(stored)))
	out = le.AppendUint32(out, uint32(len(payload)))
	out = le.AppendUint32(out, records)
	out = append(out, stored...)
	if w.crc {
		out = le.AppendUint32(out, crc32.ChecksumIEEE(stored))
	}
	w.out = out
	if _, err := w.w.Write(out); err != nil {
		return err
	}
	stride := uint64(len(out))
	w.index = append(w.index, chunkMeta{
		offset:  w.offset + chunkHdrSize,
		compLen: uint32(len(stored)),
		rawLen:  uint32(len(payload)),
		records: records,
	})
	w.offset += stride
	mChunksWritten.Inc()
	mBytesWritten.Add(int64(stride))
	return nil
}

// Close writes the chunk index and footer. If the writer was opened with
// Create, the underlying file is closed too — also when writing the
// footer fails, in which case the first error is returned. Close is
// idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	err := w.writeFooter()
	if cerr := w.Abort(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the writer without writing the index or footer, leaving
// the file as a writer that died mid-run would: Recover salvages its
// chunks. If the writer was opened with Create, the underlying file is
// closed. Abort after Close (or Abort) does nothing.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.closer != nil {
		return w.closer.Close()
	}
	return nil
}

// writeFooter writes the chunk index and footer.
func (w *Writer) writeFooter() error {
	if err := faultinject.Hit(CrashClose); err != nil {
		return err
	}
	var buf bytes.Buffer
	le := binary.LittleEndian
	var u32 [4]byte
	var u64 [8]byte
	for _, c := range w.index {
		le.PutUint64(u64[:], c.offset)
		buf.Write(u64[:])
		le.PutUint32(u32[:], c.compLen)
		buf.Write(u32[:])
		le.PutUint32(u32[:], c.rawLen)
		buf.Write(u32[:])
		le.PutUint32(u32[:], c.records)
		buf.Write(u32[:])
	}
	le.PutUint64(u64[:], w.offset)
	buf.Write(u64[:])
	le.PutUint32(u32[:], uint32(len(w.index)))
	buf.Write(u32[:])
	buf.WriteString(footerMagic)
	_, err := w.w.Write(buf.Bytes())
	return err
}

// Reader provides indexed and sequential access to an H5-lite file.
//
// A Reader is not safe for concurrent use: on deflate files ReadChunk
// reuses the Reader's one inflater.
type Reader struct {
	r        io.ReaderAt
	closer   io.Closer
	schema   Schema
	flags    uint16
	index    []chunkMeta
	compress bool
	crc      bool

	// The inflater ReadChunk resets for every deflate chunk, made by the
	// first one: fr reads from stored.
	stored bytes.Reader
	fr     io.ReadCloser
}

// Open opens path for reading.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// readHeader parses the fixed header and column names, returning the
// schema, the flag word, and the file offset of the first chunk.
func readHeader(r io.ReaderAt, size int64) (Schema, uint16, int64, error) {
	le := binary.LittleEndian
	fixed := make([]byte, 4+2+2+4+2)
	if size < int64(len(fixed)) {
		return Schema{}, 0, 0, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return Schema{}, 0, 0, err
	}
	if string(fixed[0:4]) != headerMagic {
		return Schema{}, 0, 0, fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	if v := le.Uint16(fixed[4:6]); v != version {
		return Schema{}, 0, 0, fmt.Errorf("h5: unsupported version %d", v)
	}
	flags := le.Uint16(fixed[6:8])
	if flags&^knownFlags != 0 {
		return Schema{}, 0, 0, fmt.Errorf("h5: unknown flags %#x", flags&^knownFlags)
	}
	recordSize := le.Uint32(fixed[8:12])
	ncols := le.Uint16(fixed[12:14])
	if recordSize == 0 {
		return Schema{}, 0, 0, fmt.Errorf("%w: zero record size", ErrCorrupt)
	}
	cols := make([]string, 0, ncols)
	off := int64(len(fixed))
	var l2 [2]byte
	for i := 0; i < int(ncols); i++ {
		if off+2 > size {
			return Schema{}, 0, 0, fmt.Errorf("%w: truncated column table", ErrCorrupt)
		}
		if _, err := r.ReadAt(l2[:], off); err != nil {
			return Schema{}, 0, 0, err
		}
		n := int(le.Uint16(l2[:]))
		off += 2
		if off+int64(n) > size {
			return Schema{}, 0, 0, fmt.Errorf("%w: truncated column name %d", ErrCorrupt, i)
		}
		name := make([]byte, n)
		if _, err := r.ReadAt(name, off); err != nil {
			return Schema{}, 0, 0, err
		}
		off += int64(n)
		cols = append(cols, string(name))
	}
	return Schema{RecordSize: int(recordSize), Columns: cols}, flags, off, nil
}

// chunkStride returns the on-disk size of a chunk with the given stored
// payload length under the given flags.
func chunkStride(compLen uint32, flags uint16) int64 {
	s := int64(chunkHdrSize) + int64(compLen)
	if flags&FlagCRC32 != 0 {
		s += crcSize
	}
	return s
}

// validateIndex checks every index entry against the file geometry:
// chunk payloads must lie entirely between the end of the header and the
// start of the index, with no arithmetic overflow, and the record
// accounting must be internally consistent. It returns descriptive
// ErrCorrupt errors so hostile or damaged index entries never cause
// undefined behaviour (huge allocations, negative offsets, reads inside
// the header).
func validateIndex(index []chunkMeta, recordSize uint32, headerEnd, indexOffset int64, flags uint16) error {
	for i, c := range index {
		if c.offset > uint64(1)<<62 {
			return fmt.Errorf("%w: chunk %d offset %d overflows", ErrCorrupt, i, c.offset)
		}
		start := int64(c.offset) - chunkHdrSize
		if start < headerEnd {
			return fmt.Errorf("%w: chunk %d offset %d points before data section (header ends at %d)", ErrCorrupt, i, c.offset, headerEnd)
		}
		end := start + chunkStride(c.compLen, flags)
		if end > indexOffset {
			return fmt.Errorf("%w: chunk %d [%d,%d) overlaps index at %d", ErrCorrupt, i, start, end, indexOffset)
		}
		if c.records == 0 {
			return fmt.Errorf("%w: chunk %d has zero records", ErrCorrupt, i)
		}
		if c.rawLen%recordSize != 0 || c.rawLen/recordSize != c.records {
			return fmt.Errorf("%w: chunk %d record accounting (%d raw bytes, %d records, record size %d)", ErrCorrupt, i, c.rawLen, c.records, recordSize)
		}
		if flags&FlagDeflate == 0 && c.compLen != c.rawLen {
			return fmt.Errorf("%w: chunk %d stored length %d differs from raw length %d in uncompressed file", ErrCorrupt, i, c.compLen, c.rawLen)
		}
		if i > 0 && int64(c.offset) < int64(index[i-1].offset)+int64(index[i-1].compLen) {
			return fmt.Errorf("%w: chunk %d overlaps chunk %d", ErrCorrupt, i, i-1)
		}
	}
	return nil
}

// NewReader parses the header and index from r, which must contain a
// complete file of the given size.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(len(headerMagic))+footerSize {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	le := binary.LittleEndian

	// Footer.
	foot := make([]byte, footerSize)
	if _, err := r.ReadAt(foot, size-footerSize); err != nil {
		return nil, err
	}
	if string(foot[12:16]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	indexOffset := le.Uint64(foot[0:8])
	nchunks := le.Uint32(foot[8:12])
	indexBytes := int64(nchunks) * 20
	if indexOffset > uint64(1)<<62 {
		return nil, fmt.Errorf("%w: index offset %d overflows", ErrCorrupt, indexOffset)
	}
	if int64(indexOffset)+indexBytes+footerSize != size {
		return nil, fmt.Errorf("%w: index does not fit file size", ErrCorrupt)
	}

	// Header.
	schema, flags, headerEnd, err := readHeader(r, size)
	if err != nil {
		return nil, err
	}
	if int64(indexOffset) < headerEnd {
		return nil, fmt.Errorf("%w: index offset %d inside header (ends at %d)", ErrCorrupt, indexOffset, headerEnd)
	}

	// Index.
	idx := make([]byte, indexBytes)
	if _, err := r.ReadAt(idx, int64(indexOffset)); err != nil {
		return nil, err
	}
	index := make([]chunkMeta, nchunks)
	for i := range index {
		e := idx[i*20:]
		index[i] = chunkMeta{
			offset:  le.Uint64(e[0:8]),
			compLen: le.Uint32(e[8:12]),
			rawLen:  le.Uint32(e[12:16]),
			records: le.Uint32(e[16:20]),
		}
	}
	if err := validateIndex(index, uint32(schema.RecordSize), headerEnd, int64(indexOffset), flags); err != nil {
		return nil, err
	}

	return &Reader{
		r:        r,
		schema:   schema,
		flags:    flags,
		index:    index,
		compress: flags&FlagDeflate != 0,
		crc:      flags&FlagCRC32 != 0,
	}, nil
}

// Schema returns the file's record schema.
func (r *Reader) Schema() Schema { return r.schema }

// Flags returns the file's flag word.
func (r *Reader) Flags() uint16 { return r.flags }

// NumChunks returns the number of chunks in the file.
func (r *Reader) NumChunks() int { return len(r.index) }

// NumRecords returns the total number of records across all chunks.
func (r *Reader) NumRecords() uint64 {
	var n uint64
	for _, c := range r.index {
		n += uint64(c.records)
	}
	return n
}

// ChunkRecords returns the record count of chunk i.
func (r *Reader) ChunkRecords(i int) int { return int(r.index[i].records) }

// ReadChunk appends the decompressed payload of chunk i to dst and
// returns the extended slice — the index-based random access that
// motivated the paper's HDF5 choice. A caller that reads chunk after
// chunk passes its last payload's buffer as dst[:0] and allocates
// nothing once the buffer has grown to a chunk; a caller that keeps
// payloads passes nil. On deflate files the stored bytes are staged in
// dst's capacity past the payload, so one buffer serves both.
func (r *Reader) ReadChunk(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= len(r.index) {
		return nil, fmt.Errorf("h5: chunk %d out of range [0,%d)", i, len(r.index))
	}
	c := r.index[i]
	raw := 0 // room for the inflated payload ahead of the stored bytes
	if r.compress {
		raw = int(c.rawLen)
	}
	// The CRC trailer sits right after the payload: one read takes both.
	n := len(dst)
	need := raw + int(chunkStride(c.compLen, r.flags)-chunkHdrSize)
	dst = slices.Grow(dst, need)
	stored := dst[n+raw : n+need]
	if _, err := r.r.ReadAt(stored, int64(c.offset)); err != nil {
		return nil, err
	}
	stored, sum := stored[:c.compLen:c.compLen], stored[c.compLen:]
	if r.crc {
		if got, want := crc32.ChecksumIEEE(stored), binary.LittleEndian.Uint32(sum); got != want {
			return nil, fmt.Errorf("%w: chunk %d checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, i, want, got)
		}
	}
	mChunksRead.Inc()
	mBytesRead.Add(int64(c.compLen))
	if !r.compress {
		if c.compLen != c.rawLen {
			return nil, fmt.Errorf("%w: chunk %d length mismatch", ErrCorrupt, i)
		}
		return dst[:n+int(c.compLen)], nil
	}
	r.stored.Reset(stored)
	if r.fr == nil {
		r.fr = flate.NewReader(&r.stored)
	} else if err := r.fr.(flate.Resetter).Reset(&r.stored, nil); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r.fr, dst[n:n+raw]); err != nil {
		return nil, fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, i, err)
	}
	return dst[:n+raw], nil
}

// ForEachChunk invokes fn for every chunk payload in order, stopping and
// returning the first error. Every payload is fresh, so fn may keep it.
func (r *Reader) ForEachChunk(fn func(chunk int, payload []byte) error) error {
	for i := range r.index {
		p, err := r.ReadChunk(i, nil)
		if err != nil {
			return err
		}
		if err := fn(i, p); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the underlying file if the reader was created by Open.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}
