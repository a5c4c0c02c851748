// Crash recovery for H5-lite files.
//
// A process that dies mid-run leaves its log file without the chunk
// index and footer that Writer.Close appends — under the original reader
// such a file is unreadable, losing a whole rank's worth of simulation
// history. Because every chunk is self-delimiting (a 12-byte header
// declaring its stored length, optionally followed by a CRC-32 trailer),
// the intact prefix of a crashed file can be rebuilt by scanning chunk
// headers from the end of the file header and validating each chunk:
// structurally (lengths, record accounting, fit within the file) and,
// when the file carries FlagCRC32 or FlagDeflate, byte-exactly
// (checksum / full decompression).
//
// Recover returns a Salvage describing the longest intact chunk prefix.
// From it callers can obtain a read-only Reader over the salvaged chunks
// or a Writer that truncates the torn tail and continues appending —
// the basis of eventlog.Resume.
package h5

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Salvage describes the intact chunk prefix of an H5-lite file, obtained
// by Recover. It is a plain description: the file is not modified until
// Resume is called.
type Salvage struct {
	path     string
	schema   Schema
	flags    uint16
	index    []chunkMeta
	end      int64 // file offset just past the last intact chunk
	size     int64 // size of the file as found on disk
	complete bool  // the file had a valid index and footer
}

// Schema returns the salvaged file's record schema.
func (s *Salvage) Schema() Schema { return s.schema }

// Flags returns the salvaged file's flag word.
func (s *Salvage) Flags() uint16 { return s.flags }

// Chunks returns the number of intact chunks.
func (s *Salvage) Chunks() int { return len(s.index) }

// Records returns the total record count across intact chunks.
func (s *Salvage) Records() uint64 {
	var n uint64
	for _, c := range s.index {
		n += uint64(c.records)
	}
	return n
}

// Complete reports whether the file was closed properly (valid footer);
// if true, no data was lost and Recover degenerated to a normal open.
func (s *Salvage) Complete() bool { return s.complete }

// End returns the file offset just past the last intact chunk. It is a
// durable cursor: passing it to RecoverFrom later re-scans only chunks
// appended after this Salvage was taken, making repeated tailing of a
// growing file O(new data) instead of O(file) per poll.
func (s *Salvage) End() int64 { return s.end }

// TruncatedBytes returns the number of torn tail bytes that will be
// discarded by Resume (zero for complete files, where only the index and
// footer follow the last chunk).
func (s *Salvage) TruncatedBytes() int64 {
	if s.complete {
		return 0
	}
	return s.size - s.end
}

// Reader opens a read-only view over the intact chunk prefix. It works
// whether or not the file has a footer; the caller must Close it.
func (s *Salvage) Reader() (*Reader, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	return &Reader{
		r:        f,
		closer:   f,
		schema:   s.schema,
		flags:    s.flags,
		index:    append([]chunkMeta(nil), s.index...),
		compress: s.flags&FlagDeflate != 0,
		crc:      s.flags&FlagCRC32 != 0,
	}, nil
}

// Resume truncates the file to its first keep intact chunks (discarding
// the torn tail and any stale index/footer) and returns a Writer
// positioned to append chunk keep+1 onward. Closing the returned Writer
// writes a fresh index and footer covering both the salvaged and the
// newly appended chunks. keep must be in [0, Chunks()].
func (s *Salvage) Resume(keep int) (*Writer, error) {
	if keep < 0 || keep > len(s.index) {
		return nil, fmt.Errorf("h5: resume keep %d out of range [0,%d]", keep, len(s.index))
	}
	end := s.dataStart()
	if keep > 0 {
		last := s.index[keep-1]
		end = int64(last.offset) + chunkStride(last.compLen, s.flags) - chunkHdrSize
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{
		w:        f,
		closer:   f,
		schema:   s.schema,
		flags:    s.flags,
		compress: s.flags&FlagDeflate != 0,
		crc:      s.flags&FlagCRC32 != 0,
		offset:   uint64(end),
		index:    append([]chunkMeta(nil), s.index[:keep]...),
	}, nil
}

// dataStart returns the offset of the first chunk (end of header).
func (s *Salvage) dataStart() int64 {
	if len(s.index) > 0 {
		return int64(s.index[0].offset) - chunkHdrSize
	}
	// Recompute from the schema: magic+version+flags+recordSize+ncols
	// plus the column table.
	off := int64(4 + 2 + 2 + 4 + 2)
	for _, c := range s.schema.Columns {
		off += 2 + int64(len(c))
	}
	return off
}

// Recover scans path and returns a Salvage over its longest intact chunk
// prefix. Files with a valid footer are accepted wholesale (their index
// is still bounds-validated); footer-less files — crashed or truncated —
// are scanned chunk by chunk. Recover never modifies the file.
func Recover(path string) (*Salvage, error) { return RecoverFrom(path, 0) }

// RecoverFrom is Recover restricted to the chunks at or after file
// offset pos, which must be a value previously returned by Salvage.End
// on the same file (or zero / any offset at or before the first chunk,
// which is Recover). It exists for tailing a file
// that is still being written: each poll revalidates only the newly
// appended chunks instead of re-checksumming the whole file.
//
// The returned Salvage's index covers only the new chunks, so Chunks
// and Records count new data and Reader reads just the new suffix.
// Such a partial Salvage is for reading and cursor advancement only —
// do not call Resume on it (Resume's index would be missing the chunks
// before pos).
func RecoverFrom(path string, pos int64) (*Salvage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()

	schema, flags, headerEnd, err := readHeader(f, size)
	if err != nil {
		return nil, err // unrecoverable: cannot even interpret records
	}
	if pos < headerEnd {
		pos = headerEnd
	}

	// Fast path: intact footer and valid index — keep only the suffix at
	// or after pos. chunkMeta offsets point at payloads, so the chunk
	// itself starts chunkHdrSize earlier.
	if r, err := NewReader(f, size); err == nil {
		idx := r.index
		for len(idx) > 0 && int64(idx[0].offset)-chunkHdrSize < pos {
			idx = idx[1:]
		}
		return &Salvage{
			path:     path,
			schema:   r.schema,
			flags:    r.flags,
			index:    append([]chunkMeta(nil), idx...),
			end:      endOfChunks(r.index, r.flags, headerEnd),
			size:     size,
			complete: true,
		}, nil
	}

	// Salvage scan restricted to the suffix starting at pos.
	index, end := scanChunks(f, size, pos, schema, flags)
	return &Salvage{
		path:   path,
		schema: schema,
		flags:  flags,
		index:  index,
		end:    end,
		size:   size,
	}, nil
}

// endOfChunks returns the offset just past the last chunk.
func endOfChunks(index []chunkMeta, flags uint16, headerEnd int64) int64 {
	if len(index) == 0 {
		return headerEnd
	}
	last := index[len(index)-1]
	return int64(last.offset) + chunkStride(last.compLen, flags) - chunkHdrSize
}

// scanChunks walks the chunk region from headerEnd, validating each
// self-delimiting chunk, and returns the longest intact prefix plus the
// offset just past it.
func scanChunks(r io.ReaderAt, size, headerEnd int64, schema Schema, flags uint16) ([]chunkMeta, int64) {
	le := binary.LittleEndian
	rs := uint32(schema.RecordSize)
	compress := flags&FlagDeflate != 0
	crc := flags&FlagCRC32 != 0

	var index []chunkMeta
	pos := headerEnd
	var hdr [chunkHdrSize]byte
	for {
		if pos+chunkHdrSize > size {
			break
		}
		if _, err := r.ReadAt(hdr[:], pos); err != nil {
			break
		}
		compLen := le.Uint32(hdr[0:4])
		rawLen := le.Uint32(hdr[4:8])
		records := le.Uint32(hdr[8:12])
		// Structural validation.
		if records == 0 || rawLen == 0 {
			break
		}
		if rawLen%rs != 0 || rawLen/rs != records {
			break
		}
		if !compress && compLen != rawLen {
			break
		}
		if compress && compLen == 0 {
			break
		}
		stride := chunkStride(compLen, flags)
		if pos+stride > size {
			break // torn tail: chunk declared longer than the file
		}
		// Content validation.
		stored := make([]byte, compLen)
		if _, err := r.ReadAt(stored, pos+chunkHdrSize); err != nil {
			break
		}
		if crc {
			var sum [crcSize]byte
			if _, err := r.ReadAt(sum[:], pos+chunkHdrSize+int64(compLen)); err != nil {
				break
			}
			if crc32.ChecksumIEEE(stored) != le.Uint32(sum[:]) {
				break
			}
		}
		if compress {
			// Fully decompress to prove integrity (cheap relative to a
			// recovery event; skippable only if the CRC already vouched
			// for the bytes, but the CRC covers the stored form, so
			// decompression is still the only proof of the raw length).
			fr := flate.NewReader(bytes.NewReader(stored))
			n, err := io.Copy(io.Discard, fr)
			fr.Close()
			if err != nil || n != int64(rawLen) {
				break
			}
		}
		index = append(index, chunkMeta{
			offset:  uint64(pos + chunkHdrSize),
			compLen: compLen,
			rawLen:  rawLen,
			records: records,
		})
		pos += stride
	}
	return index, pos
}
