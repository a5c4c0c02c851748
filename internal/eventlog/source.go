package eventlog

// This file defines EntrySource, the streaming interface between the
// logging layer and everything downstream (synthesis, tracing, series
// analysis). The paper's pipeline only scales to millions of agents
// because no stage ever materializes the whole event stream at once;
// EntrySource makes that property a first-class contract: consumers pull
// bounded batches, producers hold at most one decoded chunk in memory,
// and multi-file runs are streamed one file at a time.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/h5"
)

// EntrySource is a pull iterator over a stream of time-filtered log
// entries.
//
// Next returns the next non-empty batch of entries, or (nil, io.EOF)
// once the stream is exhausted. The returned slice is only valid until
// the following Next or Close call — implementations reuse the backing
// array — so consumers must copy any entries they retain. Batch sizes
// are implementation-defined but bounded (typically one log chunk), so
// a consumer that processes batch-by-batch holds O(chunk) memory no
// matter how large the underlying log set is.
//
// Close releases underlying resources and is idempotent. After Close,
// Next returns io.EOF.
type EntrySource interface {
	Next() ([]Entry, error)
	Close() error
}

// sliceBatch bounds the batch size of SliceSource so consumers see the
// same bounded-batch behaviour they would get from a file-backed source.
const sliceBatch = 8192

// sliceSource streams an in-memory entry slice.
type sliceSource struct {
	ctx     context.Context
	entries []Entry
	t0, t1  uint32
	pos     int
	buf     []Entry
	closed  bool
}

// SliceSource returns an EntrySource over in-memory entries, yielding
// only those whose activity interval overlaps [t0, t1). It adapts
// slice-of-everything callers to streaming consumers. Once ctx is done,
// Next returns an error wrapping ctx.Err() — the pipeline-wide
// cancellation contract (wrapped, never bare, so errors.Is works and
// the message says who was canceled).
func SliceSource(ctx context.Context, entries []Entry, t0, t1 uint32) EntrySource {
	return &sliceSource{ctx: ctx, entries: entries, t0: t0, t1: t1}
}

func (s *sliceSource) Next() ([]Entry, error) {
	if s.closed {
		return nil, io.EOF
	}
	if err := s.ctx.Err(); err != nil {
		return nil, fmt.Errorf("eventlog: slice source: %w", err)
	}
	s.buf = s.buf[:0]
	for s.pos < len(s.entries) {
		e := s.entries[s.pos]
		s.pos++
		if e.Start < s.t1 && e.Stop > s.t0 {
			s.buf = append(s.buf, e)
			if len(s.buf) >= sliceBatch {
				return s.buf, nil
			}
		}
	}
	if len(s.buf) > 0 {
		return s.buf, nil
	}
	return nil, io.EOF
}

func (s *sliceSource) Close() error {
	s.closed = true
	s.entries = nil
	s.buf = nil
	return nil
}

// chunkCursor decodes the chunks of an h5 reader in order into batches
// of the entries that overlap [t0, t1). It is the one decoder behind
// every file-backed source: peak memory is one chunk payload plus one
// decoded batch, independent of the file size.
type chunkCursor struct {
	rd     *h5.Reader
	t0, t1 uint32
	chunk  int // next chunk to decode
	buf    []Entry
}

// next returns the next non-empty batch, or io.EOF once rd's chunks are
// exhausted.
func (c *chunkCursor) next() ([]Entry, error) {
	rec := c.rd.Schema().RecordSize
	for c.chunk < c.rd.NumChunks() {
		payload, err := c.rd.ReadChunk(c.chunk)
		if err != nil {
			return nil, err
		}
		c.chunk++
		c.buf = c.buf[:0]
		for off := 0; off < len(payload); off += rec {
			e := decodeEntry(payload[off:])
			if e.Start < c.t1 && e.Stop > c.t0 {
				c.buf = append(c.buf, e)
			}
		}
		if len(c.buf) > 0 {
			return c.buf, nil
		}
	}
	return nil, io.EOF
}

// readerSource streams the time slice of one open log file.
type readerSource struct {
	chunkCursor
	closer io.Closer // the Reader, when the source owns it
	closed bool
}

// Source returns an EntrySource over the entries of r whose activity
// interval overlaps [t0, t1). The source reads chunk-by-chunk and does
// NOT close r; the caller remains responsible for the Reader. Multiple
// sequential sources may be taken from the same Reader.
func (r *Reader) Source(t0, t1 uint32) EntrySource {
	return &readerSource{chunkCursor: chunkCursor{rd: r.r, t0: t0, t1: t1}}
}

// OpenSource opens path and returns an EntrySource over its [t0, t1)
// slice. Closing the source closes the underlying file.
func OpenSource(path string, t0, t1 uint32) (EntrySource, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	return &readerSource{chunkCursor: chunkCursor{rd: r.r, t0: t0, t1: t1}, closer: r}, nil
}

func (s *readerSource) Next() ([]Entry, error) {
	if s.closed {
		return nil, io.EOF
	}
	return s.next()
}

func (s *readerSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.buf = nil
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// filesSource concatenates the slices of several log files, opening each
// file lazily so at most one file is open — and one chunk resident — at
// any time.
type filesSource struct {
	paths  []string
	t0, t1 uint32
	idx    int
	cur    EntrySource
	closed bool
}

// OpenFilesSource returns an EntrySource streaming the [t0, t1) slices
// of the given log files in order. Files are opened lazily one at a
// time, so the source's footprint is bounded by a single chunk
// regardless of how many files (or how large a run) it covers. Errors
// are annotated with the offending path.
func OpenFilesSource(paths []string, t0, t1 uint32) EntrySource {
	return &filesSource{paths: paths, t0: t0, t1: t1}
}

func (s *filesSource) Next() ([]Entry, error) {
	if s.closed {
		return nil, io.EOF
	}
	for {
		if s.cur == nil {
			if s.idx >= len(s.paths) {
				return nil, io.EOF
			}
			src, err := OpenSource(s.paths[s.idx], s.t0, s.t1)
			if err != nil {
				return nil, fmt.Errorf("eventlog: %s: %w", s.paths[s.idx], err)
			}
			s.cur = src
		}
		batch, err := s.cur.Next()
		if err == io.EOF {
			cerr := s.cur.Close()
			s.cur = nil
			s.idx++
			if cerr != nil {
				return nil, fmt.Errorf("eventlog: %s: %w", s.paths[s.idx-1], cerr)
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("eventlog: %s: %w", s.paths[s.idx], err)
		}
		return batch, nil
	}
}

func (s *filesSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}

// ReadAll drains src into a slice, growing it normally. It does not
// close src. Prefer batch-wise consumption via Next for bounded memory;
// ReadAll exists for callers that genuinely need the whole slice.
func ReadAll(src EntrySource) ([]Entry, error) {
	var out []Entry
	for {
		batch, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, batch...)
	}
}
