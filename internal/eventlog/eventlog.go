// Package eventlog implements the paper's parallel event-based logging
// framework (Section III).
//
// A log entry is recorded each time a person agent changes activities and
// contains the start and stop times of the activity plus unique IDs for
// the person, activity and place, all stored as 4-byte unsigned integers —
// 20 bytes per entry. Entries can be extended with additional integer
// columns (e.g. a disease state).
//
// One Logger is created per simulation process (rank); each logger caches
// entries in memory (nominal cache 10,000 entries) and writes the whole
// cache to its own H5-lite file in one chunked operation when the cache
// fills. This parallelizes logging across process CPUs, memory and disk
// I/O exactly as the paper describes: a smaller cache reduces memory but
// costs more write operations; a larger cache trades memory for fewer
// writes.
package eventlog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/h5"
	"repro/internal/telemetry"
)

// Telemetry series for the logging stage. Entries are counted at flush
// time (batch-sized adds), not per Log call, so the per-entry logging
// hot path carries zero telemetry cost.
var (
	mEntries      = telemetry.C("eventlog_entries_total")
	mFlushes      = telemetry.C("eventlog_flushes_total")
	mFlushBytes   = telemetry.C("eventlog_flush_bytes_total")
	mFlushSeconds = telemetry.H("eventlog_flush_seconds")
)

// CrashFlush is the crash-point name armed by chaos tests to kill a
// logger exactly at a cache flush (see internal/faultinject).
const CrashFlush = "eventlog.flush"

// BaseColumns are the five mandatory entry fields, in storage order.
var BaseColumns = []string{"start", "stop", "person", "activity", "place"}

// BaseEntrySize is the paper's 20-byte entry: five 4-byte unsigned ints.
const BaseEntrySize = 20

// DefaultCacheEntries is the paper's nominal in-memory cache size.
const DefaultCacheEntries = 10000

// Entry is one activity-change event: the person did the activity at the
// place during simulation time slots [Start, Stop).
type Entry struct {
	Start    uint32
	Stop     uint32
	Person   uint32
	Activity uint32
	Place    uint32
}

var le = binary.LittleEndian

// decodeEntry decodes the five base fields from the head of a record.
func decodeEntry(b []byte) Entry {
	return Entry{
		Start:    le.Uint32(b[0:4]),
		Stop:     le.Uint32(b[4:8]),
		Person:   le.Uint32(b[8:12]),
		Activity: le.Uint32(b[12:16]),
		Place:    le.Uint32(b[16:20]),
	}
}

// Config configures a Logger.
type Config struct {
	// CacheEntries is the number of entries buffered in memory before a
	// chunked flush to disk. Zero selects DefaultCacheEntries.
	CacheEntries int
	// ExtColumns names optional extra uint32 columns appended to every
	// entry (such as a disease state). May be empty.
	ExtColumns []string
	// Compress enables per-chunk DEFLATE in the output file.
	Compress bool
	// DisableChecksums turns off the per-chunk CRC32 trailers that are
	// written by default. Checksums cost 4 bytes per chunk and protect
	// long-running logs against silent corruption; they also let
	// Resume distinguish intact chunks from torn tails after a crash.
	DisableChecksums bool
}

func (c *Config) flags() uint16 {
	var flags uint16
	if c.Compress {
		flags |= h5.FlagDeflate
	}
	if !c.DisableChecksums {
		flags |= h5.FlagCRC32
	}
	return flags
}

func (c *Config) schema() h5.Schema {
	return h5.Schema{
		RecordSize: c.recordSize(),
		Columns:    append(append([]string{}, BaseColumns...), c.ExtColumns...),
	}
}

func (c *Config) cacheEntries() int {
	if c.CacheEntries <= 0 {
		return DefaultCacheEntries
	}
	return c.CacheEntries
}

func (c *Config) recordSize() int { return 4 * (5 + len(c.ExtColumns)) }

// Logger is a per-rank event logger. It is owned by a single simulation
// rank and is not safe for concurrent use, matching the paper's
// one-static-logger-per-process architecture.
type Logger struct {
	w       *h5.Writer
	cfg     Config
	rec     int // record size in bytes
	cache   []byte
	n       int // entries currently cached
	flushes int
	logged  uint64
}

// Create opens path and returns a Logger writing to it.
func Create(path string, cfg Config) (*Logger, error) {
	w, err := h5.Create(path, cfg.schema(), cfg.flags())
	if err != nil {
		return nil, err
	}
	return &Logger{
		w:     w,
		cfg:   cfg,
		rec:   cfg.recordSize(),
		cache: make([]byte, 0, cfg.cacheEntries()*cfg.recordSize()),
	}, nil
}

// Log records one entry with the configured extension values. The number
// of ext values must match Config.ExtColumns.
func (l *Logger) Log(e Entry, ext ...uint32) error {
	if len(ext) != len(l.cfg.ExtColumns) {
		return fmt.Errorf("eventlog: %d ext values for %d ext columns", len(ext), len(l.cfg.ExtColumns))
	}
	c := l.cache
	c = le.AppendUint32(c, e.Start)
	c = le.AppendUint32(c, e.Stop)
	c = le.AppendUint32(c, e.Person)
	c = le.AppendUint32(c, e.Activity)
	c = le.AppendUint32(c, e.Place)
	for _, v := range ext {
		c = le.AppendUint32(c, v)
	}
	l.cache = c
	l.n++
	l.logged++
	if l.n >= l.cfg.cacheEntries() {
		return l.Flush()
	}
	return nil
}

// Flush writes all cached entries to disk as one chunk. Flushing an empty
// cache is a no-op.
func (l *Logger) Flush() error {
	if l.n == 0 {
		return nil
	}
	if err := faultinject.Hit(CrashFlush); err != nil {
		return err
	}
	sw := telemetry.Clock()
	if err := l.w.WriteChunk(l.cache); err != nil {
		return err
	}
	sw.Observe(mFlushSeconds)
	mEntries.Add(int64(l.n))
	mFlushes.Inc()
	mFlushBytes.Add(int64(len(l.cache)))
	l.cache = l.cache[:0]
	l.n = 0
	l.flushes++
	return nil
}

// Close flushes remaining entries and finalizes the file. The file is
// closed however Close returns; when the final flush fails it gets no
// footer, as if the process had died there, and Resume salvages it.
func (l *Logger) Close() error {
	if err := l.Flush(); err != nil {
		l.w.Abort()
		return err
	}
	return l.w.Close()
}

// Flushes returns the number of disk write operations performed so far —
// the cost metric of the paper's cache-size tradeoff.
func (l *Logger) Flushes() int { return l.flushes }

// Logged returns the total number of entries logged so far.
func (l *Logger) Logged() uint64 { return l.logged }

// Reader reads a log file written by Logger.
type Reader struct {
	r    *h5.Reader
	next int // ext column count
}

// Open opens a log file for reading.
func Open(path string) (*Reader, error) {
	r, err := h5.Open(path)
	if err != nil {
		return nil, err
	}
	s := r.Schema()
	if s.RecordSize < BaseEntrySize || s.RecordSize%4 != 0 {
		r.Close()
		return nil, fmt.Errorf("eventlog: record size %d is not a valid entry size", s.RecordSize)
	}
	if len(s.Columns) < len(BaseColumns) {
		r.Close()
		return nil, fmt.Errorf("eventlog: file has %d columns, want at least %d", len(s.Columns), len(BaseColumns))
	}
	for i, c := range BaseColumns {
		if s.Columns[i] != c {
			r.Close()
			return nil, fmt.Errorf("eventlog: column %d is %q, want %q", i, s.Columns[i], c)
		}
	}
	return &Reader{r: r, next: s.RecordSize/4 - 5}, nil
}

// ExtColumns returns the names of the extension columns in the file.
func (r *Reader) ExtColumns() []string {
	return r.r.Schema().Columns[len(BaseColumns):]
}

// NumEntries returns the total entry count without reading chunk bodies.
func (r *Reader) NumEntries() uint64 { return r.r.NumRecords() }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.r.Close() }

// recordSize returns the byte size of one on-disk record.
func (r *Reader) recordSize() int { return 4 * (5 + r.next) }

// ForEach invokes fn for every entry in file order. ext holds the entry's
// extension values and is reused between calls; copy it to retain.
func (r *Reader) ForEach(fn func(e Entry, ext []uint32) error) error {
	rec := r.recordSize()
	ext := make([]uint32, r.next)
	return r.r.ForEachChunk(func(_ int, payload []byte) error {
		for off := 0; off < len(payload); off += rec {
			b := payload[off : off+rec]
			e := decodeEntry(b)
			for k := 0; k < r.next; k++ {
				ext[k] = le.Uint32(b[20+4*k:])
			}
			if err := fn(e, ext); err != nil {
				return err
			}
		}
		return nil
	})
}

// TimeSlice returns all entries whose activity interval overlaps
// [t0, t1), the sub-setting step the paper performs with data.table. The
// ext values of each returned entry are dropped; use ForEach for them.
//
// TimeSlice is a thin materializing wrapper over Source: it grows the
// result normally from streamed batches, so a narrow window over a huge
// file allocates proportionally to the matches, not to the file. (It
// previously pre-sized to NumEntries() regardless of the window.)
// Callers that can consume batch-wise should use Source directly.
func (r *Reader) TimeSlice(t0, t1 uint32) ([]Entry, error) {
	src := r.Source(t0, t1)
	defer src.Close()
	return ReadAll(src)
}
