// Crash recovery for event logs.
//
// A rank killed mid-run (node failure, OOM kill, wall-clock limit)
// leaves its log without the chunk index that h5.Writer.Close writes.
// Resume reopens such a file via the h5 salvage scanner, truncates the
// torn tail, and returns a Logger that continues appending — so a killed
// simulation loses at most one cache-worth of entries (the paper's cache
// tradeoff, Sec. III, gains a durability axis: a larger cache now also
// means a larger crash-loss window).
//
// ResumeBefore additionally trims a suffix of recovered entries chosen
// by a predicate. Deterministic re-simulation uses it to cut the log at
// a simulation-hour boundary so the rerun can regenerate exactly the
// missing entries without duplicating the survivors (see abm.ResumeOn).
package eventlog

import (
	"fmt"

	"repro/internal/h5"
)

// ResumeInfo reports what Resume salvaged.
type ResumeInfo struct {
	// RecoveredEntries is the number of entries preserved in the
	// resumed log (including entries of a partially-kept chunk that
	// were re-staged into the cache).
	RecoveredEntries uint64
	// DroppedEntries counts intact entries removed by a ResumeBefore
	// predicate (zero for plain Resume).
	DroppedEntries uint64
	// Chunks is the number of intact chunks found on disk.
	Chunks int
	// Complete reports whether the file had a valid footer — i.e. the
	// previous run closed cleanly and nothing was lost.
	Complete bool
	// TruncatedBytes is the torn tail discarded by the salvage.
	TruncatedBytes int64
	// MaxStop is the largest Stop hour among recovered entries (zero
	// when none were recovered).
	MaxStop uint32
}

// Resume reopens a (possibly crashed) log file and returns a Logger that
// appends after the longest intact chunk prefix. The configuration must
// match the one the file was created with; mismatches are rejected
// rather than silently corrupting the record layout.
func Resume(path string, cfg Config) (*Logger, *ResumeInfo, error) {
	return resume(path, cfg, nil)
}

// ResumeBefore is Resume plus a boundary trim: the maximal suffix of
// recovered entries for which drop returns true is discarded before
// appending resumes. The log's entries must be ordered so that the
// entries to drop form a suffix (event logs are written in nondecreasing
// Stop order, so predicates of the form Stop >= M qualify).
func ResumeBefore(path string, cfg Config, drop func(e Entry, ext []uint32) bool) (*Logger, *ResumeInfo, error) {
	if drop == nil {
		return nil, nil, fmt.Errorf("eventlog: ResumeBefore requires a predicate")
	}
	return resume(path, cfg, drop)
}

// Inspect runs the salvage scan without modifying the file and reports
// what Resume would recover. MaxStop is the key output for computing a
// cross-rank resume boundary.
func Inspect(path string) (*ResumeInfo, error) {
	sc, err := scan(path, nil, nil)
	if err != nil {
		return nil, err
	}
	return &sc.info, nil
}

func resume(path string, cfg Config, drop func(Entry, []uint32) bool) (*Logger, *ResumeInfo, error) {
	sc, err := scan(path, &cfg, drop)
	if err != nil {
		return nil, nil, err
	}
	w, err := sc.sal.Resume(sc.keep)
	if err != nil {
		return nil, nil, err
	}
	rec := cfg.recordSize()
	l := &Logger{
		w:      w,
		cfg:    cfg,
		rec:    rec,
		cache:  make([]byte, 0, cfg.cacheEntries()*rec),
		logged: sc.info.RecoveredEntries - uint64(len(sc.restage)/rec),
	}
	// The boundary chunk's survivors are re-staged through the cache.
	for off := 0; off < len(sc.restage); off += rec {
		if err := l.commit(append(l.cache, sc.restage[off:off+rec]...)); err != nil {
			l.w.Close()
			return nil, nil, err
		}
	}
	return l, &sc.info, nil
}

// salvageScan is what one pass over a salvaged log's entries found.
type salvageScan struct {
	sal     *h5.Salvage
	info    ResumeInfo
	keep    int    // chunks kept whole
	restage []byte // the records of chunk keep before the cut
}

// scan salvages path and walks its intact entries once, finding the cut
// just past the last entry drop rejects (a nil drop keeps every entry).
// It holds at most two chunk payloads: the one being read and the one
// holding the last kept entry. When cfg is non-nil the log must have
// been written under it.
func scan(path string, cfg *Config, drop func(Entry, []uint32) bool) (*salvageScan, error) {
	sal, err := h5.Recover(path)
	if err != nil {
		return nil, err
	}
	if err := checkSchema(sal.Schema()); err != nil {
		return nil, err
	}
	if cfg != nil {
		if err := checkConfig(sal, cfg); err != nil {
			return nil, err
		}
	}
	rd, err := sal.Reader()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	sc := &salvageScan{sal: sal, info: ResumeInfo{
		Chunks:         sal.Chunks(),
		Complete:       sal.Complete(),
		TruncatedBytes: sal.TruncatedBytes(),
	}}
	var seen uint64
	var maxStop uint32
	last := -1 // chunk of the last kept entry
	err = forEach(rd, func(e Entry, ext []uint32, chunk int, head []byte) error {
		seen++
		maxStop = max(maxStop, e.Stop)
		if drop == nil || !drop(e, ext) {
			last, sc.restage = chunk, head
			sc.info.RecoveredEntries, sc.info.MaxStop = seen, maxStop
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("eventlog: salvage scan: %w", err)
	}
	sc.info.DroppedEntries = seen - sc.info.RecoveredEntries
	sc.keep = last
	if last < 0 || len(sc.restage) == rd.ChunkRecords(last)*sal.Schema().RecordSize {
		sc.keep, sc.restage = last+1, nil // the cut falls on a chunk boundary
	}
	return sc, nil
}

// checkConfig verifies a salvaged event log was written under cfg, so
// that appending to it keeps its record layout and flags.
func checkConfig(sal *h5.Salvage, cfg *Config) error {
	s, want := sal.Schema(), cfg.schema()
	if s.RecordSize != want.RecordSize {
		return fmt.Errorf("eventlog: resume config has record size %d, file has %d", want.RecordSize, s.RecordSize)
	}
	if len(s.Columns) != len(want.Columns) {
		return fmt.Errorf("eventlog: resume config has %d columns, file has %d", len(want.Columns), len(s.Columns))
	}
	for i := range want.Columns {
		if s.Columns[i] != want.Columns[i] {
			return fmt.Errorf("eventlog: resume column %d is %q, config says %q", i, s.Columns[i], want.Columns[i])
		}
	}
	if sal.Flags() != cfg.flags() {
		return fmt.Errorf("eventlog: resume config flags %#x, file flags %#x", cfg.flags(), sal.Flags())
	}
	return nil
}
