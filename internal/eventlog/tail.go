package eventlog

// Live tailing of event logs.
//
// A batch pipeline replays closed log files; a streaming pipeline must
// consume a log *while the simulation is still appending to it*. Tail
// turns a (possibly not-yet-existing) log path into an EntrySource that
// blocks in Next until new durable chunks appear, yields them, and
// returns io.EOF only once the writer has closed the file (valid
// footer). It reuses the crash-recovery machinery's chunk validation —
// every yielded chunk passed the same structural/CRC/deflate checks as
// a salvage scan — and h5.RecoverFrom's byte cursor so each poll costs
// O(new data), not O(file).
//
// Torn tails are safe by construction: the logger appends sequentially
// to an os.File, so the file size only covers fully-written bytes, and
// scanChunks refuses any chunk whose declared stride overruns the
// current size. A chunk mid-write is simply not yielded until its last
// byte (and CRC trailer, when enabled) is on disk; the next poll picks
// it up.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"repro/internal/h5"
	"repro/internal/telemetry"
)

// DefaultTailPoll is the poll interval used when TailOptions.Poll is
// zero.
const DefaultTailPoll = 200 * time.Millisecond

// mTailStalenessMs is the time since the polling tail last observed new
// durable bytes — the front end of the end-to-end freshness chain (log
// staleness → window close → publish → serve). Tails sharing a registry
// overwrite each other at poll cadence, so the gauge reads as "how
// stale is what the follower is currently waiting on": near the flush
// cadence when healthy, climbing monotonically when the writer stalls.
var mTailStalenessMs = telemetry.G("eventlog_tail_staleness_ms")

// TailOptions configures OpenTail.
type TailOptions struct {
	// Poll is the interval between growth checks while the tail is
	// waiting for the file to appear or to grow. Zero means
	// DefaultTailPoll.
	Poll time.Duration
}

// tailSource tails one growing log file.
type tailSource struct {
	ctx  context.Context
	path string
	poll time.Duration

	cur        chunkCursor // over the chunks the last poll validated (rd nil when drained)
	pos        int64       // h5 salvage byte cursor (Salvage.End)
	file       os.FileInfo // the file pos addresses, from the first successful poll
	done       bool        // writer closed the file (valid footer)
	closed     bool
	lastGrowth time.Time // when the cursor last advanced (staleness gauge)
}

// OpenTail returns an EntrySource that follows the log file at path as
// it is written, yielding entries whose activity interval overlaps
// [t0, t1). The file need not exist yet — the source waits for it.
// Next blocks (polling at opts.Poll) until a new durable chunk is
// available, the file gains a valid footer (then io.EOF after the last
// entries), or ctx is done (then an error wrapping ctx.Err()).
//
// Entries are yielded in chunk order, i.e. in the nondecreasing-Stop
// order the simulation logged them — the property window-close logic in
// the streaming synthesizer depends on.
func OpenTail(ctx context.Context, path string, t0, t1 uint32, opts TailOptions) EntrySource {
	poll := opts.Poll
	if poll <= 0 {
		poll = DefaultTailPoll
	}
	return &tailSource{ctx: ctx, path: path, poll: poll, cur: chunkCursor{t0: t0, t1: t1}}
}

func (s *tailSource) Next() ([]Entry, error) {
	if s.closed {
		return nil, io.EOF
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, fmt.Errorf("eventlog: tail %s: %w", s.path, err)
		}
		// Drain the reader over the chunks the last poll validated.
		if s.cur.rd != nil {
			batch, err := s.cur.next()
			if err != io.EOF {
				if err != nil {
					return nil, fmt.Errorf("eventlog: tail %s: %w", s.path, err)
				}
				return batch, nil
			}
			s.cur.rd.Close()
			s.cur.rd = nil
		}
		if s.done {
			s.closed = true
			return nil, io.EOF
		}
		// Poll for growth past the cursor. The stat follows the salvage,
		// so a file swapped in before the salvage opened it is caught.
		if s.lastGrowth.IsZero() {
			s.lastGrowth = time.Now()
		}
		sal, err := h5.RecoverFrom(s.path, s.pos)
		var st os.FileInfo
		if err == nil {
			st, err = os.Stat(s.path)
		}
		if err == nil && sal.End() > s.pos {
			s.lastGrowth = time.Now()
		}
		mTailStalenessMs.Set(time.Since(s.lastGrowth).Milliseconds())
		switch {
		case err == nil:
			if serr := s.sameFile(st); serr != nil {
				return nil, serr
			}
			if serr := checkSchema(sal.Schema()); serr != nil {
				return nil, fmt.Errorf("eventlog: tail %s: %w", s.path, serr)
			}
			s.done = sal.Complete()
			s.pos = sal.End()
			if sal.Chunks() > 0 {
				if s.cur.rd, err = sal.Reader(); err != nil {
					return nil, fmt.Errorf("eventlog: tail %s: %w", s.path, err)
				}
				s.cur.chunk = 0
				continue
			}
			if s.done {
				continue // footer appeared with no new chunks: EOF
			}
		case errors.Is(err, fs.ErrNotExist):
			// Not created yet; keep waiting.
		default:
			// The header is written in one shot at Create, so a header
			// that does not parse is an in-flight creation (or a crash
			// artifact about to be resumed) — transient either way.
		}
		select {
		case <-s.ctx.Done():
			return nil, fmt.Errorf("eventlog: tail %s: %w", s.path, s.ctx.Err())
		case <-time.After(s.poll):
		}
	}
}

// sameFile fails once the path names another file than the one the
// cursor was taken on, or that file has shrunk below the cursor (as
// chisim -resume trims a log): the cursor no longer addresses this
// log's continuation, and reading on would end in a clean but wrong
// EOF.
func (s *tailSource) sameFile(st os.FileInfo) error {
	if s.file == nil {
		s.file = st
	}
	switch {
	case !os.SameFile(s.file, st):
		return fmt.Errorf("eventlog: tail %s: file replaced under the tail at cursor %d (the new file has %d bytes)", s.path, s.pos, st.Size())
	case st.Size() < s.pos:
		return fmt.Errorf("eventlog: tail %s: file truncated to %d bytes, below the cursor %d", s.path, st.Size(), s.pos)
	}
	return nil
}

func (s *tailSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.cur.buf = nil
	if s.cur.rd != nil {
		err := s.cur.rd.Close()
		s.cur.rd = nil
		return err
	}
	return nil
}

// OpenTails returns one tailing EntrySource per path, all sharing ctx
// and opts. It is the multi-rank companion of OpenTail: one source per
// rank log of a running simulation.
func OpenTails(ctx context.Context, paths []string, t0, t1 uint32, opts TailOptions) []EntrySource {
	srcs := make([]EntrySource, len(paths))
	for i, p := range paths {
		srcs[i] = OpenTail(ctx, p, t0, t1, opts)
	}
	return srcs
}
