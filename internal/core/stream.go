package core

// Streaming synthesis — the package's one synthesis engine.
//
// Every file-based entry point (SynthesizeFiles, Pipeline.Stream,
// netsynth with and without -follow) is a client of Stream, the one
// exported piece of this file, and of the state machine it drives:
//
//   - windowAccumulator: the windowed state machine. Ingest buffers
//     entries per source segment (the per-file dedup domain), Advance
//     closes one time window — synthesizing the batch stages over the
//     buffered entries restricted to that window, then folding the
//     window network into an exponentially decaying running network,
//     which Stream hands to OnWindow as WindowResult.Net. Decay is
//     deterministic fixed-point arithmetic (floor(w·num/den) per
//     window), so decay 1 makes the running network after window k
//     bit-identical to a one-shot synthesis of [t0, w1_k), and decay 0
//     makes each window bit-identical to an independent synthesis of
//     that window.
//
//     The memory budget (Config.MemBudgetBytes) is a tier of the
//     accumulator, not a second engine: once the resident buffers
//     outgrow an eighth of the budget, each segment's buffer is written
//     out as one place-sorted run, and Advance merges the runs back in
//     place order, synthesizing place-complete groups of about that
//     size one at a time into the window's one set of pair buffers,
//     which one Reduce consumes. A slice that never outgrows its share
//     never touches the disk. Segments stay the dedup domain and a place
//     never straddles two groups, so the output is bit-identical for any
//     budget (see DESIGN.md §9).
//
//   - Stream: the driver. It pulls a set of EntrySources (closed files
//     or live eventlog.OpenTail tails), ingests batches, and closes
//     window [w0, w1) exactly when it is provably complete: either
//     every source has reported an entry with Stop ≥ w1 + horizon —
//     sound because event logs are written in nondecreasing Stop order
//     and no activity spans more than horizon hours — or every source
//     hit EOF, which is exact regardless of order or horizon. Entries
//     that can no longer contribute to any future window (Stop ≤ w1)
//     are evicted as windows close, so a stream's resident entry set is
//     bounded by the window+horizon span (and by the budget, when one
//     is set), not the log size.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/eventlog"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

var (
	mStreamWindows  = telemetry.C("stream_windows_total")
	mStreamLate     = telemetry.C("stream_late_entries_total")
	mStreamIngested = telemetry.C("stream_ingested_entries_total")
	mStreamBuffered = telemetry.G("stream_buffered_entries")
	mWindowSeconds  = telemetry.H("stream_window_seconds")
)

// windowAccumulator buffers entries per segment (segments are the
// per-file dedup domains, so streamed windows coalesce exactly like
// one-shot runs), synthesizes each closed window through the stage 1b–4
// kernels, and folds it into the running network with deterministic
// fixed-point exponential decay. Under a memory budget the buffers have
// a disk tier; see spill and drain.
type windowAccumulator struct {
	cfg                Config
	decayNum, decayDen uint64
	segs               []held      // resident entries per segment
	buffered           int         // resident entries across all segments
	net                *sparse.Tri // running decayed network; nil before the first Advance
	frontier           uint32      // end of the last advanced window
	late               uint64

	// The spill tier; groupBytes is zero without a budget and nothing
	// below is ever touched.
	groupBytes   int64         // resident bytes that trigger a spill, and the size of a merged-back group
	spillDir     string        // created by the first spill, removed by Close
	runs         []run         // spilled runs the next Advance merges back
	written      int           // runs written so far; names the next run file
	spilledBytes uint64        // run file bytes written since the last Advance
	spillWall    time.Duration // wall spent writing them
}

// run is one spilled run: a segment's resident entries at the moment of
// a spill, sorted by place. While Advance merges it back, src reads the
// file and rest is the unread remainder of its current chunk.
type run struct {
	path string
	seg  int
	src  eventlog.EntrySource
	rest []eventlog.Entry
}

// spillChunkEntries sizes the chunks of a run file. Small, because
// merging the runs back holds one chunk per run.
const spillChunkEntries = 256

// newWindowAccumulator returns a windowAccumulator over `segments`
// entry sources. The running network decays by floor(w·decayNum/
// decayDen) each Advance before the new window is added: num==den keeps
// the cumulative sum (bit-identical to a one-shot synthesis of the full
// advanced range), num==0 makes every window independent, and anything
// in between is an exponential half-life in window units. Weights that
// decay to zero are dropped from the running network (the pair is
// forgotten). decayNum > decayDen (amplification) is rejected.
//
// With cfg.MemBudgetBytes set the accumulator may create a spill
// directory; Close removes it.
func newWindowAccumulator(segments int, decayNum, decayDen uint64, cfg Config) (*windowAccumulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if segments <= 0 {
		return nil, fmt.Errorf("core: accumulator needs at least one segment, got %d", segments)
	}
	if decayDen == 0 {
		return nil, fmt.Errorf("core: decay denominator must be positive")
	}
	if decayNum > decayDen {
		return nil, fmt.Errorf("core: decay %d/%d would amplify weights", decayNum, decayDen)
	}
	a := &windowAccumulator{
		cfg:      cfg,
		decayNum: decayNum,
		decayDen: decayDen,
		segs:     make([]held, segments),
	}
	if cfg.MemBudgetBytes > 0 {
		// An eighth of the budget: a closing window holds a group, the
		// kernel's place keys for it (at most 16 B per entry, while they
		// sort) and the entries carried over to the next window at once,
		// besides whatever arrived since — at most half the budget. The
		// other half is for what rides on top: collocation bitsets,
		// clique compressions, raw pair entries, the merge's one chunk
		// per run, and the collector's slack.
		a.groupBytes = max(cfg.MemBudgetBytes/8, eventlog.BaseEntrySize)
	}
	return a, nil
}

// Close removes the spill directory, if a budget ever made the
// accumulator create one. The accumulator must not be used afterwards.
func (a *windowAccumulator) Close() error { return os.RemoveAll(a.spillDir) }

// Ingest buffers a batch of entries from segment seg. The batch is
// copied, honoring the EntrySource contract that batches are only valid
// until the next Next. Entries starting before the accumulator's
// frontier arrived too late for already-closed windows; they still
// contribute to every remaining window they overlap, and are counted in
// late (StreamStats.LateEntries, stream_late_entries_total) because the
// closed windows missed them.
func (a *windowAccumulator) Ingest(seg int, batch []eventlog.Entry) error {
	if seg < 0 || seg >= len(a.segs) {
		return fmt.Errorf("core: ingest into segment %d of %d", seg, len(a.segs))
	}
	for _, e := range batch {
		if e.Start < a.frontier {
			a.late++
			mStreamLate.Inc()
		}
	}
	mStreamIngested.Add(int64(len(batch)))
	return a.hold(seg, batch)
}

// hold appends copies of batches to segment seg's held entries — fresh
// from a source or carried over from a closed window alike — and, under
// a budget, spills the resident set once it outgrows its share.
func (a *windowAccumulator) hold(seg int, batches ...[]eventlog.Entry) error {
	for _, b := range batches {
		a.segs[seg].append(b)
		a.buffered += len(b)
	}
	mStreamBuffered.Set(int64(a.buffered))
	if a.groupBytes > 0 && int64(a.buffered)*eventlog.BaseEntrySize > a.groupBytes {
		return a.spill()
	}
	return nil
}

// spill writes every resident segment out as one place-sorted run and
// releases it.
func (a *windowAccumulator) spill() error {
	start := time.Now()
	if a.spillDir == "" {
		dir, err := os.MkdirTemp(a.cfg.SpillDir, "core-spill-*")
		if err != nil {
			return fmt.Errorf("core: spill dir: %w", err)
		}
		a.spillDir = dir
	}
	var size int64
	for seg := range a.segs {
		h := &a.segs[seg]
		if h.n == 0 {
			continue
		}
		path := filepath.Join(a.spillDir, fmt.Sprintf("run%06d.h5l", a.written))
		a.written++
		if err := writeRun(path, h); err != nil {
			return fmt.Errorf("core: spill run: %w", err)
		}
		if fi, err := os.Stat(path); err == nil {
			size += fi.Size()
		}
		a.runs = append(a.runs, run{path: path, seg: seg})
		*h = held{}
	}
	a.buffered = 0
	mStreamBuffered.Set(0)
	wall := time.Since(start)
	a.spilledBytes += uint64(size)
	a.spillWall += wall
	mSpillBytes.Add(size)
	mSpillSeconds.Observe(wall)
	return nil
}

// writeRun writes a segment's entries to a new run file at path in
// place order. Sorting place<<32|index keys instead of the 20-byte
// entries keeps the sort cheap and each place's entries in arrival
// order.
func writeRun(path string, h *held) error {
	keys := make([]uint64, 0, h.n)
	for k, b := range h.blocks {
		for i, e := range b {
			keys = append(keys, uint64(e.Place)<<32|uint64(k)<<heldShift|uint64(i))
		}
	}
	keys = sortPlaceKeys(keys, make([]uint64, len(keys)))
	w, err := eventlog.Create(path, eventlog.Config{CacheEntries: spillChunkEntries, DisableChecksums: true})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := w.Log(h.at(uint32(k))); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// drain hands fn everything buffered as place-complete groups, one at a
// time, with the accumulator's own buffers already emptied so that fn
// can hold entries over for the next window. With nothing spilled the
// resident buffers are the one group. Otherwise the resident tail
// becomes the last run and the runs are merged back in place order —
// each is place-sorted, so taking the smallest unread place from every
// run in turn yields that place's entries whole, per segment and in
// arrival order — cutting a group whenever groupBytes have gathered.
// Each gather is one synth/spill span, charged to agg.Spill.
func (a *windowAccumulator) drain(ctx context.Context, agg *Stats, fn func(group []held) error) error {
	if len(a.runs) > 0 {
		if err := a.spill(); err != nil {
			return err
		}
	}
	runs, group := a.runs, a.segs
	a.runs, a.segs, a.buffered = nil, make([]held, len(group)), 0
	agg.SpilledBytes, agg.Spill = a.spilledBytes, a.spillWall
	a.spilledBytes, a.spillWall = 0, 0
	if len(runs) == 0 {
		return fn(group)
	}

	// One span per gather; the first also covers opening the runs.
	_, sp := telemetry.StartSpan(ctx, "synth/spill")
	defer func() {
		sp.End()
		for _, r := range runs {
			if r.src != nil {
				r.src.Close()
			}
			os.Remove(r.path)
		}
	}()
	// refill loads r's next chunk, leaving rest empty at the run's end.
	refill := func(r *run) (err error) {
		if r.rest, err = pull(ctx, r.src); err == io.EOF {
			err = nil
		}
		return err
	}
	for i := range runs {
		r := &runs[i]
		var err error
		if r.src, err = eventlog.OpenSource(r.path, 0, ^uint32(0)); err == nil {
			err = refill(r)
		}
		if err != nil {
			return fmt.Errorf("core: spill run: %w", err)
		}
	}
	// next returns the smallest place any run has yet to deliver.
	next := func() (place uint32, live bool) {
		for _, r := range runs {
			if len(r.rest) > 0 && (!live || r.rest[0].Place < place) {
				place, live = r.rest[0].Place, true
			}
		}
		return place, live
	}
	for place, live := next(); live; {
		if sp == nil {
			_, sp = telemetry.StartSpan(ctx, "synth/spill")
		}
		var size int64
		for ; live && size < a.groupBytes; place, live = next() {
			for i := range runs {
				r := &runs[i]
				for len(r.rest) > 0 && r.rest[0].Place == place {
					n := 1
					for n < len(r.rest) && r.rest[n].Place == place {
						n++
					}
					group[r.seg].append(r.rest[:n])
					size += int64(n) * eventlog.BaseEntrySize
					if r.rest = r.rest[n:]; len(r.rest) == 0 {
						if err := refill(r); err != nil {
							return fmt.Errorf("core: spill run: %w", err)
						}
					}
				}
			}
		}
		sp.AddCount(1)
		sp.AddBytes(size)
		agg.Spill += sp.End()
		sp = nil
		agg.Shards++
		mShards.Inc()
		if err := fn(group); err != nil {
			return err
		}
		for seg := range group {
			group[seg].reset()
		}
	}
	return nil
}

// Advance closes the window [w0, w1): it synthesizes the buffered
// entries restricted to the window — group by group, per segment within
// a group, every batch appending to the window's one set of paged Gram
// buffers — and reduces the window with one sparse.Reduce over all
// their pages, so the result is bit-identical however the entries were
// grouped. It then folds the window into the decayed running network
// and holds over only the entries a later window can still overlap.
// Windows must advance monotonically: w0 ≥ the previous w1.
func (a *windowAccumulator) Advance(ctx context.Context, w0, w1 uint32) (*sparse.Tri, *Stats, error) {
	if w1 <= w0 {
		return nil, nil, fmt.Errorf("core: empty window [%d,%d)", w0, w1)
	}
	if w0 < a.frontier {
		return nil, nil, fmt.Errorf("core: window [%d,%d) starts before frontier %d", w0, w1, a.frontier)
	}
	sw := telemetry.Clock()
	agg := &Stats{SliceHours: int(w1 - w0)}
	// The buffers live for the window, not for one group: a group's
	// pages are filled up by the next group instead of each keeping a
	// mostly empty page of its own.
	bufs := make([]sparse.Pairs, a.cfg.workers())
	err := a.drain(ctx, agg, func(group []held) error {
		for seg := range group {
			if group[seg].n == 0 {
				continue
			}
			stats, err := synthesizeParts(ctx, &group[seg], w0, w1, a.cfg, bufs)
			if err != nil {
				return fmt.Errorf("core: window [%d,%d) segment %d: %w", w0, w1, seg, err)
			}
			agg.add(stats)
		}
		// Entries that stopped at or before w1 are dropped: no window
		// [w1, ∞) can overlap them. This eviction is what bounds a
		// stream's resident set by the window+horizon span. The group is
		// done with, so each block is filtered in place and the kept
		// entries are copied into the segment's fresh blocks.
		for seg := range group {
			blocks := group[seg].blocks
			for k, b := range blocks {
				kept := b[:0]
				for _, e := range b {
					if e.Stop > w1 {
						kept = append(kept, e)
					}
				}
				blocks[k] = kept
			}
			if err := a.hold(seg, blocks...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Groups partition the place set and weight summation commutes, so
	// one reduce over every group's pages equals the in-memory one.
	win := reduce(ctx, a.cfg.workers(), bufs, agg)

	// Fold into the running network: decay, then add. The fold is pure —
	// previously emitted networks are never mutated.
	switch {
	case a.net == nil || a.decayNum == 0:
		a.net = win
	case a.decayNum == a.decayDen:
		a.net = sparse.MergeTris(a.net, win)
	default:
		a.net = sparse.MergeTris(scaleTri(a.net, a.decayNum, a.decayDen), win)
	}
	a.frontier = w1
	mStreamWindows.Inc()
	sw.Observe(mWindowSeconds)
	return win, agg, nil
}

// scaleTri returns a new Tri with every weight scaled to
// floor(w·num/den), dropping pairs whose weight reaches zero. The input
// is not modified.
func scaleTri(t *sparse.Tri, num, den uint64) *sparse.Tri {
	out := &sparse.Tri{
		I: make([]uint32, 0, len(t.I)),
		J: make([]uint32, 0, len(t.J)),
		W: make([]uint32, 0, len(t.W)),
	}
	for k := range t.I {
		if w := uint32(uint64(t.W[k]) * num / den); w > 0 {
			out.I = append(out.I, t.I[k])
			out.J = append(out.J, t.J[k])
			out.W = append(out.W, w)
		}
	}
	return out
}

// DefaultStreamHorizon is the window-close horizon (in hours) used when
// StreamConfig.HorizonHours is zero. The synthetic-population schedule
// generator tiles each person's day with activities, so no single
// activity spans more than 24 hours — an entry overlapping window
// [w0, w1) therefore has Stop > w0 ≥ w1 − window and certainly
// Stop > w1 − 24… more usefully: once a source has logged an entry with
// Stop ≥ w1 + 24, every later entry of that source (logs are
// nondecreasing in Stop) has Start = Stop − span ≥ w1, so the window is
// complete.
const DefaultStreamHorizon = 24

// HorizonEOF disables horizon-based window closing: windows close only
// when every source reaches EOF. Exact for any entry order (no
// nondecreasing-Stop assumption), at the cost of buffering each
// source's full overlap of [T0, T1) before the first window closes.
const HorizonEOF = ^uint32(0)

// StreamOpenEnd as StreamConfig.T1 means "until every source ends":
// windows are emitted until the sources' data runs out rather than up
// to a fixed hour.
const StreamOpenEnd = ^uint32(0)

// StreamConfig configures a streaming synthesis run.
type StreamConfig struct {
	// T0, T1 bound the synthesized range in simulation hours. T1 =
	// StreamOpenEnd follows the sources until EOF and stops after the
	// last window containing data; a finite T1 emits every window of
	// [T0, T1), including trailing empty ones.
	T0, T1 uint32
	// WindowHours is the emission cadence: one network per window.
	WindowHours uint32
	// HorizonHours bounds the activity span assumed when deciding a
	// window is complete (see DefaultStreamHorizon); zero selects the
	// default, HorizonEOF closes windows only at source EOF.
	HorizonHours uint32
	// DecayNum/DecayDen set the per-window weight decay of the running
	// network: before each window is added it decays to
	// floor(w·DecayNum/DecayDen), so 1/1 keeps the cumulative sum, 0
	// makes every window independent, and anything in between is an
	// exponential half-life in window units; pairs that decay to zero
	// are forgotten. Both zero selects 1/1; DecayNum > DecayDen is
	// rejected.
	DecayNum, DecayDen uint64
	// Synth configures the per-window synthesis.
	Synth Config
	// OnWindow is called after each window closes, in window order, with
	// the window's own network, the running network, and the window's
	// synthesis stats. Returning an error aborts the stream with that
	// error. The Window and Net matrices are the callback's to retain.
	OnWindow func(WindowResult) error
}

// WindowResult is one closed window of a streaming synthesis.
type WindowResult struct {
	// Index is the zero-based window number.
	Index int
	// W0, W1 bound the closed window in simulation hours.
	W0, W1 uint32
	// Window is the network of this window alone.
	Window *sparse.Tri
	// Net is the running decayed network including this window.
	Net *sparse.Tri
	// Stats reports the window's synthesis stages.
	Stats *Stats
	// ClosedAt is the wall-clock instant the window closed (every
	// source had contributed past the horizon or ended), before the
	// window's synthesis ran. Publishers use it to measure end-to-end
	// close → durable freshness.
	ClosedAt time.Time
}

// StreamStats summarizes a completed streaming synthesis.
type StreamStats struct {
	// Windows is the number of windows emitted.
	Windows int
	// Entries is the total number of entries ingested.
	Entries uint64
	// LateEntries counts entries that arrived after their window closed
	// (nonzero only when HorizonHours underestimates the true maximum
	// activity span).
	LateEntries uint64
	// PeakBuffered is the high-water mark of resident buffered entries.
	PeakBuffered int
	// MaxStop is the largest Stop hour seen across all sources.
	MaxStop uint32
}

// pull is the one place a source's Next is called — log sources by
// Stream, spilled runs by the accumulator — so cancellation is observed
// once per pulled batch everywhere.
func pull(ctx context.Context, src eventlog.EntrySource) ([]eventlog.Entry, error) {
	if err := ctxErr(ctx, "stream"); err != nil {
		return nil, err
	}
	return src.Next()
}

// Stream drives a set of entry sources through a windowAccumulator,
// invoking cfg.OnWindow once per closed window. Sources may be closed
// files or live tails (eventlog.OpenTail); Stream closes every source
// before returning and leaves no spill files behind, however it
// returns. A window [w0, w1) closes when every source has either
// reported an entry with Stop ≥ w1 + horizon (sound for
// nondecreasing-Stop logs, which is how the simulator writes them) or
// reached EOF. The wall of the source reads is charged to the Load of
// the window they close into. Cancelling ctx aborts before the next
// batch is pulled — and, because a live tail's Next observes the same
// ctx, also while blocked waiting for simulation output — with an error
// wrapping context.Canceled.
func Stream(ctx context.Context, srcs []eventlog.EntrySource, cfg StreamConfig) (*StreamStats, error) {
	defer func() {
		for _, s := range srcs {
			s.Close()
		}
	}()
	if len(srcs) == 0 {
		return nil, fmt.Errorf("core: no entry sources given")
	}
	if cfg.T1 <= cfg.T0 {
		return nil, fmt.Errorf("core: empty stream range [%d,%d)", cfg.T0, cfg.T1)
	}
	if cfg.WindowHours == 0 {
		return nil, fmt.Errorf("core: WindowHours must be positive")
	}
	horizon := cfg.HorizonHours
	if horizon == 0 {
		horizon = DefaultStreamHorizon
	}
	num, den := cfg.DecayNum, cfg.DecayDen
	if num == 0 && den == 0 {
		num, den = 1, 1
	}
	acc, err := newWindowAccumulator(len(srcs), num, den, cfg.Synth)
	if err != nil {
		return nil, err
	}
	defer acc.Close()

	st := &StreamStats{}
	alive := make([]bool, len(srcs))
	maxStop := make([]uint32, len(srcs))
	live := len(srcs)
	for i := range alive {
		alive[i] = true
	}

	var load time.Duration // source reads since the last window closed
	lo := cfg.T0
	for lo < cfg.T1 {
		if live == 0 && cfg.T1 == StreamOpenEnd && st.MaxStop <= lo {
			break // open-ended stream: data ran out
		}
		hi := lo + cfg.WindowHours
		if hi > cfg.T1 || hi < lo { // clamp, incl. uint32 overflow
			hi = cfg.T1
		}
		closeAt := hi + horizon
		if closeAt < hi { // saturate
			closeAt = ^uint32(0)
		}
		// Pull every source until it can no longer contribute to
		// [lo, hi): it has logged past the horizon, or it ended.
		for si, src := range srcs {
			for alive[si] && (horizon == HorizonEOF || maxStop[si] < closeAt) {
				start := time.Now()
				batch, nerr := pull(ctx, src)
				load += time.Since(start)
				if nerr == io.EOF {
					alive[si] = false
					live--
					break
				}
				if nerr != nil {
					return st, fmt.Errorf("core: stream source %d: %w", si, nerr)
				}
				// Measured before Ingest, which may spill what it buffers.
				if b := acc.buffered + len(batch); b > st.PeakBuffered {
					st.PeakBuffered = b
				}
				if ierr := acc.Ingest(si, batch); ierr != nil {
					return st, ierr
				}
				st.Entries += uint64(len(batch))
				for _, e := range batch {
					if e.Stop > maxStop[si] {
						maxStop[si] = e.Stop
					}
				}
				if maxStop[si] > st.MaxStop {
					st.MaxStop = maxStop[si]
				}
			}
		}
		closedAt := time.Now()
		win, wstats, aerr := acc.Advance(ctx, lo, hi)
		if aerr != nil {
			return st, aerr
		}
		wstats.Load += load
		load = 0
		st.Windows++
		st.LateEntries = acc.late
		if cfg.OnWindow != nil {
			if cerr := cfg.OnWindow(WindowResult{
				Index:    st.Windows - 1,
				W0:       lo,
				W1:       hi,
				Window:   win,
				Net:      acc.net,
				Stats:    wstats,
				ClosedAt: closedAt,
			}); cerr != nil {
				return st, cerr
			}
		}
		lo = hi
	}
	return st, nil
}
