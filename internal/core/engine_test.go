package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Tests of what the one-engine collapse made reachable: the memory
// budget under multi-window streams over closed logs, cancellation, and
// the accounting Stream took over from the deleted file loops.

// scatteredEntries is randomEntries over `places` places, so a budget
// has several place-complete groups to cut.
func scatteredEntries(seed uint64, n, places int) []eventlog.Entry {
	r := rng.New(seed)
	entries := randomEntries(seed, n)
	for i := range entries {
		entries[i].Place = uint32(r.Intn(places))
	}
	return entries
}

// assertNoSpillFiles fails when anything is left under dir.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill dir not cleaned up: %d entries remain", len(left))
	}
}

// fileWindows streams [t0, t1) of the closed logs at paths in windows of
// `window` hours over one OpenFilesSource per log, closing windows only
// at EOF (exact for any entry order), and returns every window.
func fileWindows(ctx context.Context, paths []string, t0, t1, window uint32, num, den uint64, cfg Config) ([]WindowResult, error) {
	srcs := make([]eventlog.EntrySource, len(paths))
	for i, p := range paths {
		srcs[i] = eventlog.OpenFilesSource([]string{p}, t0, t1)
	}
	var wins []WindowResult
	_, err := Stream(ctx, srcs, StreamConfig{
		T0: t0, T1: t1, WindowHours: window, HorizonHours: HorizonEOF,
		DecayNum: num, DecayDen: den, Synth: cfg,
		OnWindow: func(w WindowResult) error {
			wins = append(wins, w)
			return nil
		},
	})
	return wins, err
}

// streamWindows is fileWindows over [0, t1), failing the test on error.
func streamWindows(t *testing.T, paths []string, t1, window uint32, num, den uint64, cfg Config) []WindowResult {
	t.Helper()
	wins, err := fileWindows(context.Background(), paths, 0, t1, window, num, den, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wins
}

// TestBudgetedStreamProperty: for random-order entries in 2–3 files,
// every budget × window width × decay must reproduce the unbudgeted
// stream window by window — the window's own network and the running
// one — report Shards exactly when something spilled, and leave the
// spill directory empty.
func TestBudgetedStreamProperty(t *testing.T) {
	const t1 = 60 // scatteredEntries stops before hour 60
	for seed := uint64(0); seed < 4; seed++ {
		dir := t.TempDir()
		entries := scatteredEntries(seed, 400, 40)
		files := 2 + int(seed%2)
		paths := make([]string, files)
		for f := range paths {
			lo, hi := len(entries)*f/files, len(entries)*(f+1)/files
			paths[f] = writeEntriesLog(t, dir, fmt.Sprintf("%d.h5l", f), entries[lo:hi])
		}
		for _, window := range []uint32{t1, 7, 24} {
			for _, decay := range [][2]uint64{{0, 1}, {1, 1}, {1, 2}} {
				want := streamWindows(t, paths, t1, window, decay[0], decay[1], Config{Workers: 2})
				for _, budget := range []int64{1, 512, 4 << 10, 1 << 20} {
					spillDir := t.TempDir()
					got := streamWindows(t, paths, t1, window, decay[0], decay[1],
						Config{Workers: 2, MemBudgetBytes: budget, SpillDir: spillDir})
					name := fmt.Sprintf("seed %d window %d decay %d/%d budget %d", seed, window, decay[0], decay[1], budget)
					if len(got) != len(want) {
						t.Fatalf("%s: %d windows, want %d", name, len(got), len(want))
					}
					spilled := false
					for i, w := range got {
						if !w.Window.Equal(want[i].Window) {
							t.Fatalf("%s: window [%d,%d) differs from the unbudgeted stream", name, w.W0, w.W1)
						}
						if !w.Net.Equal(want[i].Net) {
							t.Fatalf("%s: running network after [%d,%d) differs from the unbudgeted stream", name, w.W0, w.W1)
						}
						if w.Stats.Entries != want[i].Stats.Entries || w.Stats.Places != want[i].Stats.Places {
							t.Fatalf("%s: window [%d,%d) counts (%d entries, %d places), want (%d, %d)", name, w.W0, w.W1,
								w.Stats.Entries, w.Stats.Places, want[i].Stats.Entries, want[i].Stats.Places)
						}
						if (w.Stats.Shards > 0) != (w.Stats.SpilledBytes > 0) {
							t.Fatalf("%s: window [%d,%d) reports %d shards for %d spilled bytes",
								name, w.W0, w.W1, w.Stats.Shards, w.Stats.SpilledBytes)
						}
						spilled = spilled || w.Stats.Shards > 0
					}
					if spilled != (budget < 1<<20) {
						t.Fatalf("%s: spilled = %v", name, spilled)
					}
					assertNoSpillFiles(t, spillDir)
				}
			}
		}
	}
}

// TestSeriesHonoursMemBudget: a series of independent 12-hour windows
// over simulator logs must spill under a 1 KiB budget and come out the
// same as without one.
func TestSeriesHonoursMemBudget(t *testing.T) {
	paths := simLogs(t, 87, 400, 2, 2)
	want := streamWindows(t, paths, 48, 12, 0, 1, Config{Workers: 2})
	spillDir := t.TempDir()
	got := streamWindows(t, paths, 48, 12, 0, 1, Config{Workers: 2, MemBudgetBytes: 1 << 10, SpillDir: spillDir})
	if len(got) != len(want) || len(got) != 4 {
		t.Fatalf("%d budgeted windows, %d unbudgeted, want 4 each", len(got), len(want))
	}
	shards := 0
	for i := range got {
		if !got[i].Window.Equal(want[i].Window) {
			t.Fatalf("window %d differs under a budget", i)
		}
		shards += got[i].Stats.Shards
	}
	if shards == 0 {
		t.Fatal("windows under a 1 KiB budget never spilled")
	}
	assertNoSpillFiles(t, spillDir)
}

// TestSpilledEntrySpansThreeWindows: an entry spilled before its first
// window and carried over — through the spill tier again — between
// windows still contributes to every window it overlaps.
func TestSpilledEntrySpansThreeWindows(t *testing.T) {
	spillDir := t.TempDir()
	acc, err := newWindowAccumulator(1, 0, 1, Config{Workers: 1, MemBudgetBytes: 1, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	long := []eventlog.Entry{
		{Start: 2, Stop: 30, Person: 1, Place: 5},
		{Start: 2, Stop: 30, Person: 2, Place: 5},
		{Start: 3, Stop: 4, Person: 3, Place: 9}, // evicted after the first window
	}
	if err := acc.Ingest(0, long); err != nil {
		t.Fatal(err)
	}
	if acc.buffered != 0 {
		t.Fatalf("%d entries resident under a 1-byte budget", acc.buffered)
	}
	for _, s := range []struct{ w0, w1, weight uint32 }{{0, 12, 10}, {12, 24, 12}, {24, 36, 6}} {
		win, stats, err := acc.Advance(context.Background(), s.w0, s.w1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Shards == 0 {
			t.Fatalf("window [%d,%d) was not synthesized from spilled runs", s.w0, s.w1)
		}
		if got := pairWeight(win, 1, 2); got != s.weight {
			t.Fatalf("window [%d,%d): pair weight %d, want %d", s.w0, s.w1, got, s.weight)
		}
	}
	if win, stats, err := acc.Advance(context.Background(), 36, 48); err != nil || win.NNZ() != 0 || stats.Shards != 0 {
		t.Fatalf("window past the entry: %d edges, %d shards, err %v", win.NNZ(), stats.Shards, err)
	}
	if err := acc.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoSpillFiles(t, spillDir)
}

// probeSource wraps an EntrySource, counting what Stream pulls from it
// and optionally delaying or failing its reads.
type probeSource struct {
	eventlog.EntrySource
	delay   time.Duration
	failAt  int // fail the failAt-th Next (1-based); 0 never
	nexts   int
	entries int
	eofs    int
	closed  int
}

func (p *probeSource) Next() ([]eventlog.Entry, error) {
	p.nexts++
	time.Sleep(p.delay)
	if p.nexts == p.failAt {
		return nil, errors.New("probe: injected read failure")
	}
	batch, err := p.EntrySource.Next()
	p.entries += len(batch)
	if err == io.EOF {
		p.eofs++
	}
	return batch, err
}

func (p *probeSource) Close() error {
	p.closed++
	return p.EntrySource.Close()
}

func probeSources(t *testing.T, paths []string, t1 uint32) ([]eventlog.EntrySource, []*probeSource) {
	srcs := openSources(t, paths, 0, t1)
	probes := make([]*probeSource, len(srcs))
	for i, s := range srcs {
		probes[i] = &probeSource{EntrySource: s}
		srcs[i] = probes[i]
	}
	return srcs, probes
}

// TestStreamDrainsEachSourceOnce: under a budget every source is read
// to EOF exactly once per run — no count pass, no route pass — however
// many windows and spills the run takes.
func TestStreamDrainsEachSourceOnce(t *testing.T) {
	paths := simLogs(t, 89, 400, 3, 2)
	var logged int
	for _, p := range paths {
		r, err := eventlog.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		logged += int(r.NumEntries())
		r.Close()
	}
	for _, window := range []uint32{48, 12} {
		srcs, probes := probeSources(t, paths, 48)
		shards := 0
		st, err := Stream(context.Background(), srcs, StreamConfig{
			T0: 0, T1: 48, WindowHours: window,
			Synth: Config{Workers: 2, MemBudgetBytes: 2 << 10, SpillDir: t.TempDir()},
			OnWindow: func(w WindowResult) error {
				shards += w.Stats.Shards
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if shards == 0 {
			t.Fatalf("window %d: the budget never spilled", window)
		}
		pulled := 0
		for i, p := range probes {
			if p.eofs != 1 {
				t.Fatalf("window %d: source %d reached EOF %d times, want once", window, i, p.eofs)
			}
			if p.closed == 0 {
				t.Fatalf("window %d: source %d left open", window, i)
			}
			pulled += p.entries
		}
		if pulled != logged || st.Entries != uint64(logged) {
			t.Fatalf("window %d: pulled %d entries (stream counted %d), the logs hold %d", window, pulled, st.Entries, logged)
		}
	}
}

// TestStreamCancellationPerBatch: closed-log sources do not look at the
// context, so Stream has to — a pre-cancelled stream pulls nothing, and
// a pre-cancelled budgeted SynthesizeFiles returns the cancellation and
// leaves the spill directory empty.
func TestStreamCancellationPerBatch(t *testing.T) {
	paths := simLogs(t, 93, 300, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	srcs, probes := probeSources(t, paths, 24)
	if _, err := Stream(ctx, srcs, StreamConfig{T0: 0, T1: 24, WindowHours: 24}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Stream: err = %v, want context.Canceled", err)
	}
	for i, p := range probes {
		if p.nexts != 0 {
			t.Fatalf("pre-cancelled Stream pulled %d batches from source %d", p.nexts, i)
		}
	}

	spillDir := t.TempDir()
	_, _, err := SynthesizeFiles(ctx, paths, 0, 24, Config{MemBudgetBytes: 64, SpillDir: spillDir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled budgeted SynthesizeFiles: err = %v, want context.Canceled", err)
	}
	assertNoSpillFiles(t, spillDir)
}

// TestStreamFailurePathsLeaveNoSpillFiles: a source error and an
// OnWindow error both abort a stream that has already spilled; neither
// may leave run files behind.
func TestStreamFailurePathsLeaveNoSpillFiles(t *testing.T) {
	paths := simLogs(t, 95, 300, 2, 1)
	boom := errors.New("sink failed")
	for name, tc := range map[string]struct {
		failAt   int
		onWindow func(WindowResult) error
	}{
		"source error":   {failAt: 3},
		"OnWindow error": {onWindow: func(WindowResult) error { return boom }},
	} {
		spillDir := t.TempDir()
		srcs, probes := probeSources(t, paths, 24)
		probes[1].failAt = tc.failAt
		_, err := Stream(context.Background(), srcs, StreamConfig{
			T0: 0, T1: 24, WindowHours: 12, HorizonHours: HorizonEOF,
			Synth:    Config{Workers: 1, MemBudgetBytes: 256, SpillDir: spillDir},
			OnWindow: tc.onWindow,
		})
		if err == nil {
			t.Fatalf("%s: stream succeeded", name)
		}
		if tc.onWindow != nil && !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want the sink's error", name, err)
		}
		assertNoSpillFiles(t, spillDir)
	}
}

// TestLoadIncludesSourceReads: the wall of the log reads belongs to
// Stats.Load now that SynthesizeFiles no longer has a loop of its own
// to time them in: Stream charges them to the window they close into.
func TestLoadIncludesSourceReads(t *testing.T) {
	paths := simLogs(t, 97, 300, 2, 1)
	_, stats, err := SynthesizeFiles(context.Background(), paths, 0, 24, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Load <= 0 {
		t.Fatalf("SynthesizeFiles over real logs reports Load = %v", stats.Load)
	}

	const delay = 2 * time.Millisecond
	srcs, probes := probeSources(t, paths, 24)
	for _, p := range probes {
		p.delay = delay
	}
	var load time.Duration
	var win *sparse.Tri
	_, err = Stream(context.Background(), srcs, StreamConfig{
		T0: 0, T1: 24, WindowHours: 24, Synth: Config{Workers: 1},
		OnWindow: func(w WindowResult) error {
			load, win = w.Stats.Load, w.Window
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nexts := 0
	for _, p := range probes {
		nexts += p.nexts
	}
	if min := time.Duration(nexts) * delay; load < min {
		t.Fatalf("window Load = %v, but its %d source reads alone took at least %v", load, nexts, min)
	}
	if want, _, _ := SynthesizeFiles(context.Background(), paths, 0, 24, Config{Workers: 1}); !win.Equal(want) {
		t.Fatal("probed stream differs from SynthesizeFiles")
	}
}
