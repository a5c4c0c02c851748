package core

import (
	"context"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/schedule"
	"repro/internal/sparse"
)

// openSources opens each closed log as an EntrySource over [t0, t1).
func openSources(t *testing.T, paths []string, t0, t1 uint32) []eventlog.EntrySource {
	t.Helper()
	srcs := make([]eventlog.EntrySource, len(paths))
	for i, p := range paths {
		s, err := eventlog.OpenSource(p, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = s
	}
	return srcs
}

// pairWeight returns the weight of edge (i, j) in the strict upper
// triangle, or 0 if absent.
func pairWeight(tri *sparse.Tri, i, j uint32) uint32 {
	for k := range tri.I {
		if tri.I[k] == i && tri.J[k] == j {
			return tri.W[k]
		}
	}
	return 0
}

// TestStreamWindowsBitIdenticalToBatch is the tentpole acceptance
// oracle: with decay 0 (independent windows), every window a stream
// emits over closed simulation logs must be bit-identical to an
// independent batch synthesis of the same window — across multiple
// window widths and worker counts.
func TestStreamWindowsBitIdenticalToBatch(t *testing.T) {
	paths := simLogs(t, 81, 400, 3, 2)
	t1 := uint32(2 * schedule.HoursPerDay)
	for _, window := range []uint32{12, 24} {
		for _, workers := range []int{1, 3} {
			var wins []WindowResult
			st, err := Stream(context.Background(), openSources(t, paths, 0, t1), StreamConfig{
				T0: 0, T1: t1, WindowHours: window,
				DecayNum: 0, DecayDen: 1,
				Synth: Config{Workers: workers},
				OnWindow: func(w WindowResult) error {
					wins = append(wins, w)
					return nil
				},
			})
			if err != nil {
				t.Fatalf("window %d workers %d: %v", window, workers, err)
			}
			if want := int(t1 / window); st.Windows != want {
				t.Fatalf("window %d workers %d: %d windows, want %d", window, workers, st.Windows, want)
			}
			for _, w := range wins {
				want, _, err := SynthesizeFiles(context.Background(), paths, w.W0, w.W1, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !w.Window.Equal(want) {
					t.Fatalf("window [%d,%d) workers %d: streamed window differs from batch synthesis",
						w.W0, w.W1, workers)
				}
				// Decay 0: the running network IS the window network.
				if !w.Net.Equal(want) {
					t.Fatalf("window [%d,%d): decay-0 running network differs from the window", w.W0, w.W1)
				}
			}
		}
	}
}

// TestStreamCumulativeBitIdenticalToBatch: with decay 1 (cumulative),
// the running network after window k must be bit-identical to one
// batch synthesis of the whole advanced range [0, w1_k).
func TestStreamCumulativeBitIdenticalToBatch(t *testing.T) {
	paths := simLogs(t, 83, 400, 2, 2)
	t1 := uint32(2 * schedule.HoursPerDay)
	for _, window := range []uint32{12, 24} {
		for _, workers := range []int{1, 3} {
			_, err := Stream(context.Background(), openSources(t, paths, 0, t1), StreamConfig{
				T0: 0, T1: t1, WindowHours: window,
				DecayNum: 1, DecayDen: 1,
				Synth: Config{Workers: workers},
				OnWindow: func(w WindowResult) error {
					want, _, err := SynthesizeFiles(context.Background(), paths, 0, w.W1, Config{Workers: workers})
					if err != nil {
						return err
					}
					if !w.Net.Equal(want) {
						t.Fatalf("window %d workers %d: cumulative network after [0,%d) differs from batch",
							window, workers, w.W1)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatalf("window %d workers %d: %v", window, workers, err)
			}
		}
	}
}

// TestDecaySingleWindowEqualsBatch is the satellite property: decay
// 1.0 with a single window spanning the whole slice is exactly the
// batch synthesis — same Tri, bit for bit.
func TestDecaySingleWindowEqualsBatch(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		entries := randomEntries(seed, 300)
		acc, err := newWindowAccumulator(1, 1, 1, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Ingest(0, entries); err != nil {
			t.Fatal(err)
		}
		win, _, err := acc.Advance(context.Background(), 0, 60)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := SynthesizeEntries(context.Background(), entries, 0, 60, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !win.Equal(want) {
			t.Fatalf("seed %d: single-window Advance differs from batch", seed)
		}
		if !acc.net.Equal(want) {
			t.Fatalf("seed %d: running network after one cumulative window differs from batch", seed)
		}
	}
}

// TestDecayHalfLifeGolden pins the fixed-point decay arithmetic across
// three windows with hand-computed weights: half-life decay is
// floor(w/2) per window, and pairs whose weight reaches zero are
// dropped from the running network entirely.
func TestDecayHalfLifeGolden(t *testing.T) {
	colo := func(p1, p2, place, start, stop uint32) []eventlog.Entry {
		return []eventlog.Entry{
			{Start: start, Stop: stop, Person: p1, Place: place},
			{Start: start, Stop: stop, Person: p2, Place: place},
		}
	}
	var entries []eventlog.Entry
	entries = append(entries, colo(1, 2, 7, 0, 4)...)   // window 0: weight 4
	entries = append(entries, colo(3, 4, 9, 2, 3)...)   // window 0: weight 1, then forgotten
	entries = append(entries, colo(1, 2, 7, 12, 17)...) // window 1: weight 5
	entries = append(entries, colo(1, 2, 7, 24, 27)...) // window 2: weight 3

	acc, err := newWindowAccumulator(1, 32768, 65536, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(0, entries); err != nil {
		t.Fatal(err)
	}

	steps := []struct{ w0, w1, win, run uint32 }{
		{0, 12, 4, 4},  // first window: no decay applied yet
		{12, 24, 5, 7}, // floor(4/2) + 5
		{24, 36, 3, 6}, // floor(7/2) + 3
	}
	for _, s := range steps {
		win, _, err := acc.Advance(context.Background(), s.w0, s.w1)
		if err != nil {
			t.Fatal(err)
		}
		if got := pairWeight(win, 1, 2); got != s.win {
			t.Fatalf("window [%d,%d): pair weight %d, want %d", s.w0, s.w1, got, s.win)
		}
		if got := pairWeight(acc.net, 1, 2); got != s.run {
			t.Fatalf("after [%d,%d): running weight %d, want %d", s.w0, s.w1, got, s.run)
		}
	}
	if got := pairWeight(acc.net, 3, 4); got != 0 {
		t.Fatalf("pair (3,4) should have decayed to zero, has weight %d", got)
	}
	if nnz := acc.net.NNZ(); nnz != 1 {
		t.Fatalf("running network has %d edges, want 1 (decayed pair dropped, not kept at 0)", nnz)
	}
	if acc.buffered != 0 {
		t.Fatalf("%d entries still buffered after their windows closed", acc.buffered)
	}
}

// TestStreamOpenEndStopsAfterData: T1 = StreamOpenEnd follows the
// sources to EOF and stops after the last window containing activity;
// the cumulative result still matches a batch synthesis of the covered
// range.
func TestStreamOpenEndStopsAfterData(t *testing.T) {
	dir := t.TempDir()
	entries := randomEntries(5, 400) // activity within [0, 60)
	half := len(entries) / 2
	paths := []string{
		writeEntriesLog(t, dir, "a.h5l", entries[:half]),
		writeEntriesLog(t, dir, "b.h5l", entries[half:]),
	}
	// randomEntries logs are not in nondecreasing-Stop order, so the
	// horizon close rule does not apply; EOF-only closing is exact for
	// any order (the same choice SynthesizeFiles makes).
	var last WindowResult
	st, err := Stream(context.Background(), openSources(t, paths, 0, StreamOpenEnd), StreamConfig{
		T0: 0, T1: StreamOpenEnd, WindowHours: 24, HorizonHours: HorizonEOF,
		Synth: Config{Workers: 2},
		OnWindow: func(w WindowResult) error {
			last = w
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 3 { // [0,24) [24,48) [48,72) cover Stop < 60, then data runs out
		t.Fatalf("open-ended stream emitted %d windows, want 3", st.Windows)
	}
	if last.W1 < st.MaxStop {
		t.Fatalf("last window ends at %d, before the last activity at %d", last.W1, st.MaxStop)
	}
	want, _, err := SynthesizeFiles(context.Background(), paths, 0, last.W1, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !last.Net.Equal(want) {
		t.Fatal("open-ended cumulative network differs from batch synthesis of the covered range")
	}
}

// TestStreamShortHorizonCountsLate: a horizon smaller than the true
// maximum activity span makes windows close early; the stream must
// still complete and account for every entry that missed its window.
func TestStreamShortHorizonCountsLate(t *testing.T) {
	paths := simLogs(t, 91, 300, 2, 1)
	t1 := uint32(schedule.HoursPerDay)
	st, err := Stream(context.Background(), openSources(t, paths, 0, t1), StreamConfig{
		T0: 0, T1: t1, WindowHours: 6, HorizonHours: 1,
		Synth: Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LateEntries == 0 {
		t.Fatal("horizon 1 with multi-hour activities should have produced late entries")
	}
	if st.Windows != 4 {
		t.Fatalf("%d windows, want 4", st.Windows)
	}
}

// TestAccumulatorLateIngestStillContributes: entries ingested after
// their window closed are counted late but still land in every later
// window they overlap.
func TestAccumulatorLateIngestStillContributes(t *testing.T) {
	acc, err := newWindowAccumulator(1, 1, 1, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := acc.Advance(context.Background(), 0, 12); err != nil {
		t.Fatal(err)
	}
	// Starts at hour 10 (before the frontier), runs through hour 15.
	late := []eventlog.Entry{
		{Start: 10, Stop: 15, Person: 1, Place: 3},
		{Start: 10, Stop: 15, Person: 2, Place: 3},
	}
	if err := acc.Ingest(0, late); err != nil {
		t.Fatal(err)
	}
	if acc.late != 2 {
		t.Fatalf("late count %d, want 2", acc.late)
	}
	win, _, err := acc.Advance(context.Background(), 12, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got := pairWeight(win, 1, 2); got != 3 { // [12,15) of the late overlap
		t.Fatalf("late entries contributed weight %d to [12,24), want 3", got)
	}
}

// TestAccumulatorValidation covers the constructor and state-machine
// guards.
func TestAccumulatorValidation(t *testing.T) {
	if _, err := newWindowAccumulator(0, 1, 1, Config{}); err == nil {
		t.Fatal("zero segments accepted")
	}
	if _, err := newWindowAccumulator(1, 1, 0, Config{}); err == nil {
		t.Fatal("zero decay denominator accepted")
	}
	if _, err := newWindowAccumulator(1, 3, 2, Config{}); err == nil {
		t.Fatal("amplifying decay accepted")
	}
	acc, err := newWindowAccumulator(2, 1, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(2, nil); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
	if _, _, err := acc.Advance(context.Background(), 5, 5); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, _, err := acc.Advance(context.Background(), 0, 12); err != nil {
		t.Fatal(err)
	}
	if _, _, err := acc.Advance(context.Background(), 6, 18); err == nil {
		t.Fatal("window regressing behind the frontier accepted")
	}
}

// TestStreamValidation covers the driver's input guards.
func TestStreamValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Stream(ctx, nil, StreamConfig{T0: 0, T1: 24, WindowHours: 24}); err == nil {
		t.Fatal("no sources accepted")
	}
	src := func() []eventlog.EntrySource {
		return []eventlog.EntrySource{eventlog.SliceSource(ctx, nil, 0, 24)}
	}
	if _, err := Stream(ctx, src(), StreamConfig{T0: 0, T1: 24}); err == nil {
		t.Fatal("zero window width accepted")
	}
	if _, err := Stream(ctx, src(), StreamConfig{T0: 24, T1: 24, WindowHours: 6}); err == nil {
		t.Fatal("empty range accepted")
	}
}
