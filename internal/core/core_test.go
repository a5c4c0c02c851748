package core

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/abm"
	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/synthpop"
)

// bruteForce computes pair weights by simulating occupancy hour by hour.
func bruteForce(entries []eventlog.Entry, t0, t1 uint32) map[[2]uint32]uint32 {
	out := make(map[[2]uint32]uint32)
	for h := t0; h < t1; h++ {
		at := make(map[uint32][]uint32) // place -> persons (deduped)
		seen := make(map[[2]uint32]bool)
		for _, e := range entries {
			if e.Start <= h && h < e.Stop {
				k := [2]uint32{e.Place, e.Person}
				if !seen[k] {
					seen[k] = true
					at[e.Place] = append(at[e.Place], e.Person)
				}
			}
		}
		for _, persons := range at {
			for i := 0; i < len(persons); i++ {
				for j := i + 1; j < len(persons); j++ {
					a, b := persons[i], persons[j]
					if a > b {
						a, b = b, a
					}
					out[[2]uint32{a, b}]++
				}
			}
		}
	}
	return out
}

func randomEntries(seed uint64, n int) []eventlog.Entry {
	return randomTown(seed, n, 25, 8)
}

// randomTown draws n entries of up to 12 hours in the first 60 among
// the given numbers of persons and places.
func randomTown(seed uint64, n, persons, places int) []eventlog.Entry {
	r := rng.New(seed)
	entries := make([]eventlog.Entry, n)
	for i := range entries {
		start := uint32(r.Intn(48))
		entries[i] = eventlog.Entry{
			Start:    start,
			Stop:     start + 1 + uint32(r.Intn(12)),
			Person:   uint32(r.Intn(persons)),
			Activity: uint32(r.Intn(4)),
			Place:    uint32(r.Intn(places)),
		}
	}
	return entries
}

func TestSynthesizeMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		entries := randomEntries(seed, 120)
		tri, stats, err := SynthesizeEntries(context.Background(), entries, 0, 48, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(entries, 0, 48)
		if tri.NNZ() != len(want) {
			t.Fatalf("seed %d: %d edges, want %d", seed, tri.NNZ(), len(want))
		}
		for pair, w := range want {
			if got := tri.Weight(pair[0], pair[1]); got != w {
				t.Fatalf("seed %d: weight(%d,%d) = %d, want %d", seed, pair[0], pair[1], got, w)
			}
		}
		if stats.Entries != len(entries) {
			t.Fatalf("stats.Entries = %d", stats.Entries)
		}
	}
}

func TestSliceClipping(t *testing.T) {
	// One pair collocated over hours 0..10; slicing [4,8) must count 4.
	entries := []eventlog.Entry{
		{Start: 0, Stop: 10, Person: 1, Place: 7},
		{Start: 0, Stop: 10, Person: 2, Place: 7},
	}
	tri, _, err := SynthesizeEntries(context.Background(), entries, 4, 8, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tri.Weight(1, 2); got != 4 {
		t.Fatalf("clipped weight = %d, want 4", got)
	}
}

func TestEntriesOutsideSliceIgnored(t *testing.T) {
	entries := []eventlog.Entry{
		{Start: 0, Stop: 5, Person: 1, Place: 7},
		{Start: 0, Stop: 5, Person: 2, Place: 7},
		{Start: 10, Stop: 20, Person: 3, Place: 7},
	}
	tri, stats, err := SynthesizeEntries(context.Background(), entries, 10, 20, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tri.NNZ() != 0 {
		t.Fatalf("edges from outside slice: %d", tri.NNZ())
	}
	if stats.Entries != 1 {
		t.Fatalf("stats.Entries = %d, want 1", stats.Entries)
	}
}

func TestEmptySliceRejected(t *testing.T) {
	if _, _, err := SynthesizeEntries(context.Background(), nil, 10, 10, Config{}); err == nil {
		t.Fatal("empty slice accepted")
	}
	if _, _, err := SynthesizeEntries(context.Background(), nil, 10, 5, Config{}); err == nil {
		t.Fatal("inverted slice accepted")
	}
}

func TestNoEntriesYieldsEmptyNetwork(t *testing.T) {
	tri, stats, err := SynthesizeEntries(context.Background(), nil, 0, 24, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tri.NNZ() != 0 || stats.Places != 0 || stats.TotalNNZ != 0 {
		t.Fatal("empty input produced a non-empty network")
	}
}

// TestResultIndependentOfWorkers runs a town big enough that the Gram
// stage emits over 100 000 pairs among 3 000 persons, so the reduce
// step cuts dozens of row buckets, radix-sorts most of them, and deals
// them out to every worker count's ranges.
func TestResultIndependentOfWorkers(t *testing.T) {
	entries := randomTown(77, 10000, 3000, 50)
	var ref *sparse.Tri
	for _, workers := range []int{1, 2, 3, 8, 16} {
		tri, _, err := SynthesizeEntries(context.Background(), entries, 0, 60, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			if tri.NNZ() < 100000 {
				t.Fatalf("only %d edges: the town no longer exercises the bucketed reduce", tri.NNZ())
			}
			ref = tri
			continue
		}
		if !tri.Equal(ref) {
			t.Fatalf("workers=%d produced a different network", workers)
		}
	}
}

// TestSortPlaceKeysMatchesSort: the radix sort over place bytes alone,
// on keys built in index order, equals a full sort of the keys — for
// one place, dense place ids, ids from 2^24, ids spanning all four
// bytes and ids at the top of the range.
func TestSortPlaceKeysMatchesSort(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{0, 1, 2, 300, 5000} {
		for _, ids := range [][2]uint64{{7, 1}, {0, 50}, {1 << 24, 256}, {0, 1 << 32}, {1<<32 - 5, 5}} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = (ids[0]+r.Uint64n(ids[1]))<<32 | uint64(i)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			if got := sortPlaceKeys(keys, make([]uint64, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d, places %d+[0,%d): radix order differs from the full sort", n, ids[0], ids[1])
			}
		}
	}
}

func TestResultIndependentOfBalanceMode(t *testing.T) {
	entries := randomEntries(88, 400)
	a, _, err := SynthesizeEntries(context.Background(), entries, 0, 60, Config{Workers: 4, Balance: BalanceNNZ})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SynthesizeEntries(context.Background(), entries, 0, 60, Config{Workers: 4, Balance: BalanceNone})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("balance mode changed the network")
	}
}

func TestWorkerNNZAccounting(t *testing.T) {
	entries := randomEntries(99, 500)
	_, stats, err := SynthesizeEntries(context.Background(), entries, 0, 60, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range stats.WorkerCost {
		sum += n
	}
	if sum == 0 {
		t.Fatal("no worker cost recorded")
	}
	if imb := stats.CostImbalance(); imb < 1 {
		t.Fatalf("CostImbalance = %v < 1", imb)
	}
}

func TestBalancedBeatsNaiveOnSkewedPlaces(t *testing.T) {
	// One huge place plus many tiny ones: contiguous chunks give the
	// huge place plus an equal share of tiny ones to one worker.
	var entries []eventlog.Entry
	for p := uint32(0); p < 40; p++ {
		entries = append(entries, eventlog.Entry{Start: 0, Stop: 24, Person: p, Place: 999})
	}
	for p := uint32(100); p < 140; p++ {
		entries = append(entries, eventlog.Entry{Start: 0, Stop: 2, Person: p, Place: p})
	}
	_, balanced, err := SynthesizeEntries(context.Background(), entries, 0, 24, Config{Workers: 4, Balance: BalanceNNZ})
	if err != nil {
		t.Fatal(err)
	}
	_, naive, err := SynthesizeEntries(context.Background(), entries, 0, 24, Config{Workers: 4, Balance: BalanceNone})
	if err != nil {
		t.Fatal(err)
	}
	if balanced.CostImbalance() > naive.CostImbalance() {
		t.Fatalf("balanced imbalance %.2f worse than naive %.2f",
			balanced.CostImbalance(), naive.CostImbalance())
	}
}

// megaPlaceEntries builds one dominating place with many persons on
// distinct schedules (so clique compression cannot collapse it) plus a
// scattering of small places — the shape that forces the balancer to
// split the mega-place's pairwise loop into tiles.
func megaPlaceEntries() []eventlog.Entry {
	r := rng.New(31)
	var entries []eventlog.Entry
	for p := uint32(0); p < 120; p++ {
		// Two random intervals per person: schedules differ, so the
		// mega-place stays ~120 distinct row groups.
		for k := 0; k < 2; k++ {
			start := uint32(r.Intn(40))
			entries = append(entries, eventlog.Entry{
				Start: start, Stop: start + 1 + uint32(r.Intn(8)),
				Person: p, Place: 7,
			})
		}
	}
	for p := uint32(200); p < 220; p++ {
		entries = append(entries, eventlog.Entry{Start: 0, Stop: 3, Person: p, Place: p})
	}
	return entries
}

// TestSplitWorkUnitsBitIdentical is the satellite property test for work
// unit splitting: with a mega-place that exceeds the per-worker budget,
// the balancer must actually split (Splits > 0), the split partition
// must flatten the cost imbalance, and the synthesized network must stay
// bit-for-bit identical to the unsplit single-worker run at every worker
// count.
func TestSplitWorkUnitsBitIdentical(t *testing.T) {
	entries := megaPlaceEntries()
	ref, refStats, err := SynthesizeEntries(context.Background(), entries, 0, 48, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Splits != 0 {
		t.Fatalf("single worker should not split, got %d splits", refStats.Splits)
	}
	if ref.NNZ() == 0 {
		t.Fatal("mega-place scenario produced an empty network")
	}
	splitSeen := false
	for workers := 2; workers <= 8; workers++ {
		tri, stats, err := SynthesizeEntries(context.Background(), entries, 0, 48, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !tri.Equal(ref) {
			t.Fatalf("workers=%d: split synthesis differs from unsplit reference", workers)
		}
		if stats.Splits > 0 {
			splitSeen = true
			if stats.WorkUnits <= stats.Places {
				t.Fatalf("workers=%d: %d splits but only %d work units for %d places",
					workers, stats.Splits, stats.WorkUnits, stats.Places)
			}
			// Splitting exists precisely to flatten the partition: the
			// dominant place alone outweighs the per-worker budget, so
			// post-split imbalance must stay near 1.0.
			if im := stats.CostImbalance(); im > 1.5 {
				t.Fatalf("workers=%d: post-split cost imbalance %.2f", workers, im)
			}
		}
	}
	if !splitSeen {
		t.Fatal("no worker count triggered a split; scenario too small")
	}
}

func TestIdleFractionBounds(t *testing.T) {
	entries := randomEntries(11, 300)
	_, stats, err := SynthesizeEntries(context.Background(), entries, 0, 48, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.IdleFraction(); f < 0 || f >= 1 {
		t.Fatalf("IdleFraction = %v out of [0,1)", f)
	}
}

func TestBalanceModeString(t *testing.T) {
	if BalanceNNZ.String() != "nnz" || BalanceNone.String() != "none" {
		t.Fatal("BalanceMode strings wrong")
	}
}

// End-to-end: simulate, log, synthesize from files, and compare against
// a brute-force recomputation from the schedules themselves.
func TestEndToEndFromSimulationLogs(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 600, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 21)
	res, err := abm.Run(context.Background(), abm.Config{
		Pop: pop, Gen: gen, Ranks: 4, Days: 2,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	const t0, t1 = 0, 48
	tri, stats, err := SynthesizeFiles(context.Background(), res.LogPaths, t0, t1, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries == 0 || tri.NNZ() == 0 {
		t.Fatal("end-to-end network is empty")
	}

	// Brute force from schedules: who shares a place at each hour.
	want := make(map[[2]uint32]uint32)
	for h := uint32(t0); h < t1; h++ {
		at := make(map[uint32][]uint32)
		for p := 0; p < pop.NumPersons(); p++ {
			place, _ := gen.PlaceAt(uint32(p), h)
			at[place] = append(at[place], uint32(p))
		}
		for _, persons := range at {
			for i := 0; i < len(persons); i++ {
				for j := i + 1; j < len(persons); j++ {
					want[[2]uint32{persons[i], persons[j]}]++
				}
			}
		}
	}
	if tri.NNZ() != len(want) {
		t.Fatalf("network has %d edges, schedules imply %d", tri.NNZ(), len(want))
	}
	for pair, w := range want {
		if got := tri.Weight(pair[0], pair[1]); got != w {
			t.Fatalf("pair %v: weight %d, want %d", pair, got, w)
		}
	}
}

func TestSynthesizeFilesMatchesMergedEntries(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 400, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 31)
	res, err := abm.Run(context.Background(), abm.Config{
		Pop: pop, Gen: gen, Ranks: 3, Days: 1, LogDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	perFile, _, err := SynthesizeFiles(context.Background(), res.LogPaths, 0, 24, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var all []eventlog.Entry
	for _, p := range res.LogPaths {
		r, err := eventlog.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		es, err := eventlog.ReadAll(r.Source(0, 24))
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, es...)
	}
	merged, _, err := SynthesizeEntries(context.Background(), all, 0, 24, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !perFile.Equal(merged) {
		t.Fatal("per-file synthesis + sum differs from merged-entry synthesis")
	}
}

// TestDailyWindowsSumToWhole: independent daily windows over closed
// logs sum to the whole-range network, and a ragged final window clips
// at T1 instead of extending past it.
func TestDailyWindowsSumToWhole(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 400, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 41)
	res, err := abm.Run(context.Background(), abm.Config{Pop: pop, Gen: gen, Ranks: 2, Days: 3, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Daily windows over three days.
	daily := streamWindows(t, res.LogPaths, 72, 24, 0, 1, Config{Workers: 2})
	if len(daily) != 3 {
		t.Fatalf("got %d windows, want 3", len(daily))
	}
	tris := make([]*sparse.Tri, len(daily))
	for i, w := range daily {
		tris[i] = w.Window
	}
	whole, _, err := SynthesizeFiles(context.Background(), res.LogPaths, 0, 72, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.MergeTris(tris...).Equal(whole) {
		t.Fatal("daily windows do not sum to the whole-range network")
	}
	// A ragged final window must clip, not extend.
	ragged := streamWindows(t, res.LogPaths, 60, 24, 0, 1, Config{Workers: 2})
	if len(ragged) != 3 {
		t.Fatalf("ragged range: %d windows, want 3 (24+24+12)", len(ragged))
	}
	if last := ragged[2]; last.W0 != 48 || last.W1 != 60 {
		t.Fatalf("ragged range: last window [%d,%d), want [48,60)", last.W0, last.W1)
	}
}

// TestSynthesizeSeriesValidation: a daily series over log files rejects
// a zero window width and an empty range before any file is opened.
func TestSynthesizeSeriesValidation(t *testing.T) {
	if _, err := fileWindows(context.Background(), []string{"x"}, 0, 24, 0, 0, 1, Config{}); err == nil {
		t.Error("zero window width accepted")
	}
	if _, err := fileWindows(context.Background(), []string{"x"}, 24, 24, 8, 0, 1, Config{}); err == nil {
		t.Error("empty window accepted")
	}
}

func TestSynthesizeFilesEmptyList(t *testing.T) {
	if _, _, err := SynthesizeFiles(context.Background(), nil, 0, 24, Config{}); err == nil {
		t.Fatal("empty file list accepted")
	}
}

// Property: for random entry sets, synthesis equals brute force.
func TestQuickSynthesisCorrect(t *testing.T) {
	f := func(seed uint64) bool {
		entries := randomEntries(seed, 60)
		tri, _, err := SynthesizeEntries(context.Background(), entries, 0, 48, Config{Workers: 3})
		if err != nil {
			return false
		}
		want := bruteForce(entries, 0, 48)
		if tri.NNZ() != len(want) {
			return false
		}
		for pair, w := range want {
			if tri.Weight(pair[0], pair[1]) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling a time slice into two halves and summing the halves
// equals synthesizing the full slice (additivity over time).
func TestQuickTimeAdditivity(t *testing.T) {
	f := func(seed uint64) bool {
		entries := randomEntries(seed, 100)
		full, _, err := SynthesizeEntries(context.Background(), entries, 0, 48, Config{Workers: 2})
		if err != nil {
			return false
		}
		a, _, err := SynthesizeEntries(context.Background(), entries, 0, 24, Config{Workers: 2})
		if err != nil {
			return false
		}
		b, _, err := SynthesizeEntries(context.Background(), entries, 24, 48, Config{Workers: 2})
		if err != nil {
			return false
		}
		return sparse.SumTris(a, b).Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeDistributedMatchesSerial(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 500, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 51)
	res, err := abm.Run(context.Background(), abm.Config{Pop: pop, Gen: gen, Ranks: 5, Days: 2, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := SynthesizeFiles(context.Background(), res.LogPaths, 0, 48, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Distributed over 3 in-process ranks (5 files striped across them).
	results := make([]*sparse.Tri, 3)
	err = mpi.Run(3, func(tr mpi.Transport) error {
		tri, _, err := SynthesizeDistributed(context.Background(), tr, res.LogPaths, 0, 48, Config{Workers: 1})
		if err != nil {
			return err
		}
		results[tr.Rank()] = tri
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1] != nil || results[2] != nil {
		t.Fatal("non-root ranks received a network")
	}
	if results[0] == nil || !results[0].Equal(serial) {
		t.Fatal("distributed synthesis differs from serial")
	}
}

func TestSynthesizeDistributedEmptyPaths(t *testing.T) {
	err := mpi.Run(1, func(tr mpi.Transport) error {
		_, _, err := SynthesizeDistributed(context.Background(), tr, nil, 0, 24, Config{})
		if err == nil {
			t.Error("empty path list accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeDistributedMoreRanksThanFiles(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 300, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 52)
	res, err := abm.Run(context.Background(), abm.Config{Pop: pop, Gen: gen, Ranks: 2, Days: 1, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := SynthesizeFiles(context.Background(), res.LogPaths, 0, 24, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 6 ranks, 2 files: four ranks contribute empty partials.
	var got *sparse.Tri
	err = mpi.Run(6, func(tr mpi.Transport) error {
		tri, _, err := SynthesizeDistributed(context.Background(), tr, res.LogPaths, 0, 24, Config{Workers: 1})
		if err != nil {
			return err
		}
		if tr.Rank() == 0 {
			got = tri
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(serial) {
		t.Fatal("oversubscribed distributed synthesis differs from serial")
	}
}
