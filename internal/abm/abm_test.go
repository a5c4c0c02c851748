package abm

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/synthpop"
	"repro/internal/telemetry"
)

func testWorld(t testing.TB, persons int) (*synthpop.Population, *schedule.Generator) {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return pop, schedule.NewGenerator(pop, 5)
}

func TestRunValidatesConfig(t *testing.T) {
	pop, gen := testWorld(t, 100)
	if _, err := Run(context.Background(), Config{Gen: gen, Ranks: 1, Days: 1}); err == nil {
		t.Error("missing Pop accepted")
	}
	if _, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 0, Days: 1}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 1, Days: 0}); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 1, Days: 1, Assign: partition.Assignment{0}}); err == nil {
		t.Error("short assignment accepted")
	}
}

// readAll merges all per-rank logs into an entry multiset.
func readAll(t testing.TB, paths []string) map[eventlog.Entry]int {
	t.Helper()
	got := make(map[eventlog.Entry]int)
	for _, p := range paths {
		r, err := eventlog.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ForEach(func(e eventlog.Entry, _ []uint32) error {
			got[e]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	return got
}

// scheduleMultiset computes the expected event multiset directly from
// schedules, clipping the final segment at the horizon.
func scheduleMultiset(pop *synthpop.Population, gen *schedule.Generator, days int) map[eventlog.Entry]int {
	want := make(map[eventlog.Entry]int)
	end := uint32(days * schedule.HoursPerDay)
	for p := 0; p < pop.NumPersons(); p++ {
		for d := 0; d < days; d++ {
			for _, s := range gen.Day(uint32(p), d) {
				stop := s.Stop
				if stop > end {
					stop = end
				}
				want[eventlog.Entry{Start: s.Start, Stop: stop, Person: uint32(p), Activity: s.Activity, Place: s.Place}]++
			}
		}
	}
	return want
}

func TestLoggedEventsMatchSchedules(t *testing.T) {
	pop, gen := testWorld(t, 1500)
	res, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 4, Days: 2,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, res.LogPaths)
	want := scheduleMultiset(pop, gen, 2)
	if len(got) != len(want) {
		t.Fatalf("distinct entries: got %d, want %d", len(got), len(want))
	}
	for e, n := range want {
		if got[e] != n {
			t.Fatalf("entry %+v: got %d, want %d", e, got[e], n)
		}
	}
}

func TestLogIndependentOfRankCount(t *testing.T) {
	pop, gen := testWorld(t, 1000)
	var sets []map[eventlog.Entry]int
	for _, ranks := range []int{1, 3, 8} {
		res, err := Run(context.Background(), Config{
			Pop: pop, Gen: gen, Ranks: ranks, Days: 2,
			LogDir: filepath.Join(t.TempDir(), "logs"),
			Log:    eventlog.Config{CacheEntries: 100},
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, readAll(t, res.LogPaths))
	}
	for i := 1; i < len(sets); i++ {
		if len(sets[i]) != len(sets[0]) {
			t.Fatalf("rank-count variant %d differs in distinct entries", i)
		}
		for e, n := range sets[0] {
			if sets[i][e] != n {
				t.Fatalf("variant %d: entry %+v count %d != %d", i, e, sets[i][e], n)
			}
		}
	}
}

// TestFlushEveryLeavesEntriesIdentical: hour-aligned durability
// flushes change where chunk boundaries fall, never which entries are
// logged — the invariant that makes `chisim -flush-every` safe to turn
// on for live tailing.
func TestFlushEveryLeavesEntriesIdentical(t *testing.T) {
	pop, gen := testWorld(t, 800)
	base, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 2, Days: 2,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 2, Days: 2, FlushEvery: 1,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushed.Flushes <= base.Flushes {
		t.Fatalf("FlushEvery 1 produced %d flushes vs %d without", flushed.Flushes, base.Flushes)
	}
	a, b := readAll(t, base.LogPaths), readAll(t, flushed.LogPaths)
	if len(a) != len(b) {
		t.Fatalf("distinct entries differ: %d vs %d", len(a), len(b))
	}
	for e, n := range a {
		if b[e] != n {
			t.Fatalf("entry %+v: count %d without flushes, %d with", e, n, b[e])
		}
	}
}

func TestLogIndependentOfAssignment(t *testing.T) {
	pop, gen := testWorld(t, 800)
	random := partition.Random(pop.NumPlaces(), 4)
	res1, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 4, Days: 1, Assign: random,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 4, Days: 1, // spatial default
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := readAll(t, res1.LogPaths), readAll(t, res2.LogPaths)
	if len(a) != len(b) {
		t.Fatal("assignments produced different event sets")
	}
	for e, n := range a {
		if b[e] != n {
			t.Fatalf("entry %+v differs across assignments", e)
		}
	}
}

func TestAgentConservationEveryHour(t *testing.T) {
	pop, gen := testWorld(t, 700)
	var mu sync.Mutex
	perHour := make(map[uint32]int)
	_, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 4, Days: 2,
		Interact: func(_ int, hour uint32, _ uint32, occ []uint32) {
			mu.Lock()
			perHour[hour] += len(occ)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for h := uint32(0); h < 48; h++ {
		if perHour[h] != pop.NumPersons() {
			t.Fatalf("hour %d: %d agents present, want %d", h, perHour[h], pop.NumPersons())
		}
	}
}

// TestAgentsAreWhereSchedulesSay runs three days, so every agent crosses
// two midnights, where a rank reuses the day arena two days back.
func TestAgentsAreWhereSchedulesSay(t *testing.T) {
	const days = 3
	pop, gen := testWorld(t, 500)
	var mu sync.Mutex
	type key struct {
		hour   uint32
		person uint32
	}
	seen := make(map[key]uint32)
	_, err := Run(context.Background(), Config{
		Pop: pop, Gen: gen, Ranks: 3, Days: days,
		Interact: func(_ int, hour uint32, place uint32, occ []uint32) {
			mu.Lock()
			for _, p := range occ {
				if prev, dup := seen[key{hour, p}]; dup {
					t.Errorf("person %d at two places (%d, %d) at hour %d", p, prev, place, hour)
				}
				seen[key{hour, p}] = place
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < uint32(pop.NumPersons()); p++ {
		for h := uint32(0); h < days*schedule.HoursPerDay; h++ {
			wantPlace, _ := gen.PlaceAt(p, h)
			if got := seen[key{h, p}]; got != wantPlace {
				t.Fatalf("person %d hour %d at place %d, schedule says %d", p, h, got, wantPlace)
			}
		}
	}
}

func TestSpatialPartitionReducesMigrations(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 5)
	edges, loads := partition.TransitionGraph(pop, gen, 3, pop.NumPersons())
	spatial, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 4, Days: 3,
		Assign: partition.Spatial(pop, edges, loads, 4)})
	if err != nil {
		t.Fatal(err)
	}
	random, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 4, Days: 3,
		Assign: partition.Random(pop.NumPlaces(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	if spatial.Migrations >= random.Migrations {
		t.Fatalf("spatial migrations %d not below random %d", spatial.Migrations, random.Migrations)
	}
	// Total moves are layout-invariant.
	if spatial.Migrations+spatial.LocalMoves != random.Migrations+random.LocalMoves {
		t.Fatalf("total moves differ: %d vs %d",
			spatial.Migrations+spatial.LocalMoves, random.Migrations+random.LocalMoves)
	}
}

func TestEntryCountScalesWithChangesPerDay(t *testing.T) {
	pop, gen := testWorld(t, 2000)
	const days = 7
	res, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 2, Days: days, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	perPersonDay := float64(res.Entries) / float64(pop.NumPersons()*days)
	if perPersonDay < 2 || perPersonDay > 8 {
		t.Fatalf("entries/person/day = %.2f, want ≈5", perPersonDay)
	}
	// 20 bytes per entry dominates file size.
	if res.LogBytes < res.Entries*20 {
		t.Fatalf("log bytes %d below payload %d", res.LogBytes, res.Entries*20)
	}
}

func TestFullStateLogIsMuchLarger(t *testing.T) {
	pop, gen := testWorld(t, 300)
	const days = 2
	event, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 2, Days: days, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 2, Days: days, LogDir: t.TempDir(), FullStateLog: true})
	if err != nil {
		t.Fatal(err)
	}
	wantFull := uint64(pop.NumPersons() * days * schedule.HoursPerDay)
	if full.Entries != wantFull {
		t.Fatalf("full-state entries = %d, want %d", full.Entries, wantFull)
	}
	if full.Entries <= 3*event.Entries {
		t.Fatalf("full-state logging (%d) should dwarf event-based (%d)", full.Entries, event.Entries)
	}
	for e := range readAll(t, full.LogPaths) {
		place, act := gen.PlaceAt(e.Person, e.Start)
		if e.Stop != e.Start+1 || e.Place != place || e.Activity != act {
			t.Fatalf("full-state entry %+v, schedule says place %d activity %d over [%d, %d)", e, place, act, e.Start, e.Start+1)
		}
	}
}

func TestNoLogDirMeansNoFiles(t *testing.T) {
	pop, gen := testWorld(t, 200)
	res, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 2, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LogPaths) != 0 || res.Entries != 0 || res.LogBytes != 0 {
		t.Fatalf("logging disabled but result reports logs: %+v", res)
	}
}

func TestSingleRankRuns(t *testing.T) {
	pop, gen := testWorld(t, 300)
	res, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 1, Days: 1, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatalf("single rank migrated %d agents", res.Migrations)
	}
	if res.Entries == 0 {
		t.Fatal("no entries logged")
	}
}

// TestRankSpansNameTheirRank: every rank's abm/rank span carries its
// own rank, so a run report's trace tells the simulation ranks apart.
func TestRankSpansNameTheirRank(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.Enabled())
	telemetry.SetEnabled(true)
	pop, gen := testWorld(t, 300)
	if _, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 3, Days: 1}); err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, sp := range telemetry.Default.RootSpans() {
		if sp.Name == "abm/rank" {
			got[sp.Rank] = true
		}
	}
	if len(got) != 3 || !got[0] || !got[1] || !got[2] {
		t.Fatalf("abm/rank roots for ranks %v, want {0, 1, 2}", got)
	}
}

// benchSim runs the whole simulation b.N times and reports agent-steps/s
// (persons × simulated hours over wall), the first link of the sim→serve
// ledger. With logging on, each iteration writes its logs to a fresh
// directory, as one cold batch chain does.
func benchSim(b *testing.B, persons, days, ranks int, logging bool) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Pop: pop, Gen: schedule.NewGenerator(pop, 5), Ranks: ranks, Days: days}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if logging {
			cfg.LogDir = b.TempDir()
		}
		if _, err := Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	steps := float64(persons) * float64(days*schedule.HoursPerDay) * float64(b.N)
	b.ReportMetric(steps/b.Elapsed().Seconds(), "agent-steps/s")
}

func BenchmarkSimWeek5kPersons4Ranks(b *testing.B) { benchSim(b, 5000, 7, 4, false) }

// BenchmarkSimFortnight20kPersons2RanksLogged has the shape of the
// simulation inside the bench module's batch.slice-20k chain.
func BenchmarkSimFortnight20kPersons2RanksLogged(b *testing.B) { benchSim(b, 20000, 14, 2, true) }
