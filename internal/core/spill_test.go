package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/abm"
	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/h5"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/synthpop"
)

// writeEntriesLog writes the given entries to a fresh log file and
// returns its path.
func writeEntriesLog(t *testing.T, dir, name string, entries []eventlog.Entry) string {
	t.Helper()
	path := filepath.Join(dir, name)
	l, err := eventlog.Create(path, eventlog.Config{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := l.Log(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// simLogs runs a small simulation and returns its per-rank log paths.
func simLogs(t *testing.T, seed uint64, persons, ranks, days int) []string {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, seed)
	res, err := abm.Run(context.Background(), abm.Config{
		Pop: pop, Gen: gen, Ranks: ranks, Days: days, LogDir: t.TempDir(),
		// A small cache yields many chunks per log, so crash-salvage
		// tests find intact prefixes to recover.
		Log: eventlog.Config{CacheEntries: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.LogPaths
}

// TestBudgetedSynthesisBitIdentical is the tentpole acceptance test: a
// memory budget small enough to force the place-sharded spill path must
// produce a network bit-identical to the unbudgeted in-memory path.
func TestBudgetedSynthesisBitIdentical(t *testing.T) {
	paths := simLogs(t, 71, 500, 3, 2)
	t1 := uint32(2 * schedule.HoursPerDay)

	want, wantStats, err := SynthesizeFiles(context.Background(), paths, 0, t1, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Shards != 0 {
		t.Fatalf("unbudgeted run spilled: %d shards", wantStats.Shards)
	}

	// Budget a small fraction of the slice so the planner must build
	// several shards.
	budget := int64(wantStats.Entries) * eventlog.BaseEntrySize / 4
	got, stats, err := SynthesizeFiles(context.Background(), paths, 0, t1,
		Config{Workers: 3, MemBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards < 2 {
		t.Fatalf("budget %d produced %d shards, want >= 2", budget, stats.Shards)
	}
	if stats.SpilledBytes == 0 {
		t.Fatal("no bytes recorded as spilled")
	}
	if stats.Entries != wantStats.Entries || stats.Places != wantStats.Places {
		t.Fatalf("budgeted stats (%d entries, %d places) != unbudgeted (%d, %d)",
			stats.Entries, stats.Places, wantStats.Entries, wantStats.Places)
	}
	if !got.Equal(want) {
		t.Fatal("budgeted synthesis differs from the in-memory path")
	}
}

// TestBudgetedSynthesisProperty sweeps random entry sets, worker counts
// 1–4 and budgets: every budget, from one so tight that every place is
// its own group to generous, must reproduce the in-memory network
// exactly.
func TestBudgetedSynthesisProperty(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		dir := t.TempDir()
		entries := randomEntries(seed, 400)
		half := len(entries) / 2
		paths := []string{
			writeEntriesLog(t, dir, "a.h5l", entries[:half]),
			writeEntriesLog(t, dir, "b.h5l", entries[half:]),
		}
		places := map[uint32]bool{}
		for _, e := range entries {
			places[e.Place] = true
		}
		want, _, err := SynthesizeFiles(context.Background(), paths, 0, 60, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			// A budget up to 8 entries leaves a group room for one entry,
			// so every place is a group of its own.
			for _, budget := range []int64{1, 8 * eventlog.BaseEntrySize, 512, 4 << 10, 1 << 20} {
				got, stats, err := SynthesizeFiles(context.Background(), paths, 0, 60,
					Config{Workers: workers, MemBudgetBytes: budget})
				if err != nil {
					t.Fatalf("seed %d workers %d budget %d: %v", seed, workers, budget, err)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d workers %d budget %d (shards %d): network differs from unbudgeted",
						seed, workers, budget, stats.Shards)
				}
				if budget <= 8*eventlog.BaseEntrySize && stats.Shards != len(places) {
					t.Fatalf("seed %d workers %d budget %d: %d shards, want one per place (%d)",
						seed, workers, budget, stats.Shards, len(places))
				}
			}
		}
	}
}

// TestBudgetedSynthesisOnSalvagedLogs feeds the spill path logs that
// went through crash salvage: a torn (footer-less) log is recovered by
// eventlog.Resume and the salvaged file must synthesize identically
// with and without a budget.
func TestBudgetedSynthesisOnSalvagedLogs(t *testing.T) {
	paths := simLogs(t, 73, 400, 2, 1)

	// Tear one log mid-file, then salvage it the way a resumed run
	// would, leaving a valid footer over the recovered prefix.
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.h5l")
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, b[:len(b)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := eventlog.Open(torn); err == nil {
		t.Fatal("torn log unexpectedly opens cleanly")
	}
	l, info, err := eventlog.Resume(torn, eventlog.Config{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	if info.RecoveredEntries == 0 {
		t.Fatal("salvage recovered no entries")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	salvaged := []string{torn, paths[1]}
	want, _, err := SynthesizeFiles(context.Background(), salvaged, 0, 24, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := SynthesizeFiles(context.Background(), salvaged, 0, 24,
		Config{Workers: 2, MemBudgetBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards < 2 {
		t.Fatalf("budget produced %d shards, want >= 2", stats.Shards)
	}
	if !got.Equal(want) {
		t.Fatal("budgeted synthesis of salvaged logs differs from in-memory path")
	}
}

// TestBudgetLargeEnoughStaysInMemory: when the whole slice fits inside
// the budget no shards are created and no bytes spill.
func TestBudgetLargeEnoughStaysInMemory(t *testing.T) {
	dir := t.TempDir()
	entries := randomEntries(3, 200)
	path := writeEntriesLog(t, dir, "a.h5l", entries)

	want, _, err := SynthesizeFiles(context.Background(), []string{path}, 0, 60, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := SynthesizeFiles(context.Background(), []string{path}, 0, 60,
		Config{MemBudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 0 || stats.SpilledBytes != 0 {
		t.Fatalf("generous budget spilled anyway: %d shards, %d bytes",
			stats.Shards, stats.SpilledBytes)
	}
	if !got.Equal(want) {
		t.Fatal("generous-budget synthesis differs from unbudgeted")
	}
}

// TestBudgetedLeavesNoSpillFiles: the temporary spill directory must be
// gone after a budgeted run, success or not.
func TestBudgetedLeavesNoSpillFiles(t *testing.T) {
	dir := t.TempDir()
	spillDir := t.TempDir()
	entries := randomEntries(5, 300)
	path := writeEntriesLog(t, dir, "a.h5l", entries)

	_, stats, err := SynthesizeFiles(context.Background(), []string{path}, 0, 60,
		Config{MemBudgetBytes: 256, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards < 2 {
		t.Fatalf("got %d shards, want >= 2", stats.Shards)
	}
	left, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill dir not cleaned up: %d entries remain", len(left))
	}
}

// TestConfigValidateRejectsNegatives: negative numeric configuration is
// an error, not a silent default.
func TestConfigValidateRejectsNegatives(t *testing.T) {
	if _, _, err := SynthesizeEntries(context.Background(), nil, 0, 24, Config{Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, _, err := SynthesizeEntries(context.Background(), nil, 0, 24, Config{MemBudgetBytes: -1}); err == nil {
		t.Error("negative MemBudgetBytes accepted")
	}
	if _, _, err := SynthesizeFiles(context.Background(), []string{"x"}, 0, 24, Config{Workers: -3}); err == nil {
		t.Error("SynthesizeFiles: negative Workers accepted")
	}
}

// TestConfigValidateRejectsUnknownBalance: a Balance outside the defined
// modes is an error, not the paper's balancer in disguise.
func TestConfigValidateRejectsUnknownBalance(t *testing.T) {
	for _, mode := range []BalanceMode{-1, BalanceNone + 1} {
		if _, _, err := SynthesizeEntries(context.Background(), nil, 0, 24, Config{Balance: mode}); err == nil {
			t.Errorf("Balance %v accepted", mode)
		}
	}
}

// TestSpillFailsMidWrite is the chaos test of the spill tier: a run-file
// chunk write fails at every point a budgeted synthesis writes one, from
// the first chunk of the first spill to the last chunk of the drain's.
// Both SynthesizeFiles and Stream must return an error wrapping
// faultinject.ErrInjected, hand out no network, and leave no
// core-spill-* directory behind; once the failure point lies past the
// last write, the run succeeds and matches the in-memory network.
func TestSpillFailsMidWrite(t *testing.T) {
	paths := simLogs(t, 99, 300, 2, 1)
	want, _, err := SynthesizeFiles(context.Background(), paths, 0, 24, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	cfg := Config{Workers: 2, MemBudgetBytes: 16 << 10}

	for name, run := range map[string]func(cfg Config) (*sparse.Tri, error){
		"SynthesizeFiles": func(cfg Config) (*sparse.Tri, error) {
			net, _, err := SynthesizeFiles(context.Background(), paths, 0, 24, cfg)
			return net, err
		},
		"Stream": func(cfg Config) (*sparse.Tri, error) {
			var net *sparse.Tri
			_, err := Stream(context.Background(), openSources(t, paths, 0, 24), StreamConfig{
				T0: 0, T1: 24, WindowHours: 24, HorizonHours: HorizonEOF, Synth: cfg,
				OnWindow: func(w WindowResult) error { net = w.Net; return nil },
			})
			return net, err
		},
	} {
		for n := 1; ; n++ {
			if n > 1000 {
				t.Fatalf("%s: still failing after %d chunk writes", name, n)
			}
			cfg.SpillDir = t.TempDir()
			faultinject.Reset()
			faultinject.Arm(h5.CrashWriteChunk, n, nil)
			net, err := run(cfg)
			fired := faultinject.Fired(h5.CrashWriteChunk)
			faultinject.Reset()
			assertNoSpillFiles(t, cfg.SpillDir)
			if fired == 0 {
				if err != nil {
					t.Fatalf("%s: no failure injected at write %d, yet: %v", name, n, err)
				}
				if !net.Equal(want) {
					t.Fatalf("%s: network after %d clean writes differs from the in-memory one", name, n-1)
				}
				if n < 3 {
					t.Fatalf("%s: only %d chunk writes; the budget does not spill enough", name, n-1)
				}
				t.Logf("%s: %d writes", name, n-1)
				break
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%s: write %d failed, err = %v, want faultinject.ErrInjected", name, n, err)
			}
			if net != nil {
				t.Fatalf("%s: write %d failed, yet a network was returned", name, n)
			}
		}
	}
}
