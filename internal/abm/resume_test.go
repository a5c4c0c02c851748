package abm

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/synthpop"
)

// resumeFixture is a small deterministic simulation: population,
// generator and an explicit assignment shared by the reference run and
// every crashed/resumed rerun (Run would otherwise recompute it).
type resumeFixture struct {
	pop    *synthpop.Population
	gen    *schedule.Generator
	assign partition.Assignment
	ranks  int
	days   int
}

func newResumeFixture(t *testing.T, seed uint64, ranks, days int) *resumeFixture {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, seed)
	edges, loads := partition.TransitionGraph(pop, gen, days, pop.NumPersons())
	assign := partition.Spatial(pop, edges, loads, ranks)
	return &resumeFixture{pop: pop, gen: gen, assign: assign, ranks: ranks, days: days}
}

func (f *resumeFixture) config(logDir string) Config {
	return Config{
		Pop: f.pop, Gen: f.gen, Ranks: f.ranks, Days: f.days, Assign: f.assign,
		LogDir: logDir,
		Log:    eventlog.Config{CacheEntries: 64},
	}
}

// logPaths names the per-rank logs a run writes under dir.
func (f *resumeFixture) logPaths(dir string) []string {
	cfg := f.config(dir)
	paths := make([]string, f.ranks)
	for r := range paths {
		paths[r] = cfg.logPath(r)
	}
	return paths
}

// reference runs the full healthy simulation and returns one log path
// per rank.
func (f *resumeFixture) reference(t *testing.T) []string {
	t.Helper()
	res, err := Run(context.Background(), f.config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	return res.LogPaths
}

type loggedEntry struct {
	e   eventlog.Entry
	ext []uint32
}

func readLog(t *testing.T, path string) []loggedEntry {
	t.Helper()
	r, err := eventlog.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer r.Close()
	var out []loggedEntry
	err = r.ForEach(func(e eventlog.Entry, ext []uint32) error {
		out = append(out, loggedEntry{e: e, ext: append([]uint32{}, ext...)})
		return nil
	})
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return out
}

// expectSameLogs asserts the entry streams of got are bit-identical, in
// order, to those of want.
func expectSameLogs(t *testing.T, want, got []string) {
	t.Helper()
	for r := range want {
		w, g := readLog(t, want[r]), readLog(t, got[r])
		if len(w) != len(g) {
			t.Fatalf("rank %d: %d entries, reference has %d", r, len(g), len(w))
		}
		for i := range w {
			if w[i].e != g[i].e {
				t.Fatalf("rank %d entry %d: %+v, reference %+v", r, i, g[i].e, w[i].e)
			}
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateCopy copies src to dst keeping only the given fraction of its
// bytes — the on-disk shape of a rank killed mid-run (no footer, torn
// tail).
func truncateCopy(t *testing.T, src, dst string, frac float64) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := int(float64(len(b)) * frac)
	if err := os.WriteFile(dst, b[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// resumeAll resumes the run whose logs are in dir and returns the
// per-rank reports.
func (f *resumeFixture) resumeAll(t *testing.T, dir string) []*ResumeReport {
	t.Helper()
	_, reports, err := Resume(context.Background(), f.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestResumeRankAfterTruncation is the headline crash test: every
// rank's log is torn at a different byte offset (as a kill -9 mid-run
// would leave them), and Resume must regenerate logs bit-identical to
// an uninterrupted run.
func TestResumeRankAfterTruncation(t *testing.T) {
	f := newResumeFixture(t, 41, 3, 2)
	ref := f.reference(t)

	dir := t.TempDir()
	crashed := f.logPaths(dir)
	fracs := []float64{0.55, 0.8, 0.35}
	for r := range crashed {
		truncateCopy(t, ref[r], crashed[r], fracs[r])
	}

	reports := f.resumeAll(t, dir)

	endHour := uint32(f.days * schedule.HoursPerDay)
	m := reports[0].StartHour
	if m == 0 || m >= endHour {
		t.Fatalf("resume boundary %d not strictly inside the run (0, %d)", m, endHour)
	}
	for r, rep := range reports {
		if rep.StartHour != m {
			t.Fatalf("rank %d resumed at %d, rank 0 at %d", r, rep.StartHour, m)
		}
		if rep.Restarted {
			t.Fatalf("rank %d restarted; wanted a resume", r)
		}
		if rep.LocalMaxStop < m {
			t.Fatalf("rank %d: local max %d below boundary %d", r, rep.LocalMaxStop, m)
		}
	}
	expectSameLogs(t, ref, crashed)
}

// TestResumeRankAfterCrashFlush crashes a live single-rank run at its
// third cache flush via the fault injector, then resumes the genuinely
// crashed (footer-less) file and verifies bit-identical output.
func TestResumeRankAfterCrashFlush(t *testing.T) {
	defer faultinject.Reset()
	f := newResumeFixture(t, 42, 1, 2)
	ref := f.reference(t)

	dir := t.TempDir()
	path := f.logPaths(dir)[0]
	faultinject.Arm(eventlog.CrashFlush, 3, faultinject.ErrInjected)
	_, err := Run(context.Background(), f.config(dir))
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("crashed run error = %v, want injected crash", err)
	}
	if _, err := eventlog.Open(path); err == nil {
		t.Fatal("crashed log unexpectedly has a valid footer")
	}

	reports := f.resumeAll(t, dir)
	if reports[0].Restarted {
		t.Fatal("restarted; two full flushes should have been salvageable")
	}
	if reports[0].RecoveredEntries == 0 {
		t.Fatal("no entries salvaged from the crashed log")
	}
	expectSameLogs(t, ref, []string{path})
}

// TestResumeRankRestartsWhenOneLogIsGone: if any rank has nothing
// salvageable the boundary is hour 0 and every rank restarts from
// scratch, still converging on the reference output.
func TestResumeRankRestartsWhenOneLogIsGone(t *testing.T) {
	f := newResumeFixture(t, 43, 3, 1)
	ref := f.reference(t)

	dir := t.TempDir()
	crashed := f.logPaths(dir)
	for r := range crashed {
		copyFile(t, ref[r], crashed[r])
	}
	// Rank 1's log is wiped out entirely.
	if err := os.WriteFile(crashed[1], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	reports := f.resumeAll(t, dir)
	for r, rep := range reports {
		if !rep.Restarted || rep.StartHour != 0 {
			t.Fatalf("rank %d: report %+v, want full restart at hour 0", r, rep)
		}
	}
	expectSameLogs(t, ref, crashed)
}

// TestResumeRankOnCompletedRun: resuming cleanly finished logs is a
// no-op-equivalent — the boundary is the final hour and the regenerated
// tail matches what was trimmed.
func TestResumeRankOnCompletedRun(t *testing.T) {
	f := newResumeFixture(t, 44, 2, 1)
	ref := f.reference(t)

	dir := t.TempDir()
	crashed := f.logPaths(dir)
	for r := range crashed {
		copyFile(t, ref[r], crashed[r])
	}

	reports := f.resumeAll(t, dir)
	endHour := uint32(f.days * schedule.HoursPerDay)
	for r, rep := range reports {
		if rep.StartHour != endHour {
			t.Fatalf("rank %d resumed at %d, want %d", r, rep.StartHour, endHour)
		}
	}
	expectSameLogs(t, ref, crashed)
}

// TestRankCancelThenResume cancels a run mid-flight, checks all
// ranks leave at the same hour with valid footers, and then resumes to a
// bit-identical finish.
func TestRankCancelThenResume(t *testing.T) {
	f := newResumeFixture(t, 45, 3, 3)
	ref := f.reference(t)

	dir := t.TempDir()
	paths := f.logPaths(dir)

	// The cancel fires deterministically from inside the simulation: the
	// first logged entry whose activity ends at or after hour 30 (on any
	// rank) cancels the context every rank runs under.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logExt := func(_ uint32, stopHour uint32) []uint32 {
		if stopHour >= 30 {
			cancel()
		}
		return nil
	}

	// The ranks run bare, without the gather that a cancel skips, so
	// each one's StoppedAt is visible.
	results := make([]RankResult, f.ranks)
	cfg := f.config(dir)
	cfg.LogExt = logExt
	err := mpi.Run(f.ranks, func(tr mpi.Transport) error {
		rr, err := runRank(ctx, tr, cfg, 0, nil)
		results[tr.Rank()] = rr
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run err = %v, want context.Canceled", err)
	}

	endHour := uint32(f.days * schedule.HoursPerDay)
	stoppedAt := results[0].StoppedAt
	if stoppedAt < 30 || stoppedAt >= endHour {
		t.Fatalf("stopped at hour %d, want within [30, %d)", stoppedAt, endHour)
	}
	for r, rr := range results {
		if rr.StoppedAt != stoppedAt {
			t.Fatalf("rank %d stopped at %d, rank 0 at %d", r, rr.StoppedAt, stoppedAt)
		}
	}
	// A canceled run writes valid footers: the logs open cleanly.
	for _, p := range paths {
		r, err := eventlog.Open(p)
		if err != nil {
			t.Fatalf("canceled log %s has no valid footer: %v", p, err)
		}
		r.Close()
	}

	reports := f.resumeAll(t, dir)
	for r, rep := range reports {
		if rep.Restarted {
			t.Fatalf("rank %d restarted after a cancel", r)
		}
		if rep.StartHour > stoppedAt {
			t.Fatalf("rank %d resumed at %d, beyond the stop hour %d", r, rep.StartHour, stoppedAt)
		}
	}
	expectSameLogs(t, ref, paths)
}

// TestResumeRankValidation covers the misuse guards of the rank
// program, resuming on one transport rank.
func TestResumeRankValidation(t *testing.T) {
	f := newResumeFixture(t, 46, 1, 1)
	run := func(mutate func(*Config)) error {
		cfg := f.config(t.TempDir())
		mutate(&cfg)
		return mpi.Run(1, func(tr mpi.Transport) error {
			_, _, err := ResumeOn(context.Background(), tr, cfg)
			return err
		})
	}
	if err := run(func(c *Config) { c.LogDir = "" }); err == nil {
		t.Error("no error for missing LogDir")
	}
	if err := run(func(c *Config) { c.FullStateLog = true }); err == nil {
		t.Error("no error for FullStateLog")
	}
	if err := run(func(c *Config) { c.Ranks = 2 }); err == nil {
		t.Error("no error for Ranks disagreeing with the transport")
	}
	if err := run(func(c *Config) { c.Days = 0 }); err == nil {
		t.Error("no error for zero Days")
	}
}

// TestRunRankFromAnyStartHour starts runRank cold at hours on both sides
// of each midnight of a three-day run, on one and two ranks: each rank
// must log exactly the uninterrupted run's entries with Stop >= the
// start hour, in the same order. The start-up state at the hour before
// it and the day arenas it leaves behind are what a resume depends on.
func TestRunRankFromAnyStartHour(t *testing.T) {
	pop, gen := testWorld(t, 400)
	for _, ranks := range []int{1, 2} {
		f := &resumeFixture{pop: pop, gen: gen, assign: partition.Random(pop.NumPlaces(), ranks), ranks: ranks, days: 3}
		ref := make([][]eventlog.Entry, ranks)
		for r, path := range f.reference(t) {
			for _, le := range readLog(t, path) {
				ref[r] = append(ref[r], le.e)
			}
		}
		for _, start := range []uint32{1, 23, 24, 25, 47, 48, 71} {
			dir := t.TempDir()
			cfg := f.config(dir)
			err := mpi.Run(ranks, func(tr mpi.Transport) error {
				_, err := runRank(context.Background(), tr, cfg, start, nil)
				return err
			})
			if err != nil {
				t.Fatalf("ranks=%d start=%d: %v", ranks, start, err)
			}
			for r := range ranks {
				var want []eventlog.Entry
				for _, e := range ref[r] {
					if e.Stop >= start {
						want = append(want, e)
					}
				}
				got := readLog(t, cfg.logPath(r))
				if len(got) != len(want) {
					t.Fatalf("ranks=%d start=%d rank %d: %d entries, want %d", ranks, start, r, len(got), len(want))
				}
				for i, le := range got {
					if le.e != want[i] {
						t.Fatalf("ranks=%d start=%d rank %d entry %d: %+v, want %+v", ranks, start, r, i, le.e, want[i])
					}
				}
			}
		}
	}
}
