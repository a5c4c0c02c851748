package abm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

func (f *resumeFixture) rankConfig(logPath string) RankConfig {
	return RankConfig{
		Pop: f.pop, Gen: f.gen, Days: f.days, Assign: f.assign,
		LogPath: logPath,
		Log:     eventlog.Config{CacheEntries: 64},
	}
}

// reference runs the full healthy simulation and returns one log path
// per rank.
func (f *resumeFixture) reference(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, f.ranks)
	for r := range paths {
		paths[r] = filepath.Join(dir, fmt.Sprintf("rank%d.h5l", r))
	}
	err := mpi.Run(f.ranks, func(tr mpi.Transport) error {
		_, err := RunRank(context.Background(), tr, f.rankConfig(paths[tr.Rank()]))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
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

// resumeAll collectively resumes every rank and returns the per-rank
// reports.
func (f *resumeFixture) resumeAll(t *testing.T, paths []string) []*ResumeReport {
	t.Helper()
	reports := make([]*ResumeReport, f.ranks)
	var mu sync.Mutex
	err := mpi.Run(f.ranks, func(tr mpi.Transport) error {
		_, rep, err := ResumeRank(context.Background(), tr, f.rankConfig(paths[tr.Rank()]))
		mu.Lock()
		reports[tr.Rank()] = rep
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestResumeRankAfterTruncation is the headline crash test: every
// rank's log is torn at a different byte offset (as a kill -9 mid-run
// would leave them), and ResumeRank must regenerate logs bit-identical
// to an uninterrupted run.
func TestResumeRankAfterTruncation(t *testing.T) {
	f := newResumeFixture(t, 41, 3, 2)
	ref := f.reference(t)

	dir := t.TempDir()
	crashed := make([]string, f.ranks)
	fracs := []float64{0.55, 0.8, 0.35}
	for r := range crashed {
		crashed[r] = filepath.Join(dir, fmt.Sprintf("rank%d.h5l", r))
		truncateCopy(t, ref[r], crashed[r], fracs[r])
	}

	reports := f.resumeAll(t, crashed)

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

	path := filepath.Join(t.TempDir(), "crashed.h5l")
	faultinject.Arm(eventlog.CrashFlush, 3, faultinject.ErrInjected)
	err := mpi.Run(1, func(tr mpi.Transport) error {
		_, err := RunRank(context.Background(), tr, f.rankConfig(path))
		return err
	})
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("crashed run error = %v, want injected crash", err)
	}
	if _, err := eventlog.Open(path); err == nil {
		t.Fatal("crashed log unexpectedly has a valid footer")
	}

	reports := f.resumeAll(t, []string{path})
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
	crashed := make([]string, f.ranks)
	for r := range crashed {
		crashed[r] = filepath.Join(dir, fmt.Sprintf("rank%d.h5l", r))
		copyFile(t, ref[r], crashed[r])
	}
	// Rank 1's log is wiped out entirely.
	if err := os.WriteFile(crashed[1], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	reports := f.resumeAll(t, crashed)
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
	crashed := make([]string, f.ranks)
	for r := range crashed {
		crashed[r] = filepath.Join(dir, fmt.Sprintf("rank%d.h5l", r))
		copyFile(t, ref[r], crashed[r])
	}

	reports := f.resumeAll(t, crashed)
	endHour := uint32(f.days * schedule.HoursPerDay)
	for r, rep := range reports {
		if rep.StartHour != endHour {
			t.Fatalf("rank %d resumed at %d, want %d", r, rep.StartHour, endHour)
		}
	}
	expectSameLogs(t, ref, crashed)
}

// TestGracefulStopThenResume stops a run mid-flight via the Stop
// channel, checks all ranks leave at the same hour with valid footers,
// and then resumes to a bit-identical finish.
func TestGracefulStopThenResume(t *testing.T) {
	f := newResumeFixture(t, 45, 3, 3)
	ref := f.reference(t)

	dir := t.TempDir()
	paths := make([]string, f.ranks)
	for r := range paths {
		paths[r] = filepath.Join(dir, fmt.Sprintf("rank%d.h5l", r))
	}

	// The stop signal fires deterministically from inside the
	// simulation: the first logged entry whose activity ends at or
	// after hour 30 (on any rank) closes the channel.
	stop := make(chan struct{})
	var once sync.Once
	logExt := func(_ uint32, stopHour uint32) []uint32 {
		if stopHour >= 30 {
			once.Do(func() { close(stop) })
		}
		return nil
	}

	results := make([]RankResult, f.ranks)
	var mu sync.Mutex
	err := mpi.Run(f.ranks, func(tr mpi.Transport) error {
		cfg := f.rankConfig(paths[tr.Rank()])
		cfg.Stop = stop
		cfg.LogExt = logExt
		rr, err := RunRank(context.Background(), tr, cfg)
		mu.Lock()
		results[tr.Rank()] = rr
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
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
	// A graceful stop writes valid footers: the logs open cleanly.
	for _, p := range paths {
		r, err := eventlog.Open(p)
		if err != nil {
			t.Fatalf("stopped log %s has no valid footer: %v", p, err)
		}
		r.Close()
	}

	reports := f.resumeAll(t, paths)
	for r, rep := range reports {
		if rep.Restarted {
			t.Fatalf("rank %d restarted after a graceful stop", r)
		}
		if rep.StartHour > stoppedAt {
			t.Fatalf("rank %d resumed at %d, beyond the stop hour %d", r, rep.StartHour, stoppedAt)
		}
	}
	expectSameLogs(t, ref, paths)
}

// TestResumeRankValidation covers the misuse guards.
func TestResumeRankValidation(t *testing.T) {
	f := newResumeFixture(t, 46, 1, 1)
	run := func(mutate func(*RankConfig)) error {
		cfg := f.rankConfig(filepath.Join(t.TempDir(), "log.h5l"))
		mutate(&cfg)
		return mpi.Run(1, func(tr mpi.Transport) error {
			_, _, err := ResumeRank(context.Background(), tr, cfg)
			return err
		})
	}
	if err := run(func(c *RankConfig) { c.LogPath = "" }); err == nil {
		t.Error("no error for missing LogPath")
	}
	if err := run(func(c *RankConfig) { c.FullStateLog = true }); err == nil {
		t.Error("no error for FullStateLog")
	}
	if err := run(func(c *RankConfig) { c.StartHour = 5 }); err == nil {
		t.Error("no error for preset StartHour")
	}
	if err := run(func(c *RankConfig) { c.Days = 0 }); err == nil {
		t.Error("no error for zero Days")
	}
}

// TestRunRankFromAnyStartHour starts RunRank cold at hours on both sides
// of each midnight of a three-day run, on one and two ranks: each rank
// must log exactly the uninterrupted run's entries with Stop >= StartHour,
// in the same order. The start-up state at StartHour-1 and the day arenas
// it leaves behind are what a resume depends on.
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
			err := mpi.Run(ranks, func(tr mpi.Transport) error {
				cfg := f.rankConfig(filepath.Join(dir, fmt.Sprintf("rank%d.h5l", tr.Rank())))
				cfg.StartHour = start
				_, err := RunRank(context.Background(), tr, cfg)
				return err
			})
			if err != nil {
				t.Fatalf("ranks=%d StartHour=%d: %v", ranks, start, err)
			}
			for r := range ranks {
				var want []eventlog.Entry
				for _, e := range ref[r] {
					if e.Stop >= start {
						want = append(want, e)
					}
				}
				got := readLog(t, filepath.Join(dir, fmt.Sprintf("rank%d.h5l", r)))
				if len(got) != len(want) {
					t.Fatalf("ranks=%d StartHour=%d rank %d: %d entries, want %d", ranks, start, r, len(got), len(want))
				}
				for i, le := range got {
					if le.e != want[i] {
						t.Fatalf("ranks=%d StartHour=%d rank %d entry %d: %+v, want %+v", ranks, start, r, i, le.e, want[i])
					}
				}
			}
		}
	}
}
