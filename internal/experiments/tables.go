package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/rng"
)

// paperPersons and paperChangesPerDay are the constants of the paper's
// Section III sizing arithmetic.
const (
	paperPersons       = 2_900_000
	paperChangesPerDay = 5.0
	paperEntryBytes    = 20
)

// T1LogVolume reproduces the Section III log-sizing numbers: 20-byte
// entries, ~2 GB per simulated week for the full Chicago population, and
// the per-process shard sizes.
func (r *Runner) T1LogVolume() (*Report, error) {
	sim, err := r.EnsureSim()
	if err != nil {
		return nil, err
	}
	days := float64(r.Scale.Days)
	persons := float64(r.Scale.Persons)
	changesPerDay := float64(sim.Entries) / persons / days
	bytesPerPersonDay := float64(sim.LogBytes) / persons / days
	// Extrapolate to the paper's population and a one-week window.
	paperWeek := bytesPerPersonDay * paperPersons * 7
	paperYearPerRank := bytesPerPersonDay * paperPersons * 365 / 64

	rep := &Report{
		Title: "Event-log volume (Section III)",
		PaperClaim: "20-byte entries; 2.9M persons × ~5 changes/day ≈ 2 GB/week total; " +
			"on 64 processes ≈ 30 MB/process/week and ≈ 1.5 GB/process/year",
		Header: []string{"quantity", "measured", "paper"},
		Rows: [][]string{
			{"entry size (bytes)", d(eventlog.BaseEntrySize), "20"},
			{"activity changes/person/day", f2(changesPerDay), "≈5"},
			{"log entries", d64(sim.Entries), "—"},
			{"log bytes (all ranks, full run)", mb(sim.LogBytes), "—"},
			{"bytes/person/day", f2(bytesPerPersonDay), fmt.Sprintf("%.0f (5 × 20B)", paperChangesPerDay*paperEntryBytes)},
			{"extrapolated: 2.9M persons, 1 week", fmt.Sprintf("%.2f GB", paperWeek/(1<<30)), "≈2 GB"},
			{"extrapolated: per process-year (64 procs)", fmt.Sprintf("%.2f GB", paperYearPerRank/(1<<30)), "≈1.5 GB"},
		},
		Notes: []string{
			fmt.Sprintf("measured at scale: %d persons, %d days, %d ranks", r.Scale.Persons, r.Scale.Days, r.Scale.Ranks),
			fmt.Sprintf("per-rank file ≈ %s for the full run", mb(sim.LogBytes/uint64(r.Scale.Ranks))),
		},
	}
	return rep, nil
}

// T2CacheSweep reproduces the Section III cache-size tradeoff: a smaller
// cache costs more write operations, a larger cache more memory.
func (r *Runner) T2CacheSweep() (*Report, error) {
	const entries = 300_000
	dir := filepath.Join(r.OutDir, "t2")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rep := &Report{
		Title:      "Logger cache-size tradeoff (Section III)",
		PaperClaim: "smaller cache → less memory but more (expensive) write operations; larger cache → more memory, fewer writes; nominal cache 10,000 entries",
		Header:     []string{"cache entries", "flushes", "cache memory", "wall time", "entries/s"},
	}
	src := rng.New(r.Scale.Seed)
	for _, cache := range []int{100, 1_000, 10_000, 100_000} {
		path := filepath.Join(dir, fmt.Sprintf("cache%d.h5l", cache))
		l, err := eventlog.Create(path, eventlog.Config{CacheEntries: cache})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < entries; i++ {
			e := eventlog.Entry{
				Start:    uint32(i),
				Stop:     uint32(i + 1),
				Person:   uint32(src.Intn(r.Scale.Persons)),
				Activity: uint32(src.Intn(6)),
				Place:    uint32(src.Intn(8000)),
			}
			if err := l.Log(e); err != nil {
				return nil, err
			}
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		rep.Rows = append(rep.Rows, []string{
			d(cache),
			d(l.Flushes()),
			mb(uint64(cache * eventlog.BaseEntrySize)),
			elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(entries)/elapsed.Seconds()),
		})
		os.Remove(path)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d entries logged per configuration; flush count scales as entries/cache, as the paper describes", entries))
	return rep, nil
}

// T3Synthesis reproduces the Section V run facts: the size of the
// complete network, its memory footprint, and the batch-queue
// observation that several 64-process jobs clear a busy queue faster
// than one 1024-process job.
func (r *Runner) T3Synthesis() (*Report, error) {
	net, err := r.EnsureNetwork()
	if err != nil {
		return nil, err
	}
	t0, t1 := r.Scale.SliceBounds()
	start := time.Now()
	_, _, err = core.SynthesizeFiles(context.Background(), r.sim.LogPaths, t0, t1, core.Config{Workers: r.Scale.Workers})
	if err != nil {
		return nil, err
	}
	synthWall := time.Since(start)

	// Memory: the triangular matrix stores 3 uint32 words per edge.
	memBytes := uint64(net.Tri.NNZ()) * 12

	// Queue experiment: a busy 1024-slot cluster with background jobs.
	src := rng.New(r.Scale.Seed + 7)
	var background []queueJob
	for i := 0; i < 300; i++ {
		background = append(background, queueJob{
			ID:       1000 + i,
			Procs:    16 * (1 + src.Intn(8)),
			Duration: float64(10 + src.Intn(50)),
			Submit:   float64(src.Intn(400)),
		})
	}
	small := make([]queueJob, 16)
	ours := map[int]bool{}
	for i := range small {
		small[i] = queueJob{ID: i, Procs: 64, Duration: 30, Submit: 100}
		ours[i] = true
	}
	resSmall, err := simulateQueue(context.Background(), 1024, append(append([]queueJob{}, background...), small...))
	if err != nil {
		return nil, err
	}
	big := []queueJob{{ID: 0, Procs: 1024, Duration: 30, Submit: 100}}
	resBig, err := simulateQueue(context.Background(), 1024, append(append([]queueJob{}, background...), big...))
	if err != nil {
		return nil, err
	}
	makespanSmall := makespan(resSmall, ours) - 100
	makespanBig := makespan(resBig, map[int]bool{0: true}) - 100

	rep := &Report{
		Title: "Complete-network scale and batch strategy (Section V)",
		PaperClaim: "2,927,761 vertices, 830,328,649 edges, ≈10 GB in R; batches of 16 log files on 64 " +
			"processes ≈30 min each; small jobs clear the queue faster than one 1024-process job",
		Header: []string{"quantity", "measured", "paper"},
		Rows: [][]string{
			{"vertices (persons with edges)", d(net.Tri.Vertices()), "2,927,761"},
			{"edges (collocation pairs)", d(net.Tri.NNZ()), "830,328,649"},
			{"edges per person", f2(float64(net.Tri.NNZ()) / float64(r.Scale.Persons)), f2(830328649.0 / 2927761)},
			{"adjacency memory", mb(memBytes), "≈10 GB (in R)"},
			{"synthesis wall time (final week)", synthWall.Round(time.Millisecond).String(), "1–1.5 h at full scale"},
			{"queue: 16×64-proc jobs (min)", f2(makespanSmall), "faster"},
			{"queue: 1×1024-proc job (min)", f2(makespanBig), "slower"},
		},
		Notes: []string{
			fmt.Sprintf("scale: %d persons (paper: 2.9M); edges grow superlinearly with population density, so edges/person is the comparable number", r.Scale.Persons),
			"queue makespans are waiting+running minutes after submission on a simulated busy 1024-slot cluster (EASY backfill)",
		},
	}
	return rep, nil
}
