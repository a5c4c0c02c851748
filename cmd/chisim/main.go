// Command chisim runs the chiSIM-style agent-based simulation: it
// generates a synthetic population, simulates daily activity schedules at
// one-hour resolution on a set of simulated ranks, and writes one
// event-based activity log per rank (Sections II-III of the paper).
//
// Usage (single process, ranks as goroutines):
//
//	chisim -persons 20000 -days 28 -ranks 16 -logdir logs
//
// Distributed usage (one OS process per rank, TCP transport; every
// process must receive identical -persons/-days/-seed/-ranks values,
// which make them generate identical populations, schedules and place
// partitions):
//
//	chisim -persons 20000 -days 28 -ranks 4 -dist-host :7946 ...   # rank 0
//	chisim -persons 20000 -days 28 -ranks 4 -dist-join host:7946   # ranks 1..3
//
// Both run the same rank program (abm.RunOn) and differ only in the
// transport; rank 0 prints the summary of the whole run.
//
// Under a supervisor (cmd/netlaunch), each worker additionally pins its
// rank with -dist-rank and discovers the coordinator through -dist-join
// @file (the address file rank 0 publishes with -dist-addr-file); a
// failed run is relaunched as a whole with -resume. Exit codes tell
// the supervisor what happened: 0 success, 2 cooperative drain after
// SIGINT/SIGTERM, 1 real failure.
//
// A SIGINT or SIGTERM stops the run gracefully at the next simulated
// hour: every rank flushes and closes its log with a valid footer, and
// the run can be continued later with -resume (a second signal kills
// the process, exit 1). -resume also recovers
// from hard crashes (kill -9, power loss): each rank salvages the
// intact prefix of its log, the ranks agree on a common resume hour,
// and the finished logs match an uninterrupted run.
//
//	chisim -persons 20000 -days 28 -ranks 16 -logdir logs -resume
//
// The resulting logs/rankNNNN.h5l files feed cmd/netsynth.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"repro"
	"repro/internal/abm"
	"repro/internal/cmdrun"
	"repro/internal/eventlog"
	"repro/internal/telemetry"
)

func main() {
	persons := flag.Int("persons", 20000, "synthetic population size")
	days := flag.Int("days", 28, "simulated days")
	ranks := flag.Int("ranks", 16, "simulated process count")
	seed := flag.Uint64("seed", 2017, "root random seed")
	logdir := flag.String("logdir", "logs", "directory for per-rank event logs")
	cache := flag.Int("cache", eventlog.DefaultCacheEntries, "logger cache entries before each chunked write")
	compress := flag.Bool("compress", false, "DEFLATE-compress log chunks")
	flushEvery := flag.Int("flush-every", 0, "make each rank's log durable every N simulated hours (0 = only when the cache fills); lets netsynth -follow tail a running simulation")
	resume := flag.Bool("resume", false, "continue a crashed or interrupted run from the logs in -logdir")
	hourDelay := flag.Duration("hour-delay", 0, "sleep this long per simulated hour (chaos/testing aid)")
	dist := cmdrun.DistFlags()
	tel := cmdrun.TelemetryFlags("chisim", true)
	flag.Parse()

	cmdrun.Main("chisim", func(ctx context.Context) error {
		stopTel, err := tel.Start()
		if err != nil {
			return err
		}
		defer stopTel()
		p, err := repro.NewPipeline(repro.Config{
			Persons: *persons, Days: *days, Seed: *seed, Ranks: *ranks,
			CacheEntries: *cache, Compress: *compress, HourDelay: *hourDelay,
			FlushEvery: *flushEvery,
		})
		if err != nil {
			return err
		}
		fmt.Printf("population: %d persons, %d places, %d neighborhoods\n",
			p.Pop.NumPersons(), p.Pop.NumPlaces(), p.Pop.Neighborhoods())
		start := time.Now()
		res, reports, err := simulate(ctx, p, dist, *logdir, *resume)
		if errors.Is(err, context.Canceled) {
			// An interrupted run is a stopped run: every log has a valid
			// footer, so the supervisor must not charge it as a failure.
			return fmt.Errorf("logs in %s are intact — rerun with -resume to continue: %w", *logdir, err)
		}
		if err != nil || res == nil {
			return err // res is nil on the ranks other than 0
		}
		printResumeReport(reports)
		fmt.Printf("simulated %d hours on %d ranks in %s\n", res.Steps, len(res.PerRank), time.Since(start).Round(time.Millisecond))
		fmt.Printf("events logged: %d (%.2f per person-day), %d chunked writes\n",
			res.Entries, float64(res.Entries)/float64(p.Pop.NumPersons()*p.Days()), res.Flushes)
		fmt.Printf("log volume: %.2f MB across %d files in %s\n",
			float64(res.LogBytes)/(1<<20), len(res.LogPaths), *logdir)
		fmt.Printf("agent moves: %d local, %d inter-rank migrations\n", res.LocalMoves, res.Migrations)
		return tel.WriteReport(runReport(res.PerRank))
	})
}

// simulate runs the simulation's rank program on every rank as a
// goroutine of this process or, under -dist-host/-dist-join, on this
// process's one rank of a TCP cluster. Either way rank 0 returns the
// Result of the whole run and the other ranks a nil one.
func simulate(ctx context.Context, p *repro.Pipeline, dist *cmdrun.Dist, logdir string, resume bool) (*abm.Result, []*abm.ResumeReport, error) {
	if !dist.Enabled() {
		if resume {
			return p.Resume(ctx, logdir)
		}
		res, err := p.Simulate(ctx, logdir)
		return res, nil, err
	}
	cfg := p.SimConfig(logdir)
	node, err := dist.Open(cfg.Ranks)
	if err != nil {
		return nil, nil, err
	}
	defer node.Close()
	if resume {
		return abm.ResumeOn(ctx, node, cfg)
	}
	res, err := abm.RunOn(ctx, node, cfg)
	return res, nil, err
}

// runReport is the chisim run report with the per-rank roll-ups.
// Simulated ranks interleave computation with the hourly exchange, so
// the whole wall counts as busy; the exchange walls are visible
// separately in the abm_exchange_seconds series.
func runReport(per []abm.RankResult) *telemetry.Report {
	rep := telemetry.Default.Report("chisim")
	rep.Ranks = make([]telemetry.RankReport, len(per))
	for i, rr := range per {
		rep.Ranks[i] = telemetry.RankReport{
			Rank:    i,
			WallNs:  int64(rr.WallNs),
			BusyNs:  int64(rr.WallNs),
			Entries: int64(rr.Entries),
		}
	}
	return rep
}

func printResumeReport(reports []*abm.ResumeReport) {
	if len(reports) == 0 || reports[0] == nil {
		return
	}
	if reports[0].Restarted {
		fmt.Println("resume: nothing salvageable, restarted from hour 0")
		return
	}
	var recovered, dropped uint64
	for _, rep := range reports {
		recovered += rep.RecoveredEntries
		dropped += rep.DroppedEntries
	}
	fmt.Printf("resume: continued at hour %d (%d entries salvaged, %d beyond the boundary regenerated)\n",
		reports[0].StartHour, recovered, dropped)
}
