// Command chisim runs the chiSIM-style agent-based simulation: it
// generates a synthetic population, simulates daily activity schedules at
// one-hour resolution on a set of simulated ranks, and writes one
// event-based activity log per rank (Sections II-III of the paper).
// Given -o or -snapshot, every rank then synthesizes the collocation
// network of the run's whole span from all the ranks' logs (Section IV)
// on the same transport, and rank 0 writes it.
//
// Usage (single process, ranks as goroutines):
//
//	chisim -persons 20000 -days 28 -ranks 16 -logdir logs
//	chisim -persons 20000 -days 7 -ranks 4 -logdir logs -o network.tsv -snapshot network.gsnap
//
// Distributed usage (one OS process per rank, TCP transport; every
// process must receive identical -persons/-days/-seed/-ranks values,
// which make them generate identical populations, schedules and place
// partitions, and the same -logdir on a shared filesystem):
//
//	chisim -persons 20000 -days 28 -ranks 4 -dist-host :7946 -o network.tsv  # rank 0
//	chisim -persons 20000 -days 28 -ranks 4 -dist-join host:7946              # ranks 1..3
//
// Both run the same rank program and differ only in the transport. Its
// first collective carries rank 0's plan to every rank: whether the run
// synthesizes after the simulation, and whether spans are on, so only
// rank 0 needs -o, -snapshot or -report. Rank 0 prints the summary and
// writes the outputs and the run report.
//
// Under a supervisor (cmd/netlaunch), each worker additionally pins its
// rank with -dist-rank and discovers the coordinator through -dist-join
// @file (the address file rank 0 publishes with -dist-addr-file); a run
// whose rank 0 fails is relaunched as a whole with -resume. Every rank
// prints a line containing "synthesis begins" as its synthesis starts.
// Exit codes tell the supervisor what happened: 0 success, 2 cooperative
// drain after SIGINT/SIGTERM, 1 real failure.
//
// A SIGINT or SIGTERM stops the run gracefully at the next simulated
// hour: every rank flushes and closes its log with a valid footer, and
// the run can be continued later with -resume (a second signal kills
// the process, exit 1). -resume also recovers
// from hard crashes (kill -9, power loss): each rank salvages the
// intact prefix of its log, the ranks agree on a common resume hour,
// and the finished logs match an uninterrupted run. A run whose logs
// are complete resumes straight into the synthesis.
//
//	chisim -persons 20000 -days 28 -ranks 16 -logdir logs -resume
//
// The logs/rankNNNN.h5l files also feed cmd/netsynth, which cuts any
// other slice of them after the fact.
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
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/supervise"
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
	out := flag.String("o", "", "after the simulation, synthesize the run's network on every rank and write its edge list here (rank 0)")
	snapshot := flag.String("snapshot", "", "after the simulation, synthesize the run's network on every rank and write its indexed .gsnap snapshot here (rank 0)")
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
		job := &rankJob{
			logdir: *logdir, resume: *resume, out: *out, snapshot: *snapshot,
			personDays: *persons * *days, tel: tel,
		}
		cfg := p.SimConfig(*logdir)
		if dist.Enabled() {
			node, err := dist.Open(cfg.Ranks)
			if err != nil {
				return err
			}
			defer node.Close()
			return job.run(ctx, node, cfg)
		}
		// Goroutine ranks share one population, so the partition is
		// computed once here rather than by every rank.
		if cfg.Assign, err = partition.Default(cfg.Pop, cfg.Gen, cfg.Days, cfg.Ranks); err != nil {
			return err
		}
		return mpi.Run(cfg.Ranks, func(t mpi.Transport) error { return job.run(ctx, t, cfg) })
	})
}

// rankJob is what every rank of a chisim run does besides simulating.
type rankJob struct {
	logdir        string
	resume        bool
	out, snapshot string
	personDays    int
	tel           *cmdrun.Telemetry
}

// Bits of the plan rank 0 sends every rank before the simulation.
const (
	planSynth byte = 1 << iota // synthesize after the simulation
	planSpans                  // retain spans, so workers ship their synthesis trees
)

// run is the rank program, on goroutine ranks and process ranks alike:
// agree on rank 0's plan, simulate or resume this rank, then synthesize
// if the plan says so. The simulation state is dropped before the
// synthesis: cfg is not used after the simulation returns.
func (j *rankJob) run(ctx context.Context, t mpi.Transport, cfg abm.Config) error {
	plan, err := j.agree(ctx, t)
	if err != nil {
		return err
	}
	hours := uint32(cfg.Days * schedule.HoursPerDay)
	start := time.Now()
	var res *abm.Result
	var reports []*abm.ResumeReport
	if j.resume {
		res, reports, err = abm.ResumeOn(ctx, t, cfg)
	} else {
		res, err = abm.RunOn(ctx, t, cfg)
	}
	if errors.Is(err, context.Canceled) {
		// An interrupted run is a stopped run: every log has a valid
		// footer, so the supervisor must not charge it as a failure.
		return fmt.Errorf("logs in %s are intact — rerun with -resume to continue: %w", j.logdir, err)
	}
	if err != nil {
		return err
	}
	if res != nil { // rank 0
		j.printRun(res, reports, time.Since(start))
	}
	if plan&planSynth != 0 {
		return j.synthesize(ctx, t, hours)
	}
	if res == nil {
		return nil
	}
	return j.tel.WriteReport(runReport(res.PerRank))
}

// agree is the run's first collective: rank 0 sends every rank its
// plan, and a worker follows it.
func (j *rankJob) agree(ctx context.Context, t mpi.Transport) (byte, error) {
	out := make([][]byte, t.Size())
	if t.Rank() == 0 {
		var plan byte
		if j.out != "" || j.snapshot != "" {
			plan |= planSynth
		}
		if telemetry.Enabled() {
			plan |= planSpans
		}
		for r := range out {
			out[r] = []byte{plan}
		}
	}
	// Every rank takes part in this round; a cancellation is observed
	// by the simulation at its first hour, on every rank alike.
	in, err := t.Exchange(context.WithoutCancel(ctx), out)
	if err != nil {
		return 0, err
	}
	if len(in[0]) != 1 {
		return 0, fmt.Errorf("chisim: rank 0 sent a %d-byte plan, want 1", len(in[0]))
	}
	plan := in[0][0]
	if plan&planSpans != 0 {
		telemetry.SetEnabled(true)
	}
	return plan, nil
}

// synthesize builds the network of hours [0, hours) from every rank's
// log on the transport the simulation ran on; a rank lost on the way is
// re-striped over by the survivors. Rank 0 writes the network and the
// run report, which carries its abm/rank span and every live rank's
// synth/rank tree in one trace.
func (j *rankJob) synthesize(ctx context.Context, t mpi.Transport, hours uint32) error {
	paths := make([]string, t.Size())
	for r := range paths {
		paths[r] = abm.LogPath(j.logdir, r)
	}
	fmt.Printf("rank %d: %s: hours [0,%d) of %d logs\n", t.Rank(), supervise.SynthesisLine, hours, len(paths))
	start := time.Now()
	tri, rep, err := core.SynthesizeDistributed(ctx, t, paths, 0, hours, core.Config{})
	if err != nil || t.Rank() != 0 {
		return err
	}
	fmt.Printf("network: %d vertices, %d edges, total weight %d, synthesized in %s\n",
		tri.Vertices(), tri.NNZ(), tri.TotalWeight(), time.Since(start).Round(time.Millisecond))
	if err := cmdrun.WriteNetwork(j.out, j.snapshot, tri); err != nil {
		return err
	}
	if rep == nil {
		// The report gather lost a rank after the network was safe;
		// rank 0's own spans still tell the run.
		rep = telemetry.Default.Report("chisim")
	}
	rep.Command = "chisim"
	// The simulation belongs to the run's trace too: `netstat trace`
	// shows the abm/rank trees beside the synthesis.
	for i := range rep.Spans {
		if rep.Spans[i].Name == "abm/rank" {
			rep.Spans[i].TraceID = rep.TraceID
		}
	}
	return j.tel.WriteReport(rep)
}

// printRun is rank 0's summary of the simulation.
func (j *rankJob) printRun(res *abm.Result, reports []*abm.ResumeReport, wall time.Duration) {
	printResumeReport(reports)
	fmt.Printf("simulated %d hours on %d ranks in %s\n", res.Steps, len(res.PerRank), wall.Round(time.Millisecond))
	fmt.Printf("events logged: %d (%.2f per person-day), %d chunked writes\n",
		res.Entries, float64(res.Entries)/float64(j.personDays), res.Flushes)
	fmt.Printf("log volume: %.2f MB across %d files in %s\n",
		float64(res.LogBytes)/(1<<20), len(res.LogPaths), j.logdir)
	fmt.Printf("agent moves: %d local, %d inter-rank migrations\n", res.LocalMoves, res.Migrations)
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
