// Command netlaunch runs the distributed pipeline as a supervised tree
// of OS processes: it spawns one chisim process per rank, each of which
// simulates (abm.RunOn) and then synthesizes (core.SynthesizeDistributed)
// on the same transport, watches their exits, and applies the one
// recovery rule of internal/supervise — rank 0 decides the run — with
// bounded exponential backoff and jitter between gang relaunches.
//
//	netlaunch -ranks 4 -persons 20000 -days 7 -workdir out
//
// A rank dying in the simulation (even kill -9) fails rank 0 promptly
// via mpinet's failure detector; netlaunch relaunches every rank with
// -resume, and abm.ResumeOn replays the logs to a state bit-identical
// to an uninterrupted run. A worker dying in the synthesis is not
// restarted: the survivors see its death at their next round and
// re-stripe its files, rank 0 writes the same network, and the worker
// is recorded degraded. If rank 0 dies in the synthesis, the relaunch
// resumes the complete logs straight into the synthesis.
//
// Chaos testing is built in: -kill-rank/-kill-after/-kill-phase aim a
// kill -9 at a rank a fixed delay after its process starts (sim) or
// after it prints that its synthesis begins (synth), which is how
// scripts/check.sh proves crash-recovery end to end. -bench writes a
// machine-readable scale record (agent-steps/sec, the simulation and
// synthesis walls from rank 0's spans, peak RSS per rank), and -report
// writes a run report whose supervision section `netstat report`
// renders and whose cluster trace `netstat trace` renders.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cmdrun"
	"repro/internal/faultinject"
	"repro/internal/schedule"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func main() {
	persons := flag.Int("persons", 20000, "synthetic population size")
	days := flag.Int("days", 7, "simulated days")
	seed := flag.Uint64("seed", 2017, "root random seed")
	ranks := flag.Int("ranks", 4, "rank process count (one OS process per rank)")
	workdir := flag.String("workdir", "netlaunch-out", "working directory for logs, address files and outputs")
	out := flag.String("o", "", "output edge-list path (default workdir/network.tsv)")
	snapshot := flag.String("snapshot", "", "binary .gsnap snapshot path (default workdir/network.gsnap)")
	chisimBin := flag.String("chisim", "", "chisim binary (default: next to this executable, else $PATH)")
	maxRestarts := flag.Int("max-restarts", 3, "budget of gang relaunches after rank 0 fails; negative disables them")
	backoffBase := flag.Duration("backoff-base", 250*time.Millisecond, "first gang relaunch delay (doubles per attempt, full jitter)")
	backoffCap := flag.Duration("backoff-cap", 5*time.Second, "gang relaunch delay cap")
	roundTimeout := flag.Duration("round-timeout", 0, "per-collective deadline: declare the slowest rank failed when a round stalls this long (0 = off)")
	hourDelay := flag.Duration("hour-delay", 0, "slow the simulation by this much per simulated hour (chaos/testing aid)")
	killRank := flag.Int("kill-rank", -1, "chaos: kill -9 this rank once (-1 = off)")
	killAfter := flag.Duration("kill-after", 2*time.Second, "chaos: delay between the victim's process start (sim) or synthesis start (synth) and the kill")
	killPhase := flag.String("kill-phase", "sim", "chaos: phase to kill in (sim or synth)")
	benchPath := flag.String("bench", "", "write a JSON scale record (agent-steps/sec, walls, peak RSS per rank) to this path")
	reportPath := flag.String("report", "", "write a JSON run report with the supervision section to this path (render with `netstat report` / `netstat trace`)")
	observeAddr := flag.String("observe-addr", "", "serve the cluster observability plane on this address: merged per-rank-labeled /metrics and a /cluster JSON summary")
	observeAddrFile := flag.String("observe-addr-file", "", "write the observe plane's bound address to this file (for :0 ephemeral ports)")
	scrapeInterval := flag.Duration("scrape-interval", time.Second, "how often the observe plane scrapes each rank's telemetry /snapshot")
	flag.Parse()

	cmdrun.Main("netlaunch", func(ctx context.Context) error {
		if *ranks < 1 {
			return fmt.Errorf("-ranks must be ≥ 1, got %d", *ranks)
		}
		if *killPhase != "sim" && *killPhase != "synth" {
			return fmt.Errorf("-kill-phase must be sim or synth, got %q", *killPhase)
		}
		if *out == "" {
			*out = filepath.Join(*workdir, "network.tsv")
		}
		if *snapshot == "" {
			*snapshot = filepath.Join(*workdir, "network.gsnap")
		}
		logsDir := filepath.Join(*workdir, "logs")
		if err := os.MkdirAll(logsDir, 0o755); err != nil {
			return err
		}
		bin, err := resolveChisim(*chisimBin)
		if err != nil {
			return err
		}
		if *reportPath != "" {
			telemetry.SetEnabled(true)
		}

		// The observe plane: one scrape target for the whole run. Each
		// supervised rank gets a telemetry server plus an address file;
		// the observer merges their /snapshot scrapes into labeled
		// /metrics and a /cluster summary.
		var obs *observer
		if *observeAddr != "" {
			telemetry.SetEnabled(true)
			obs = newObserver(*workdir, *ranks, *scrapeInterval)
			if err := obs.start(*observeAddr, *observeAddrFile); err != nil {
				return err
			}
			defer obs.close()
		}

		// Rank 0's run report — its simulation span, the cluster trace
		// of the synthesis and the per-rank walls — feeds -bench,
		// -report and /cluster.
		g := &gang{
			bin: bin, persons: *persons, days: *days, ranks: *ranks, seed: *seed,
			hourDelay: *hourDelay, roundTimeout: *roundTimeout,
			logsDir: logsDir, addrFile: filepath.Join(*workdir, "coord.addr"),
			out: *out, snapshot: *snapshot, obs: obs,
			chaos: &chaosKiller{phase: *killPhase, rank: *killRank, after: *killAfter},
		}
		if *benchPath != "" || *reportPath != "" || obs != nil {
			g.report = filepath.Join(*workdir, "rank0-report.json")
			os.Remove(g.report)
		}
		// A canceled ctx (the first SIGINT/SIGTERM) propagates to the
		// children as a cooperative drain: they exit ExitCanceled.
		pol := supervise.Policy{
			MaxRelaunches: *maxRestarts,
			BackoffBase:   *backoffBase,
			BackoffCap:    *backoffCap,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "netlaunch: "+format+"\n", args...)
			},
			OnStart: g.chaos.started,
		}
		build := func(attempt int) []supervise.Spec {
			// A stale address file would point relaunched workers at the
			// dead coordinator; remove it before rank 0 rebinds.
			os.Remove(g.addrFile)
			if obs != nil {
				obs.setPhase("sim")
			}
			return g.specs(attempt)
		}
		start := time.Now()
		sup, err := supervise.New(pol).RunGang(ctx, build)
		wall := time.Since(start)
		// nil when there is none: no -bench/-report/-observe-addr, or
		// rank 0 died.
		rankRep, _ := telemetry.ReadReportFile(g.report)
		if obs != nil {
			obs.addSupervision(*sup)
			if rankRep != nil {
				obs.setSynthReport(rankRep)
			}
		}
		// The artifacts are written on failure too, so a chaos run that
		// gave up still leaves its record.
		writeArtifacts(*benchPath, *reportPath, *sup, rankRep, *persons, *days, *ranks)
		if err != nil {
			return err
		}
		degraded := []int{}
		for _, r := range sup.Ranks {
			if r.Degraded {
				degraded = append(degraded, r.Rank)
			}
		}
		fmt.Printf("netlaunch: run done in %s (%d gang restart(s), degraded ranks %v)\n",
			wall.Round(time.Millisecond), sup.GangRestarts, degraded)
		fmt.Printf("netlaunch: network → %s (snapshot %s)\n", *out, *snapshot)
		if obs != nil {
			obs.setPhase("done")
		}
		return nil
	})
}

// gang is the run's one command line, per rank and launch attempt.
type gang struct {
	bin                     string
	persons, days, ranks    int
	seed                    uint64
	hourDelay, roundTimeout time.Duration
	logsDir, addrFile       string
	// out, snapshot and report are rank 0's outputs; report may be "".
	out, snapshot, report string
	obs                   *observer
	chaos                 *chaosKiller
}

// specs is every rank's process for a launch attempt: every attempt
// after the first resumes. Rank 0 hosts the coordinator, publishes its
// address to addrFile and writes the outputs; the other ranks join
// through that file under a pinned rank.
func (g *gang) specs(attempt int) []supervise.Spec {
	common := []string{
		"-persons", fmt.Sprint(g.persons),
		"-days", fmt.Sprint(g.days),
		"-seed", fmt.Sprint(g.seed),
		"-ranks", fmt.Sprint(g.ranks),
		"-logdir", g.logsDir,
	}
	if g.hourDelay > 0 {
		common = append(common, "-hour-delay", g.hourDelay.String())
	}
	if attempt > 0 {
		common = append(common, "-resume")
	}
	specs := make([]supervise.Spec, g.ranks)
	for r := range specs {
		args := append([]string(nil), common...)
		if g.obs != nil {
			args = append(args,
				"-telemetry-addr", "127.0.0.1:0",
				"-telemetry-addr-file", g.obs.telemetryAddrFile(r))
		}
		if r == 0 {
			args = append(args,
				"-dist-host", "127.0.0.1:0",
				"-dist-addr-file", g.addrFile)
			if g.roundTimeout > 0 {
				args = append(args, "-dist-round-timeout", g.roundTimeout.String())
			}
			args = append(args, "-o", g.out, "-snapshot", g.snapshot)
			if g.report != "" {
				args = append(args, "-report", g.report)
			}
		} else {
			args = append(args,
				"-dist-join", "@"+g.addrFile,
				"-dist-rank", fmt.Sprint(r))
		}
		specs[r] = supervise.Spec{
			Rank: r, Path: g.bin, Args: args,
			Stdout: g.stdout(r), Stderr: os.Stderr,
		}
	}
	return specs
}

// stdout is rank r's output sink. The line a rank prints as its
// synthesis begins moves /cluster's phase (rank 0) and fires a
// synthesis kill (the victim).
func (g *gang) stdout(r int) io.Writer {
	phase := r == 0 && g.obs != nil
	kill := g.chaos.phase == "synth" && r == g.chaos.rank
	if !phase && !kill {
		return os.Stdout
	}
	return synthWatch(func(p []byte) (int, error) {
		if bytes.Contains(p, []byte(supervise.SynthesisLine)) {
			if phase {
				g.obs.setPhase("synth")
			}
			if kill {
				g.chaos.fire()
			}
		}
		return os.Stdout.Write(p)
	})
}

// synthWatch is a rank's watched output; the supervisor writes it one
// line per Write.
type synthWatch func(p []byte) (int, error)

func (w synthWatch) Write(p []byte) (int, error) { return w(p) }

// chaosKiller aims one kill -9 at a configured rank, a fixed delay
// after its process starts (sim) or after it says its synthesis begins
// (synth). It fires at most once per netlaunch run, so a relaunched
// gang survives.
type chaosKiller struct {
	phase string
	rank  int
	after time.Duration
	pid   atomic.Int64 // the victim's current process
	fired atomic.Bool
}

// started is the supervisor's OnStart hook.
func (c *chaosKiller) started(rank, pid int) {
	if rank != c.rank {
		return
	}
	c.pid.Store(int64(pid))
	if c.phase == "sim" {
		c.fire()
	}
}

func (c *chaosKiller) fire() {
	if !c.fired.CompareAndSwap(false, true) {
		return
	}
	pid := int(c.pid.Load())
	fmt.Fprintf(os.Stderr, "netlaunch: chaos: kill -9 rank %d (pid %d) in %s\n", c.rank, pid, c.after)
	faultinject.KillAfter(pid, c.after)
}

// benchRecord is the machine-readable scale record (-bench): the
// first-class numbers ROADMAP tracks for the scaling story.
type benchRecord struct {
	Meta          telemetry.BenchMeta `json:"meta"`
	CreatedUnixNs int64               `json:"created_unix_ns"`
	Persons       int                 `json:"persons"`
	Days          int                 `json:"days"`
	Ranks         int                 `json:"ranks"`
	// SimWallNs is rank 0's abm/rank span: its simulation of the last
	// attempt, after population generation and the join.
	SimWallNs int64 `json:"sim_wall_ns"`
	// AgentStepsPerSec is persons × simulated hours / sim wall — the
	// simulator's aggregate throughput under supervision.
	AgentStepsPerSec float64 `json:"agent_steps_per_sec"`
	// SynthWallNs is rank 0's synth/distributed span: the distributed
	// synthesis up to the merged network, before the outputs are
	// written.
	SynthWallNs int64 `json:"synth_wall_ns"`
	// Supervision is the run's supervision outcome, including peak RSS
	// per rank.
	Supervision []telemetry.SupervisionReport `json:"supervision,omitempty"`
}

// phaseWalls reads the simulation and synthesis walls off rank 0's
// spans; both are 0 without its report.
func phaseWalls(rep *telemetry.Report) (sim, synth int64) {
	if rep == nil {
		return 0, 0
	}
	for _, sp := range rep.Spans {
		switch {
		case sp.Name == "abm/rank" && sp.Rank == 0:
			sim = sp.WallNs
		case sp.Name == "synth/distributed":
			synth = sp.WallNs
		}
	}
	return sim, synth
}

// writeArtifacts writes the -bench and -report outputs (either may be
// disabled).
func writeArtifacts(benchPath, reportPath string, sup telemetry.SupervisionReport, rankRep *telemetry.Report, persons, days, ranks int) {
	if benchPath != "" {
		rec := benchRecord{
			Meta: telemetry.NewBenchMeta("netlaunch", map[string]string{
				"persons": fmt.Sprint(persons),
				"days":    fmt.Sprint(days),
				"ranks":   fmt.Sprint(ranks),
			}),
			CreatedUnixNs: time.Now().UnixNano(),
			Persons:       persons,
			Days:          days,
			Ranks:         ranks,
			Supervision:   []telemetry.SupervisionReport{sup},
		}
		rec.SimWallNs, rec.SynthWallNs = phaseWalls(rankRep)
		if rec.SimWallNs > 0 {
			steps := float64(persons) * float64(days*schedule.HoursPerDay)
			rec.AgentStepsPerSec = steps / time.Duration(rec.SimWallNs).Seconds()
		}
		blob, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(benchPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "netlaunch: writing bench record: %v\n", err)
		} else {
			fmt.Printf("netlaunch: bench record → %s\n", benchPath)
		}
	}
	if reportPath != "" {
		rep := telemetry.Default.Report("netlaunch")
		rep.Supervision = []telemetry.SupervisionReport{sup}
		if rankRep != nil {
			// Fold rank 0's report in so one file carries the whole run:
			// netlaunch's own metrics plus the cluster trace (rank walls,
			// trace id, rank 0's simulation span, every rank's synthesis).
			rep.TraceID = rankRep.TraceID
			rep.Ranks = rankRep.Ranks
			rep.Spans = append(rep.Spans, rankRep.Spans...)
			rep.Stages = append(rep.Stages, rankRep.Stages...)
		}
		if err := rep.WriteFile(reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "netlaunch: writing report: %v\n", err)
		} else {
			fmt.Printf("netlaunch: run report → %s\n", reportPath)
		}
	}
}

// resolveChisim finds the rank binary: -chisim wins; otherwise try next
// to this executable (the `go build -o bin/ ./...` layout), then fall
// back to $PATH.
func resolveChisim(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "chisim")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	path, err := exec.LookPath("chisim")
	if err != nil {
		return "", fmt.Errorf("chisim not found next to this executable or in $PATH (use -chisim)")
	}
	return path, nil
}
