// Command netlaunch runs the distributed pipeline as a supervised tree
// of OS processes: it spawns one chisim process per rank for the
// simulation phase and one netsynth process per rank for the synthesis
// phase, watches their exits, and applies the recovery policy from
// internal/supervise — gang relaunches with bounded exponential backoff
// and jitter for the simulation, graceful degradation for the synthesis.
//
//	netlaunch -ranks 4 -persons 20000 -days 7 -workdir out
//
// The recovery strategy differs per phase. A simulation rank dying
// (even kill -9) aborts the gang promptly via mpinet's failure
// detector; netlaunch relaunches every rank with -resume, and
// abm.ResumeOn replays the logs to a state bit-identical to an
// uninterrupted run. A synthesis rank dying — or never joining within
// the coordinator's join window — is not restarted: the survivors
// re-stripe its files (graceful degradation) and the output network is
// bit-identical to an unfailed run.
//
// Chaos testing is built in: -kill-rank/-kill-after/-kill-phase aim a
// kill -9 at a rank a fixed delay after it starts, which is how
// scripts/check.sh proves crash-recovery end to end. -bench writes a
// machine-readable scale record (agent-steps/sec, phase walls, peak
// RSS per rank), and -report writes a run report whose supervision
// section `netstat report` renders.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cmdrun"
	"repro/internal/faultinject"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func main() {
	persons := flag.Int("persons", 20000, "synthetic population size")
	days := flag.Int("days", 7, "simulated days")
	seed := flag.Uint64("seed", 2017, "root random seed")
	ranks := flag.Int("ranks", 4, "rank process count (one OS process per rank, both phases)")
	t0 := flag.Uint("t0", 0, "synthesis slice start hour (inclusive)")
	t1 := flag.Uint("t1", 0, "synthesis slice end hour (exclusive; 0 = full run)")
	workdir := flag.String("workdir", "netlaunch-out", "working directory for logs, address files and outputs")
	out := flag.String("o", "", "output edge-list path (default workdir/network.tsv)")
	snapshot := flag.String("snapshot", "", "binary .gsnap snapshot path (default workdir/network.gsnap)")
	chisimBin := flag.String("chisim", "", "chisim binary (default: next to this executable, else $PATH)")
	netsynthBin := flag.String("netsynth", "", "netsynth binary (default: next to this executable, else $PATH)")
	maxRestarts := flag.Int("max-restarts", 3, "budget of gang relaunches in the simulation phase; negative disables them (synthesis ranks are never restarted)")
	backoffBase := flag.Duration("backoff-base", 250*time.Millisecond, "first gang relaunch delay (doubles per attempt, full jitter)")
	backoffCap := flag.Duration("backoff-cap", 5*time.Second, "gang relaunch delay cap")
	roundTimeout := flag.Duration("round-timeout", 0, "per-collective deadline: declare the slowest rank failed when a round stalls this long (0 = off)")
	hourDelay := flag.Duration("hour-delay", 0, "slow the simulation by this much per simulated hour (chaos/testing aid)")
	skipSim := flag.Bool("skip-sim", false, "reuse the event logs already in workdir/logs and run only the synthesis phase")
	killRank := flag.Int("kill-rank", -1, "chaos: kill -9 this rank once (-1 = off)")
	killAfter := flag.Duration("kill-after", 2*time.Second, "chaos: delay between the victim starting and the kill")
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
		if *t1 == 0 {
			*t1 = uint(*days) * 24
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
		simBin, err := resolveBin(*chisimBin, "chisim")
		if err != nil {
			return err
		}
		synthBin, err := resolveBin(*netsynthBin, "netsynth")
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

		// A canceled ctx (the first SIGINT/SIGTERM) propagates to the
		// children as a cooperative drain: they exit ExitCanceled.
		chaos := &chaosKiller{phase: *killPhase, rank: *killRank, after: *killAfter}
		pol := supervise.Policy{
			MaxRelaunches: *maxRestarts,
			BackoffBase:   *backoffBase,
			BackoffCap:    *backoffCap,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "netlaunch: "+format+"\n", args...)
			},
		}

		var supervision []telemetry.SupervisionReport
		var simWall time.Duration

		if !*skipSim {
			if obs != nil {
				obs.setPhase("sim")
			}
			simStart := time.Now()
			simRes, err := runSimPhase(ctx, simBin, logsDir, *workdir, simArgs{
				Persons: *persons, Days: *days, Seed: *seed, Ranks: *ranks,
				HourDelay: *hourDelay, RoundTimeout: *roundTimeout,
			}, pol, chaos, obs)
			simWall = time.Since(simStart)
			if simRes != nil {
				supervision = append(supervision, *simRes)
				if obs != nil {
					obs.addSupervision(*simRes)
				}
			}
			if err != nil {
				return fmt.Errorf("simulation phase: %w", err)
			}
			fmt.Printf("netlaunch: simulation phase done in %s (%d gang restart(s))\n",
				simWall.Round(time.Millisecond), simRes.GangRestarts)
		}

		paths, err := filepath.Glob(filepath.Join(logsDir, "rank*.h5l"))
		if err != nil || len(paths) == 0 {
			return fmt.Errorf("no event logs in %s (err=%v)", logsDir, err)
		}
		sort.Strings(paths)

		if obs != nil {
			obs.setPhase("synth")
		}
		// Rank 0 of the synthesis writes its run report — per-rank
		// busy/comm/idle walls, the cluster trace id, and every rank's
		// span trees — which netlaunch folds into its own report and
		// /cluster summary after the phase.
		synthReportPath := ""
		if obs != nil || *reportPath != "" {
			synthReportPath = filepath.Join(*workdir, "synth-report.json")
			os.Remove(synthReportPath)
		}
		synthStart := time.Now()
		synthRes, err := runSynthPhase(ctx, synthBin, *workdir, paths, synthArgs{
			T0: uint32(*t0), T1: uint32(*t1), Ranks: *ranks,
			Out: *out, Snapshot: *snapshot, RoundTimeout: *roundTimeout,
			ReportPath: synthReportPath,
		}, pol, chaos, obs)
		synthWall := time.Since(synthStart)
		if synthRes != nil {
			supervision = append(supervision, *synthRes)
			if obs != nil {
				obs.addSupervision(*synthRes)
			}
		}
		synthRep := readSynthReport(synthReportPath)
		if obs != nil && synthRep != nil {
			obs.setSynthReport(synthRep)
		}
		// The artifacts are written on synthesis failure too, so a chaos
		// run that degrades still leaves its record.
		writeArtifacts(*benchPath, *reportPath, supervision, synthRep, benchInputs{
			Persons: *persons, Days: *days, Ranks: *ranks,
			SimWall: simWall, SynthWall: synthWall, SkippedSim: *skipSim,
		})
		if err != nil {
			return fmt.Errorf("synthesis phase: %w", err)
		}
		degraded := []int{}
		for _, r := range synthRes.Ranks {
			if r.Degraded {
				degraded = append(degraded, r.Rank)
			}
		}
		fmt.Printf("netlaunch: synthesis phase done in %s (degraded ranks %v)\n",
			synthWall.Round(time.Millisecond), degraded)
		fmt.Printf("netlaunch: network → %s (snapshot %s)\n", *out, *snapshot)
		if obs != nil {
			obs.setPhase("done")
		}
		return nil
	})
}

// readSynthReport loads rank 0's synthesis run report, nil when the
// phase did not produce one (no -report/-observe-addr, or rank 0 died).
func readSynthReport(path string) *telemetry.Report {
	if path == "" {
		return nil
	}
	rep, err := telemetry.ReadReportFile(path)
	if err != nil {
		return nil
	}
	return rep
}

// simArgs/synthArgs carry the per-phase parameters into the spec
// builders.
type simArgs struct {
	Persons, Days, Ranks int
	Seed                 uint64
	HourDelay            time.Duration
	RoundTimeout         time.Duration
}

type synthArgs struct {
	T0, T1        uint32
	Ranks         int
	Out, Snapshot string
	RoundTimeout  time.Duration
	// ReportPath, when set, makes rank 0 write its run report (rank
	// walls, trace id, span trees) there for netlaunch to fold in.
	ReportPath string
}

// runSimPhase supervises the simulation as a gang: any rank dying
// triggers a full relaunch with -resume, which replays every log to the
// canonical state.
func runSimPhase(ctx context.Context, bin, logsDir, workdir string, a simArgs, pol supervise.Policy, chaos *chaosKiller, obs *observer) (*telemetry.SupervisionReport, error) {
	addrFile := filepath.Join(workdir, "sim.addr")
	build := func(attempt int) []supervise.Spec {
		// A stale address file would point relaunched workers at the
		// dead coordinator; remove it before rank 0 rebinds.
		os.Remove(addrFile)
		return simSpecs(bin, logsDir, addrFile, a, obs, attempt)
	}
	pol.OnStart = chaos.hook("sim")
	s := supervise.New(build(0), pol)
	return s.RunGang(ctx, build)
}

// simSpecs is the simulation's command line per rank; every attempt
// after the first resumes.
func simSpecs(bin, logsDir, addrFile string, a simArgs, obs *observer, attempt int) []supervise.Spec {
	common := []string{
		"-persons", fmt.Sprint(a.Persons),
		"-days", fmt.Sprint(a.Days),
		"-seed", fmt.Sprint(a.Seed),
		"-ranks", fmt.Sprint(a.Ranks),
		"-logdir", logsDir,
	}
	if a.HourDelay > 0 {
		common = append(common, "-hour-delay", a.HourDelay.String())
	}
	if attempt > 0 {
		common = append(common, "-resume")
	}
	return rankSpecs(bin, a.Ranks, common, addrFile, a.RoundTimeout, obs, func(int) []string { return nil })
}

// runSynthPhase supervises the synthesis one process per rank: a dead
// worker stays dead while the survivors re-stripe its files.
func runSynthPhase(ctx context.Context, bin, workdir string, paths []string, a synthArgs, pol supervise.Policy, chaos *chaosKiller, obs *observer) (*telemetry.SupervisionReport, error) {
	addrFile := filepath.Join(workdir, "synth.addr")
	os.Remove(addrFile)
	pol.OnStart = chaos.hook("synth")
	s := supervise.New(synthSpecs(bin, addrFile, paths, a, obs), pol)
	return s.RunPerRank(ctx)
}

// synthSpecs is the synthesis's command line per rank: rank 0 sizes
// the cluster and writes the outputs, and every rank lists the logs.
func synthSpecs(bin, addrFile string, paths []string, a synthArgs, obs *observer) []supervise.Spec {
	common := []string{
		"-t0", fmt.Sprint(a.T0),
		"-t1", fmt.Sprint(a.T1),
	}
	return rankSpecs(bin, a.Ranks, common, addrFile, a.RoundTimeout, obs, func(r int) []string {
		var own []string
		if r == 0 {
			own = []string{"-dist-size", fmt.Sprint(a.Ranks), "-o", a.Out, "-snapshot", a.Snapshot}
			if a.ReportPath != "" {
				own = append(own, "-report", a.ReportPath)
			}
		}
		return append(own, paths...)
	})
}

// rankSpecs builds one spec per rank of a phase whose rank 0 hosts the
// coordinator and publishes its address to addrFile, and whose other
// ranks join through that file under a pinned rank. A rank's arguments
// are common, the telemetry pair when the observe plane is on, the
// hosting or joining flags, then the phase's own(r).
func rankSpecs(bin string, ranks int, common []string, addrFile string, roundTimeout time.Duration, obs *observer, own func(r int) []string) []supervise.Spec {
	specs := make([]supervise.Spec, ranks)
	for r := range specs {
		args := append([]string(nil), common...)
		if obs != nil {
			args = append(args,
				"-telemetry-addr", "127.0.0.1:0",
				"-telemetry-addr-file", obs.telemetryAddrFile(r))
		}
		if r == 0 {
			args = append(args,
				"-dist-host", "127.0.0.1:0",
				"-dist-addr-file", addrFile)
			if roundTimeout > 0 {
				args = append(args, "-dist-round-timeout", roundTimeout.String())
			}
		} else {
			args = append(args,
				"-dist-join", "@"+addrFile,
				"-dist-rank", fmt.Sprint(r))
		}
		specs[r] = supervise.Spec{
			Rank: r, Path: bin, Args: append(args, own(r)...),
			Stdout: os.Stdout, Stderr: os.Stderr,
		}
	}
	return specs
}

// chaosKiller aims one kill -9 at a configured rank in a configured
// phase, a fixed delay after that rank's process starts. It fires at
// most once per netlaunch run, so a relaunched gang survives.
type chaosKiller struct {
	phase string
	rank  int
	after time.Duration
	fired atomic.Bool
}

func (c *chaosKiller) hook(phase string) func(rank, pid int) {
	if c == nil || c.rank < 0 || c.phase != phase {
		return nil
	}
	return func(rank, pid int) {
		if rank != c.rank {
			return
		}
		if !c.fired.CompareAndSwap(false, true) {
			return
		}
		fmt.Fprintf(os.Stderr, "netlaunch: chaos: kill -9 rank %d (pid %d) in %s\n", rank, pid, c.after)
		faultinject.KillAfter(pid, c.after)
	}
}

// benchInputs feeds the BENCH_scale record.
type benchInputs struct {
	Persons, Days, Ranks int
	SimWall, SynthWall   time.Duration
	SkippedSim           bool
}

// benchRecord is the machine-readable scale record (-bench): the
// first-class numbers ROADMAP tracks for the scaling story.
type benchRecord struct {
	Meta          telemetry.BenchMeta `json:"meta"`
	CreatedUnixNs int64               `json:"created_unix_ns"`
	Persons       int                 `json:"persons"`
	Days          int                 `json:"days"`
	Ranks         int                 `json:"ranks"`
	// SimWallNs is the supervised simulation phase wall (0 when the
	// phase was skipped).
	SimWallNs int64 `json:"sim_wall_ns"`
	// AgentStepsPerSec is persons × simulated hours / sim wall — the
	// simulator's aggregate throughput under supervision.
	AgentStepsPerSec float64 `json:"agent_steps_per_sec"`
	// SynthWallNs is the supervised synthesis phase wall.
	SynthWallNs int64 `json:"synth_wall_ns"`
	// Supervision repeats the per-phase supervision outcome, including
	// peak RSS per rank.
	Supervision []telemetry.SupervisionReport `json:"supervision,omitempty"`
}

// writeArtifacts writes the -bench and -report outputs (either may be
// disabled).
func writeArtifacts(benchPath, reportPath string, supervision []telemetry.SupervisionReport, synthRep *telemetry.Report, in benchInputs) {
	if benchPath != "" {
		rec := benchRecord{
			Meta: telemetry.NewBenchMeta("netlaunch", map[string]string{
				"persons": fmt.Sprint(in.Persons),
				"days":    fmt.Sprint(in.Days),
				"ranks":   fmt.Sprint(in.Ranks),
			}),
			CreatedUnixNs: time.Now().UnixNano(),
			Persons:       in.Persons,
			Days:          in.Days,
			Ranks:         in.Ranks,
			SimWallNs:     int64(in.SimWall),
			SynthWallNs:   int64(in.SynthWall),
			Supervision:   supervision,
		}
		if !in.SkippedSim && in.SimWall > 0 {
			steps := float64(in.Persons) * float64(in.Days) * 24
			rec.AgentStepsPerSec = steps / in.SimWall.Seconds()
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
		rep.Supervision = supervision
		if synthRep != nil {
			// Fold the rank-0 synthesis report in so one file carries the
			// whole run: netlaunch's own metrics plus the distributed
			// trace (rank walls, trace id, cross-rank spans).
			rep.TraceID = synthRep.TraceID
			rep.Ranks = synthRep.Ranks
			rep.Spans = append(rep.Spans, synthRep.Spans...)
			rep.Stages = append(rep.Stages, synthRep.Stages...)
		}
		if err := rep.WriteFile(reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "netlaunch: writing report: %v\n", err)
		} else {
			fmt.Printf("netlaunch: run report → %s\n", reportPath)
		}
	}
}

// resolveBin finds a rank binary: an explicit flag wins; otherwise try
// next to this executable (the `go build -o bin/ ./...` layout), then
// fall back to $PATH.
func resolveBin(explicit, name string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), name)
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	path, err := exec.LookPath(name)
	if err != nil {
		return "", fmt.Errorf("%s not found next to this executable or in $PATH (use -%s)", name, name)
	}
	return path, nil
}
