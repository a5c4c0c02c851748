// Command netsynth builds a person collocation network from chiSIM event
// logs (Section IV of the paper): per-place sparse collocation matrices,
// nnz load balancing across workers, parallel x·xᵀ, and reduction to a
// single sparse triangular adjacency matrix, which it writes as an edge
// list.
//
// Usage:
//
//	netsynth -t0 504 -t1 672 -o network.tsv logs/rank*.h5l
//
// Distributed usage (the paper runs the synthesis as batches of log
// files across cluster jobs): give every process the identical file
// list; files are striped across processes, partial networks are merged
// on rank 0, which writes the output.
//
//	netsynth -dist-host :7947 -dist-size 4 -o network.tsv logs/*.h5l  # rank 0
//	netsynth -dist-join host:7947 logs/*.h5l                          # ranks 1..3
//
// Under a supervisor (cmd/netlaunch), workers pin their rank with
// -dist-rank and discover the coordinator with -dist-join @file (the
// address file rank 0 publishes with -dist-addr-file). A worker that
// dies, or never joins within the coordinator's join window, is not
// restarted: the survivors re-stripe its files and rank 0 still writes
// the same network. Exit codes
// tell the supervisor what happened: 0 success, 2 cooperative drain
// after SIGINT/SIGTERM, 1 real failure.
//
// The output is a three-column TSV (person_i, person_j, hours) holding
// the strict upper triangle of the adjacency matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cmdrun"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/sparse"
	"repro/internal/telemetry"

	// Link the full pipeline so every stage's telemetry series is
	// registered before the first /metrics scrape, even for stages this
	// binary does not exercise on a given run.
	_ "repro"
)

// parseBytes parses a byte size with an optional K/M/G suffix (powers
// of 1024), e.g. "64M" or "2G" or a plain byte count. A negative size
// or one beyond int64 is an error.
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		num, mult = s[:len(s)-1], 1<<10
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		num, mult = s[:len(s)-1], 1<<20
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		num, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid byte size %q: want a non-negative count below 2^63 bytes, with an optional K, M or G suffix", s)
	}
	return n * mult, nil
}

// parseBalance maps a -balance name to its mode, rejecting any name
// that is not a mode's String.
func parseBalance(name string) (core.BalanceMode, error) {
	for _, m := range []core.BalanceMode{core.BalanceNNZ, core.BalanceNone} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown -balance %q (want nnz or none)", name)
}

func main() {
	t0 := flag.Uint("t0", 0, "slice start hour (inclusive)")
	t1 := flag.Uint("t1", 168, "slice end hour (exclusive)")
	out := flag.String("o", "network.tsv", "output edge-list path")
	snapshot := flag.String("snapshot", "", "also write a binary .gsnap snapshot here (servable by netserve)")
	workers := flag.Int("workers", 0, "synthesis workers (0 = all CPUs)")
	balance := flag.String("balance", "nnz", "load balancing: nnz (paper) or none (naive)")
	memBudget := flag.String("mem-budget", "", "cap on buffered log-entry bytes, e.g. 64M or 2G (empty = unlimited), with and without -follow; entries beyond it spill to place-sorted temp files")
	dist := cmdrun.DistFlags()
	distSize := flag.Int("dist-size", 0, "total process count when hosting")
	follow := flag.Bool("follow", false, "tail the logs of a running simulation and publish one snapshot generation per window (requires -snapshot; -t1 0 means open-ended)")
	windowHours := flag.Uint("window", 24, "streaming window width in simulated hours (with -follow)")
	horizonHours := flag.Uint("horizon", core.DefaultStreamHorizon, "activity-span horizon in hours: a window closes once every log reaches window-end+horizon (with -follow)")
	decay := flag.Float64("decay", 1.0, "per-window decay of accumulated collocation weight in [0,1]: 1 = cumulative, 0 = independent windows (with -follow)")
	pollInterval := flag.Duration("poll", eventlog.DefaultTailPoll, "log tail poll interval (with -follow)")
	history := flag.Int("history", 0, "retain the last N published generations beside -snapshot as hard links (with -follow)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the synthesis to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the synthesis to this file")
	showStats := flag.Bool("stats", false, "print the per-stage statistics table after the run")
	tel := cmdrun.TelemetryFlags("netsynth", true)
	flag.Parse()

	// SIGINT/SIGTERM cancel the synthesis: it aborts within one work
	// unit (or log batch) and returns an error wrapping context.Canceled,
	// after which the profiles below are still written.
	cmdrun.Main("netsynth", func(ctx context.Context) (err error) {
		mode, err := parseBalance(*balance)
		if err != nil {
			return err
		}
		stopTel, err := tel.Start()
		if err != nil {
			return err
		}
		defer stopTel()
		if *cpuProfile != "" {
			f, ferr := os.Create(*cpuProfile)
			if ferr != nil {
				return ferr
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			// err below is the named result; this block must not
			// declare one of its own.
			defer func() {
				pprof.StopCPUProfile()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
		}
		if *memProfile != "" {
			defer func() {
				if werr := writeHeapProfile(*memProfile); err == nil {
					err = werr
				}
			}()
		}

		paths := flag.Args()
		if len(paths) == 0 {
			return errors.New("no log files given; usage: netsynth [flags] logs/rank*.h5l")
		}
		budget, err := parseBytes(*memBudget)
		if err != nil {
			return err
		}
		cfg := core.Config{Workers: *workers, Balance: mode, MemBudgetBytes: budget}
		switch {
		case *follow:
			return runFollow(ctx, paths, uint32(*t0), uint32(*t1), cfg, followOptions{
				Window: uint32(*windowHours), Horizon: uint32(*horizonHours),
				Decay: *decay, Poll: *pollInterval, History: *history,
				Snapshot: *snapshot, Out: *out,
			}, tel)
		case dist.Enabled():
			return runDistributed(ctx, paths, uint32(*t0), uint32(*t1), cfg, dist, *distSize, *out, *snapshot, tel)
		}
		return runBatch(ctx, paths, uint32(*t0), uint32(*t1), cfg, *out, *snapshot, *showStats, tel)
	})
}

// writeHeapProfile writes an up-to-date pprof heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBatch synthesizes the slice in this process and writes the network.
func runBatch(ctx context.Context, paths []string, t0, t1 uint32, cfg core.Config, out, snapshot string, showStats bool, tel *cmdrun.Telemetry) error {
	start := time.Now()
	tri, stats, err := core.SynthesizeFiles(ctx, paths, t0, t1, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := writeEdgeList(out, tri); err != nil {
		return err
	}
	if err := writeSnapshot(snapshot, tri); err != nil {
		return err
	}

	fmt.Printf("slice [%d,%d): %d entries at %d places, %d collocation nnz\n",
		t0, t1, stats.Entries, stats.Places, stats.TotalNNZ)
	fmt.Printf("network: %d vertices, %d edges, total weight %d\n",
		tri.Vertices(), tri.NNZ(), tri.TotalWeight())
	fmt.Printf("stage walls: load %s, build %s, gram %s, reduce %s (total %s)\n",
		stats.Load.Round(time.Millisecond), stats.Build.Round(time.Millisecond),
		stats.Gram.Round(time.Millisecond), stats.Reduce.Round(time.Millisecond),
		elapsed.Round(time.Millisecond))
	fmt.Printf("worker cost imbalance %.2f, idle fraction %.3f → %s\n",
		stats.CostImbalance(), stats.IdleFraction(), out)
	printSpill(stats)
	if showStats {
		printStats(stats)
	}
	rep := telemetry.Default.Report("netsynth")
	rep.Stages = stats.StageReports()
	local := stats.RankReport(0, elapsed, 0)
	local.FaultsInjected = telemetry.C("fault_injected_total").Value()
	local.FaultsRecovered = telemetry.C("fault_recovered_total").Value()
	rep.Ranks = []telemetry.RankReport{local}
	return tel.WriteReport(rep)
}

// printSpill reports what the memory budget cost a slice or window, when
// it made the synthesis spill.
func printSpill(s *core.Stats) {
	if s.Shards > 0 {
		fmt.Printf("mem budget: spilled %d bytes, synthesized as %d place shards (spill wall %s)\n",
			s.SpilledBytes, s.Shards, s.Spill.Round(time.Millisecond))
	}
}

// printStats renders the per-stage statistics table behind the -stats
// flag: stage walls, the work-unit partition (including how many places
// the balancer split into tiles), and the per-worker cost/busy columns.
func printStats(s *core.Stats) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "stage\twall\t\n")
	fmt.Fprintf(w, "load\t%s\t\n", s.Load.Round(time.Microsecond))
	fmt.Fprintf(w, "build\t%s\t\n", s.Build.Round(time.Microsecond))
	fmt.Fprintf(w, "gram\t%s\t\n", s.Gram.Round(time.Microsecond))
	fmt.Fprintf(w, "reduce\t%s\t\n", s.Reduce.Round(time.Microsecond))
	fmt.Fprintf(w, "\t\t\n")
	fmt.Fprintf(w, "slice hours\t%d\t\n", s.SliceHours)
	fmt.Fprintf(w, "log entries\t%d\t\n", s.Entries)
	fmt.Fprintf(w, "places\t%d\t\n", s.Places)
	fmt.Fprintf(w, "matrix nnz\t%d\t\n", s.TotalNNZ)
	fmt.Fprintf(w, "work units\t%d\t\n", s.WorkUnits)
	fmt.Fprintf(w, "split places\t%d\t\n", s.Splits)
	fmt.Fprintf(w, "cost imbalance\t%.3f\t\n", s.CostImbalance())
	fmt.Fprintf(w, "idle fraction\t%.3f\t\n", s.IdleFraction())
	fmt.Fprintf(w, "\t\t\n")
	fmt.Fprintf(w, "worker\tcost\tbusy\n")
	for i := range s.WorkerCost {
		fmt.Fprintf(w, "%d\t%d\t%s\n", i, s.WorkerCost[i], s.WorkerBusy[i].Round(time.Microsecond))
	}
	w.Flush()
}

// runDistributed stripes the log files across the processes of a TCP
// cluster; rank 0 merges the partial networks and writes the edge list.
func runDistributed(ctx context.Context, paths []string, t0, t1 uint32, cfg core.Config, dist *cmdrun.Dist, size int, out, snapshot string, tel *cmdrun.Telemetry) error {
	node, err := dist.Open(size)
	if err != nil {
		return err
	}
	defer node.Close()

	start := time.Now()
	tri, rep, err := core.SynthesizeDistributed(ctx, node, paths, t0, t1, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("rank %d done in %s\n", node.Rank(), time.Since(start).Round(time.Millisecond))
	if node.Rank() != 0 {
		return nil
	}
	if err := writeEdgeList(out, tri); err != nil {
		return err
	}
	fmt.Printf("network: %d vertices, %d edges, total weight %d → %s\n",
		tri.Vertices(), tri.NNZ(), tri.TotalWeight(), out)
	if err := writeSnapshot(snapshot, tri); err != nil {
		return err
	}
	if rep == nil {
		if tel.Report != "" {
			fmt.Fprintln(os.Stderr, "netsynth: rank report gather failed; no run report written")
		}
		return nil
	}
	rep.Command = "netsynth"
	return tel.WriteReport(rep)
}

// followOptions bundles the streaming-mode flags so runFollow's
// signature stays readable.
type followOptions struct {
	Window   uint32
	Horizon  uint32
	Decay    float64
	Poll     time.Duration
	History  int
	Snapshot string
	Out      string
}

// decayRational converts the -decay fraction into the accumulator's
// fixed-point rational with a 2^16 denominator. 1.0 maps to the exact
// cumulative fold (num == den), 0.0 to independent windows.
func decayRational(d float64) (num, den uint64, err error) {
	if math.IsNaN(d) || d < 0 || d > 1 {
		return 0, 0, fmt.Errorf("-decay must be in [0,1], got %v", d)
	}
	den = 1 << 16
	return uint64(math.Round(d * float64(den))), den, nil
}

// runFollow is the streaming mode: it tails the (possibly still being
// written, possibly not yet existing) log files of a running
// simulation, synthesizes one network window at a time, and publishes
// every window's rolling network as a fresh snapshot generation via
// atomic rename — the contract netserve's watcher hot-swaps on with
// zero downtime. The stream ends when the logs are closed with valid
// footers and the slice is exhausted (or, with -t1 0, when the closed
// logs run out of activity). With -report, the run report carries the
// publish counters: edges each generation added and removed, and how
// many generations updated their triangle counts or recounted them.
func runFollow(ctx context.Context, paths []string, t0, t1 uint32, cfg core.Config, opt followOptions, tel *cmdrun.Telemetry) error {
	if opt.Snapshot == "" {
		return errors.New("-follow requires -snapshot (the live path generations are published to)")
	}
	num, den, err := decayRational(opt.Decay)
	if err != nil {
		return err
	}
	if t1 == 0 {
		t1 = core.StreamOpenEnd
	}

	pub := gstore.NewPublisher(opt.Snapshot, gstore.PublisherOptions{History: opt.History})
	srcs := eventlog.OpenTails(ctx, paths, t0, t1, eventlog.TailOptions{Poll: opt.Poll})

	var lastNet *sparse.Tri
	start := time.Now()
	st, err := core.Stream(ctx, srcs, core.StreamConfig{
		T0: t0, T1: t1,
		WindowHours: opt.Window, HorizonHours: opt.Horizon,
		DecayNum: num, DecayDen: den,
		Synth: cfg,
		OnWindow: func(w core.WindowResult) error {
			info, perr := pub.PublishWithMeta(graph.FromTri(w.Net, 0), gstore.PublishMeta{
				WindowClosedAt: w.ClosedAt,
				LastEventHour:  w.W1,
			})
			if perr != nil {
				return perr
			}
			lastNet = w.Net
			fmt.Printf("published generation %d: window [%d,%d) — %d entries, net %d vertices %d edges, %d bytes in %s\n",
				info.Generation, w.W0, w.W1, w.Stats.Entries,
				w.Net.Vertices(), w.Net.NNZ(), info.Bytes, info.Elapsed.Round(time.Millisecond))
			printSpill(w.Stats)
			return nil
		},
	})
	if err != nil {
		return err
	}
	if lastNet != nil {
		if err := writeEdgeList(opt.Out, lastNet); err != nil {
			return err
		}
		fmt.Printf("final network: %d vertices, %d edges, total weight %d → %s\n",
			lastNet.Vertices(), lastNet.NNZ(), lastNet.TotalWeight(), opt.Out)
	}
	fmt.Printf("stream done: %d windows, %d entries (%d late), peak buffered %d, max stop hour %d in %s\n",
		st.Windows, st.Entries, st.LateEntries, st.PeakBuffered, st.MaxStop,
		time.Since(start).Round(time.Millisecond))
	return tel.WriteReport(telemetry.Default.Report("netsynth"))
}

// writeEdgeList writes tri as a three-column TSV edge list to path.
func writeEdgeList(path string, tri *sparse.Tri) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, tri); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSnapshot additionally persists the synthesized network as a
// binary .gsnap snapshot when -snapshot is given — the format netserve
// loads without re-parsing TSV. Snapshots are written as v2 with the
// precomputed index sections baked in, so the daemon's hot endpoints
// serve them as O(1) mmap reads with no warmup pass.
func writeSnapshot(path string, tri *sparse.Tri) error {
	if path == "" {
		return nil
	}
	g := graph.FromTri(tri, 0)
	if err := gstore.WriteFileIndexed(path, g, gstore.IndexOptions{}); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot: %d bytes (v%d, indexed) → %s\n", fi.Size(), gstore.Version, path)
	return nil
}
