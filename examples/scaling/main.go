// Scaling: the parallel-performance story of the paper's Section IV in
// one program. It runs the collocation-network synthesis at several
// worker counts (strong scaling), compares the paper's nnz load
// balancing against naive contiguous equal-count chunks of places (the
// ablation Section IV.A.3 calls "crucial"), and compares spatial vs
// random place partitioning for the simulation itself.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/abm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)

	p, err := repro.NewPipeline(repro.Config{
		Persons: 20000,
		Days:    7,
		Seed:    3,
		Ranks:   8,
	})
	if err != nil {
		log.Fatal(err)
	}
	logDir, err := os.MkdirTemp("", "scaling-logs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(logDir)

	sim, err := p.Simulate(context.Background(), logDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d persons × %d hours; %d log entries\n\n",
		p.Pop.NumPersons(), sim.Steps, sim.Entries)

	// --- Strong scaling of the synthesis over workers. ---
	fmt.Println("synthesis strong scaling (gram+reduce wall):")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		_, stats, err := core.SynthesizeFiles(context.Background(), sim.LogPaths, 0, 168, core.Config{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		wall := stats.Gram + stats.Reduce
		if workers == 1 {
			base = wall
		}
		fmt.Printf("  %2d workers: %8s  speedup %.2fx\n",
			workers, wall.Round(time.Millisecond), float64(base)/float64(wall))
	}

	// --- Load-balancing ablation. ---
	fmt.Println("\nload balancing (8 workers):")
	for _, mode := range []core.BalanceMode{core.BalanceNNZ, core.BalanceNone} {
		_, stats, err := core.SynthesizeFiles(context.Background(), sim.LogPaths, 0, 168, core.Config{Workers: 8, Balance: mode})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s worker-cost imbalance %.2f, idle fraction %.3f\n",
			mode.String()+":", stats.CostImbalance(), stats.IdleFraction())
	}

	// --- Partitioning ablation for the simulation. ---
	fmt.Println("\nplace partitioning (8 ranks, 7 days):")
	edges, loads := partition.TransitionGraph(p.Pop, p.Gen, 7, p.Pop.NumPersons())
	for _, c := range []struct {
		name   string
		assign partition.Assignment
	}{
		{"spatial", partition.Spatial(p.Pop, edges, loads, 8)},
		{"random", partition.Random(p.Pop.NumPlaces(), 8)},
	} {
		res, err := abm.Run(context.Background(), abm.Config{
			Pop: p.Pop, Gen: p.Gen, Ranks: 8, Days: 7, Assign: c.assign,
		})
		if err != nil {
			log.Fatal(err)
		}
		total := res.Migrations + res.LocalMoves
		fmt.Printf("  %-8s %9d inter-rank migrations (%.1f%% of %d moves)\n",
			c.name+":", res.Migrations, 100*float64(res.Migrations)/float64(total), total)
		fmt.Printf("  %-8s per-rank roll-up: %s\n", "", rankRollup(res.PerRank))
	}
}

// rankRollup condenses the simulation's per-rank counters into one
// line: the rank-wall imbalance (max/mean, the Fig. 6/7 figure of
// merit, via telemetry.BusyImbalance) and the per-rank spread of
// outbound migrations.
func rankRollup(per []abm.RankResult) string {
	reports := make([]telemetry.RankReport, len(per))
	minM, maxM := uint64(0), uint64(0)
	for i, rr := range per {
		reports[i] = telemetry.RankReport{Rank: i, BusyNs: int64(rr.WallNs)}
		if i == 0 || rr.Migrations < minM {
			minM = rr.Migrations
		}
		if rr.Migrations > maxM {
			maxM = rr.Migrations
		}
	}
	return fmt.Sprintf("wall imbalance %.2f (max/mean over %d ranks), migrations out %d..%d",
		telemetry.BusyImbalance(reports), len(per), minM, maxM)
}
