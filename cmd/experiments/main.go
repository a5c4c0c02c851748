// Command experiments regenerates every table and figure of the paper's
// evaluation at a configurable scale and prints a markdown report.
//
// Usage:
//
//	experiments [-persons N] [-days D] [-ranks R] [-workers W]
//	            [-seed S] [-out DIR] [-exp ID[,ID...]]
//
// With no -exp, every experiment runs in DESIGN.md order. Artifacts
// (SVG figures, CSV series, simulation logs) are written under -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/cmdrun"
	"repro/internal/experiments"
)

func main() {
	scale := experiments.DefaultScale()
	persons := flag.Int("persons", scale.Persons, "synthetic population size")
	days := flag.Int("days", scale.Days, "simulated days (analysis uses the final week)")
	ranks := flag.Int("ranks", scale.Ranks, "simulated process count")
	workers := flag.Int("workers", scale.Workers, "synthesis worker count")
	seed := flag.Uint64("seed", scale.Seed, "root random seed")
	out := flag.String("out", "out", "artifact output directory")
	exp := flag.String("exp", "", "comma-separated experiment IDs (default: all): "+strings.Join(experiments.IDs(), ","))
	mdPath := flag.String("md", "", "also write the combined report to this markdown file")
	flag.Parse()

	scale.Persons, scale.Days, scale.Ranks, scale.Workers, scale.Seed = *persons, *days, *ranks, *workers, *seed
	ids := experiments.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	cmdrun.Exit("experiments", run(scale, *out, ids, *mdPath))
}

// checkIDs rejects an unknown experiment ID before anything is
// simulated, so a typo late in -exp does not cost the earlier runs.
func checkIDs(ids []string) error {
	known := experiments.IDs()
	for _, id := range ids {
		if !slices.Contains(known, id) {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ","))
		}
	}
	return nil
}

func run(scale experiments.Scale, out string, ids []string, mdPath string) error {
	if err := checkIDs(ids); err != nil {
		return err
	}
	runner, err := experiments.NewRunner(scale, out)
	if err != nil {
		return err
	}

	var combined strings.Builder
	fmt.Fprintf(&combined, "# Experiment report — %d persons, %d days, %d ranks, %d workers, seed %d\n\n",
		scale.Persons, scale.Days, scale.Ranks, scale.Workers, scale.Seed)
	start := time.Now()
	for _, id := range ids {
		repStart := time.Now()
		rep, err := runner.Run(id)
		if err != nil {
			return err
		}
		text := rep.Render()
		fmt.Print(text)
		fmt.Printf("(%s in %s)\n\n", rep.ID, time.Since(repStart).Round(time.Millisecond))
		combined.WriteString(text)
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))

	if mdPath == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(mdPath), 0o755); err != nil && filepath.Dir(mdPath) != "." {
		return err
	}
	if err := os.WriteFile(mdPath, []byte(combined.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", mdPath)
	return nil
}
