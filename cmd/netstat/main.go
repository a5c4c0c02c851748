// Command netstat analyzes a collocation network edge list (Section V.B
// of the paper): degree distribution with power-law / truncated /
// exponential fits, local clustering coefficient histogram, and
// component structure.
//
// Usage:
//
//	netstat -n 20000 network.tsv
//	netstat net.gsnap
//
// The input may be a TSV edge list or a binary .gsnap snapshot; the
// format is sniffed from the file's magic bytes. -n sets the
// vertex-space size (the population) for TSV input; without it the
// largest person ID in the file is used. Snapshots carry their own
// vertex space.
//
// The report subcommand renders the JSON run report written by chisim
// and netsynth with -report as per-stage / per-rank timing tables:
//
//	netstat report run.json
//
// The trace subcommand renders the same report's cross-rank span dump
// as one trace tree — the coordinator's root span with every rank's
// remote spans grafted under it:
//
//	netstat trace run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cmdrun"
	"repro/internal/gstore"
	"repro/internal/netstat"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "report" || os.Args[1] == "trace") {
		cmdrun.Exit("netstat", runReport(os.Args[1], os.Args[2:]))
	}
	n := flag.Int("n", 0, "population size (0 = infer from max person ID)")
	workers := flag.Int("workers", 4, "clustering workers")
	bins := flag.Int("bins", 20, "clustering histogram bins")
	flag.Parse()
	cmdrun.Exit("netstat", run(*n, *workers, *bins))
}

func run(n, workers, bins int) error {
	if flag.NArg() != 1 {
		return errors.New("usage: netstat [flags] network.tsv|net.gsnap | netstat report|trace run.json")
	}
	snap, err := gstore.LoadGraphFile(flag.Arg(0), n)
	if err != nil {
		return err
	}
	defer snap.Close()
	g := snap.Graph()

	fmt.Printf("network: %d vertices (%d with edges), %d edges, total weight %d\n",
		g.NumVertices(), g.VerticesWithEdges(), g.NumEdges(), g.TotalWeight())
	if secs := snap.Index().Sections(); secs != nil {
		fmt.Printf("snapshot: v%d, index sections: %v\n", snap.Version(), secs)
	} else if snap.Version() > 0 {
		fmt.Printf("snapshot: v%d, no index sections (reindex with: netserve -reindex %s)\n",
			snap.Version(), flag.Arg(0))
	}
	labels, comps := g.ConnectedComponents()
	_ = labels
	fmt.Printf("components: %d, giant component %d vertices\n", comps, g.GiantComponentSize())
	fmt.Printf("max degree: %d\n", g.MaxDegree())

	hist := g.DegreeHistogram()
	pts := netstat.Distribution(hist, g.NumVertices())
	fmt.Printf("\ndegree distribution (%d distinct degrees):\n", len(pts))
	show := pts
	if len(show) > 12 {
		show = show[:12]
	}
	for _, p := range show {
		fmt.Printf("  k=%-6d count=%-8d frac=%.6f\n", p.K, p.Count, p.Frac)
	}
	if len(pts) > 12 {
		fmt.Printf("  ... (%d more)\n", len(pts)-12)
	}

	if fit, err := netstat.FitPowerLaw(pts); err == nil {
		fmt.Printf("\npower law:   %s\n", fit)
	}
	if fit, err := netstat.FitTruncatedPowerLaw(pts); err == nil {
		fmt.Printf("truncated:   %s\n", fit)
	}
	if fit, err := netstat.FitExponential(pts); err == nil {
		fmt.Printf("exponential: %s\n", fit)
	}
	if alpha, err := netstat.AlphaMLE(hist, 5); err == nil {
		fmt.Printf("MLE alpha (k≥5): %.3f\n", alpha)
	}

	clust := g.ClusteringAll(workers)
	var vals []float64
	atOne := 0
	mean := 0.0
	for v, c := range clust {
		if g.Degree(uint32(v)) >= 2 {
			vals = append(vals, c)
			mean += c
			if c >= 0.999999 {
				atOne++
			}
		}
	}
	if len(vals) > 0 {
		mean /= float64(len(vals))
	}
	fmt.Printf("\nlocal clustering (degree ≥ 2): mean %.3f, %d persons at c=1 (%.1f%%)\n",
		mean, atOne, 100*float64(atOne)/float64(max(len(vals), 1)))
	centers, counts := netstat.Histogram(vals, 0, 1, bins)
	for i := range centers {
		fmt.Printf("  c≈%.3f %7d %s\n", centers[i], counts[i], bar(counts[i], counts))
	}
	return nil
}

// runReport implements `netstat report run.json` and `netstat trace
// run.json`: it reads the JSON run report written by chisim/netsynth
// -report (directly or via netlaunch) and renders either the per-stage
// and per-rank timing tables plus the metric snapshot, or the
// distributed trace tree with per-rank annotations.
func runReport(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	usage := "usage: netstat " + cmd + " run.json"
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, usage)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New(usage)
	}
	rep, err := telemetry.ReadReportFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if cmd == "trace" {
		return rep.RenderTrace(os.Stdout)
	}
	return rep.Render(os.Stdout)
}

func bar(v int, all []int) string {
	maxC := 1
	for _, c := range all {
		if c > maxC {
			maxC = c
		}
	}
	n := v * 50 / maxC
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
