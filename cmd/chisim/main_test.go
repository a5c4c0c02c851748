package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/abm"
	"repro/internal/cmdrun"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestWorkersFollowRankZerosPlan runs the rank program on goroutine
// ranks of which only rank 0 is given -o and -report, as netlaunch
// starts its workers: every rank must synthesize (rank 0's report has
// a roll-up per rank), and the edge list must be the one-process
// synthesis of the same logs.
func TestWorkersFollowRankZerosPlan(t *testing.T) {
	dir := t.TempDir()
	const persons, days, ranks = 400, 1, 3
	p, err := repro.NewPipeline(repro.Config{Persons: persons, Days: days, Seed: 3, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.SimConfig(filepath.Join(dir, "logs"))
	out, report := filepath.Join(dir, "n.tsv"), filepath.Join(dir, "r.json")
	jobs := make([]*rankJob, ranks)
	for r := range jobs {
		jobs[r] = &rankJob{logdir: cfg.LogDir, personDays: persons * days, tel: &cmdrun.Telemetry{}}
	}
	jobs[0].out, jobs[0].tel.Report = out, report
	err = mpi.Run(ranks, func(tr mpi.Transport) error {
		return jobs[tr.Rank()].run(context.Background(), tr, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := telemetry.ReadReportFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != ranks {
		t.Fatalf("report rolls up %d synthesis rank(s), want %d", len(rep.Ranks), ranks)
	}
	paths := make([]string, ranks)
	for r := range paths {
		paths[r] = abm.LogPath(cfg.LogDir, r)
	}
	tri, _, err := core.SynthesizeFiles(context.Background(), paths, 0, days*24, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := filepath.Join(dir, "oracle.tsv")
	if err := cmdrun.WriteNetwork(oracle, "", tri); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("edge list (%d bytes) differs from the one-process synthesis (%d bytes)", len(got), len(want))
	}
}
