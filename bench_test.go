// Root benchmarks: the synthesis hot path that scripts/check.sh's
// telemetry overhead guard times, with and without telemetry, and the
// whole simulate → synthesize flow. The paper's tables and figures are
// benchmarked where they are defined, by BenchmarkExperiments in
// internal/experiments.
package repro

import (
	"context"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

// benchScaleT is the reduced scale the benchmarks run at; the analysis
// slice is the final simulated week, as in the paper.
type benchScaleT struct {
	Persons, Days, Ranks, Workers int
	Seed                          uint64
}

func benchScale() benchScaleT {
	return benchScaleT{Persons: 5000, Days: 14, Ranks: 8, Workers: 4, Seed: 2017}
}

func (s benchScaleT) SliceBounds() (t0, t1 uint32) {
	t1 = uint32(s.Days * schedule.HoursPerDay)
	if s.Days >= 7 {
		t0 = t1 - 7*schedule.HoursPerDay
	}
	return
}

// benchWorld memoizes one simulated world per benchmark binary run.
var benchWorld struct {
	pipeline *Pipeline
	logs     []string
}

func setupWorld(b *testing.B) (*Pipeline, []string) {
	b.Helper()
	if benchWorld.pipeline != nil {
		return benchWorld.pipeline, benchWorld.logs
	}
	s := benchScale()
	p, err := NewPipeline(Config{
		Persons: s.Persons, Days: s.Days, Seed: s.Seed, Ranks: s.Ranks, Workers: s.Workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "bench-logs-")
	if err != nil {
		b.Fatal(err)
	}
	sim, err := p.Simulate(context.Background(), dir)
	if err != nil {
		b.Fatal(err)
	}
	benchWorld.pipeline = p
	benchWorld.logs = sim.LogPaths
	return p, sim.LogPaths
}

func sliceBounds() (uint32, uint32) {
	s := benchScale()
	return s.SliceBounds()
}

// BenchmarkT3Synthesis measures full-network synthesis and reports the
// edge count (paper: 830,328,649 at 2.9M persons).
func BenchmarkT3Synthesis(b *testing.B) {
	_, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tri, _, err := core.SynthesizeFiles(context.Background(), logs, t0, t1, core.Config{Workers: benchScale().Workers})
		if err != nil {
			b.Fatal(err)
		}
		edges = tri.NNZ()
	}
	b.ReportMetric(float64(edges), "edges")
	b.ReportMetric(float64(edges)/float64(benchScale().Persons), "edges/person")
}

// BenchmarkT3SynthesisTelemetry is BenchmarkT3Synthesis with telemetry
// enabled: identical work, plus live metric publication and span
// retention. scripts/check.sh compares the two and fails if enabled
// telemetry costs more than 5% (DESIGN.md §10's overhead budget).
func BenchmarkT3SynthesisTelemetry(b *testing.B) {
	_, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tri, _, err := core.SynthesizeFiles(context.Background(), logs, t0, t1, core.Config{Workers: benchScale().Workers})
		if err != nil {
			b.Fatal(err)
		}
		edges = tri.NNZ()
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkEndToEndPipeline measures the complete simulate → log →
// synthesize → analyze flow at a small scale.
func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := NewPipeline(Config{Persons: 2000, Days: 7, Seed: 1, Ranks: 4, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := p.Simulate(context.Background(), b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		net, err := p.Synthesize(context.Background(), sim.LogPaths, 0, 7*schedule.HoursPerDay)
		if err != nil {
			b.Fatal(err)
		}
		if net.Tri.NNZ() == 0 {
			b.Fatal("empty network")
		}
	}
}
