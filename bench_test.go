// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark drives
// the same code path as cmd/experiments at a reduced scale and reports
// the experiment's headline quantity as a custom metric, so the paper's
// comparisons (who wins, by what factor) can be read straight from
// `go test -bench`.
package repro

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/graph"
	"repro/internal/netstat"
	"repro/internal/partition"
	"repro/internal/rng"
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
	dir      string
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
	benchWorld.dir = dir
	return p, sim.LogPaths
}

func sliceBounds() (uint32, uint32) {
	s := benchScale()
	return s.SliceBounds()
}

// BenchmarkT1LogVolume measures event-logging throughput and reports
// bytes/person/day (paper: 100 = 5 changes × 20 bytes).
func BenchmarkT1LogVolume(b *testing.B) {
	s := benchScale()
	p, err := NewPipeline(Config{Persons: s.Persons, Days: 7, Seed: s.Seed, Ranks: s.Ranks})
	if err != nil {
		b.Fatal(err)
	}
	var bytesPerPersonDay float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		sim, err := p.Simulate(context.Background(), dir)
		if err != nil {
			b.Fatal(err)
		}
		bytesPerPersonDay = float64(sim.LogBytes) / float64(s.Persons) / 7
	}
	b.ReportMetric(bytesPerPersonDay, "log-bytes/person/day")
}

// BenchmarkT2CacheSweep measures logging with the paper's nominal cache
// vs a tiny cache, reporting the flush-count ratio.
func BenchmarkT2CacheSweep(b *testing.B) {
	for _, cache := range []int{100, 10000} {
		b.Run(map[int]string{100: "cache100", 10000: "cache10k"}[cache], func(b *testing.B) {
			src := rng.New(1)
			path := filepath.Join(b.TempDir(), "t2.h5l")
			l, err := eventlog.Create(path, eventlog.Config{CacheEntries: cache})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(eventlog.BaseEntrySize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := eventlog.Entry{
					Start: uint32(i), Stop: uint32(i + 1),
					Person: uint32(src.Intn(5000)), Activity: 1, Place: uint32(src.Intn(2000)),
				}
				if err := l.Log(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(l.Flushes())/float64(b.N)*10000, "flushes/10k-entries")
		})
	}
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

// BenchmarkT3QueueStrategy runs the batch-queue comparison (16×64 vs
// 1×1024) and reports both makespans.
func BenchmarkT3QueueStrategy(b *testing.B) {
	var small, big float64
	for i := 0; i < b.N; i++ {
		src := rng.New(42)
		var background []batch.Job
		for k := 0; k < 300; k++ {
			background = append(background, batch.Job{
				ID: 1000 + k, Procs: 16 * (1 + src.Intn(8)),
				Duration: float64(10 + src.Intn(50)), Submit: float64(src.Intn(400)),
			})
		}
		ours := map[int]bool{}
		var jobs []batch.Job
		for k := 0; k < 16; k++ {
			jobs = append(jobs, batch.Job{ID: k, Procs: 64, Duration: 30, Submit: 100})
			ours[k] = true
		}
		res, err := batch.Simulate(context.Background(), 1024, append(append([]batch.Job{}, background...), jobs...), batch.Backfill)
		if err != nil {
			b.Fatal(err)
		}
		small = batch.Makespan(res, ours) - 100
		res, err = batch.Simulate(context.Background(), 1024, append(append([]batch.Job{}, background...),
			batch.Job{ID: 0, Procs: 1024, Duration: 30, Submit: 100}), batch.Backfill)
		if err != nil {
			b.Fatal(err)
		}
		big = batch.Makespan(res, map[int]bool{0: true}) - 100
	}
	b.ReportMetric(small, "makespan-16x64-min")
	b.ReportMetric(big, "makespan-1x1024-min")
}

// egoBench measures radius-2 ego extraction + induced subgraph for a
// figure's seed profile, reporting subgraph size.
func egoBench(b *testing.B, dense bool) {
	p, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	net, err := p.Synthesize(context.Background(), logs, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	// Seed: median-degree for dense, a degree-5..10 vertex for sparse.
	seed := uint32(0)
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(uint32(v))
		if dense && d >= 50 && d <= 80 {
			seed = uint32(v)
			break
		}
		if !dense && d >= 5 && d <= 10 {
			seed = uint32(v)
			break
		}
	}
	var nodes, edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, _ := g.Induced(g.Ego(seed, 2))
		nodes, edges = sub.NumVertices(), sub.NumEdges()
	}
	b.ReportMetric(float64(nodes), "ego-nodes")
	b.ReportMetric(float64(edges), "ego-edges")
}

// BenchmarkFig1DenseEgo regenerates the Figure 1 dense ego subgraph.
func BenchmarkFig1DenseEgo(b *testing.B) { egoBench(b, true) }

// BenchmarkFig2SparseEgo regenerates the Figure 2 sparse ego subgraph.
func BenchmarkFig2SparseEgo(b *testing.B) { egoBench(b, false) }

// BenchmarkFig3DegreeDistribution computes the degree distribution and
// the three Figure 3 fits, reporting the fitted exponents.
func BenchmarkFig3DegreeDistribution(b *testing.B) {
	p, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	net, err := p.Synthesize(context.Background(), logs, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	var alpha, kc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := net.DegreeDistribution()
		if fit, err := netstat.FitTruncatedPowerLaw(pts); err == nil {
			alpha, kc = fit.Alpha, fit.Kc
		}
	}
	b.ReportMetric(alpha, "truncated-alpha")
	b.ReportMetric(kc, "truncated-kc")
}

// BenchmarkFig4Clustering computes all local clustering coefficients,
// reporting the fraction of persons at c = 1.
func BenchmarkFig4Clustering(b *testing.B) {
	p, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	net, err := p.Synthesize(context.Background(), logs, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	var atOne, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atOne, total = 0, 0
		for v, c := range g.ClusteringAll(benchScale().Workers) {
			if g.Degree(uint32(v)) < 2 {
				continue
			}
			total++
			if c >= 0.999999 {
				atOne++
			}
		}
	}
	b.ReportMetric(float64(atOne)/float64(total), "frac-clustering-1")
}

// BenchmarkFig5AgeGroups builds the five within-group networks and
// reports the child/adult power-law-exponent contrast.
func BenchmarkFig5AgeGroups(b *testing.B) {
	p, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	net, err := p.Synthesize(context.Background(), logs, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	counts := p.Pop.AgeGroupCounts()
	var childAlpha, adultAlpha float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := p.AgeGroupNetworks(net)
		for gi, n := range per {
			g := graph.FromTri(n.Tri, p.Pop.NumPersons())
			pts := netstat.Distribution(g.DegreeDistribution(), counts[gi])
			fit, err := netstat.FitPowerLaw(pts)
			if err != nil {
				continue
			}
			switch gi {
			case 0:
				childAlpha = fit.Alpha
			case 2:
				adultAlpha = fit.Alpha
			}
		}
	}
	b.ReportMetric(childAlpha, "alpha-0-14")
	b.ReportMetric(adultAlpha, "alpha-19-44")
}

// BenchmarkA1LoadBalancing contrasts the paper's balanced partition with
// the naive chunked one, reporting both cost-model speedups.
func BenchmarkA1LoadBalancing(b *testing.B) {
	_, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	var balanced, naive float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s1, err := core.SynthesizeFiles(context.Background(), logs, t0, t1, core.Config{Workers: 8, Balance: core.BalanceNNZ})
		if err != nil {
			b.Fatal(err)
		}
		_, s2, err := core.SynthesizeFiles(context.Background(), logs, t0, t1, core.Config{Workers: 8, Balance: core.BalanceNone})
		if err != nil {
			b.Fatal(err)
		}
		balanced, naive = s1.ModelSpeedup(), s2.ModelSpeedup()
	}
	b.ReportMetric(balanced, "speedup-balanced")
	b.ReportMetric(naive, "speedup-naive")
}

// BenchmarkA2EventVsFull contrasts event-based with full-state logging,
// reporting the entry-count reduction factor.
func BenchmarkA2EventVsFull(b *testing.B) {
	p, _ := setupWorld(b)
	var factor float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		event, err := abm.Run(context.Background(), abm.Config{
			Pop: p.Pop, Gen: p.Gen, Ranks: 4, Days: 2, LogDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		full, err := abm.Run(context.Background(), abm.Config{
			Pop: p.Pop, Gen: p.Gen, Ranks: 4, Days: 2, LogDir: b.TempDir(), FullStateLog: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		factor = float64(full.Entries) / float64(event.Entries)
	}
	b.ReportMetric(factor, "fullstate/event-entries")
}

// BenchmarkA3Partitioning contrasts spatial and random place partitions,
// reporting the migration reduction factor.
func BenchmarkA3Partitioning(b *testing.B) {
	p, _ := setupWorld(b)
	edges, loads := partition.TransitionGraph(p.Pop, p.Gen, 3, p.Pop.NumPersons())
	spatialAssign := partition.Spatial(p.Pop, edges, loads, 8)
	randomAssign := partition.Random(p.Pop.NumPlaces(), 8)
	var factor float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := abm.Run(context.Background(), abm.Config{Pop: p.Pop, Gen: p.Gen, Ranks: 8, Days: 3, Assign: spatialAssign})
		if err != nil {
			b.Fatal(err)
		}
		r, err := abm.Run(context.Background(), abm.Config{Pop: p.Pop, Gen: p.Gen, Ranks: 8, Days: 3, Assign: randomAssign})
		if err != nil {
			b.Fatal(err)
		}
		factor = float64(r.Migrations) / float64(s.Migrations)
	}
	b.ReportMetric(factor, "migration-reduction")
}

// BenchmarkS1WorkerScaling runs the synthesis at 1 and 8 workers and
// reports the cost-model speedup of the 8-worker partition.
func BenchmarkS1WorkerScaling(b *testing.B) {
	_, logs := setupWorld(b)
	t0, t1 := sliceBounds()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			var model float64
			var wall time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := core.SynthesizeFiles(context.Background(), logs, t0, t1, core.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				model = stats.ModelSpeedup()
				wall = stats.Gram + stats.Reduce
			}
			b.ReportMetric(model, "cost-model-speedup")
			b.ReportMetric(float64(wall.Microseconds()), "gram+reduce-us")
		})
	}
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
