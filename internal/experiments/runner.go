package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/abm"
	"repro/internal/schedule"
)

// Scale sets the size of the reproduction. The paper runs 2.9M persons
// for four weeks on 256 processes; the default scale keeps the same
// ratios at laptop size. All experiments honor it.
type Scale struct {
	// Persons is the synthetic population size.
	Persons int
	// Days is the simulated duration; the analysis slice is the final
	// week, as in the paper ("process only the fourth week of log
	// data").
	Days int
	// Ranks is the simulated process count.
	Ranks int
	// Workers is the synthesis worker count.
	Workers int
	// Seed drives everything.
	Seed uint64
}

// DefaultScale is the laptop-scale configuration used by the checked-in
// EXPERIMENTS.md numbers.
func DefaultScale() Scale {
	return Scale{Persons: 20000, Days: 28, Ranks: 16, Workers: 8, Seed: 2017}
}

// SliceBounds returns the analysis window: the final simulated week.
func (s Scale) SliceBounds() (t0, t1 uint32) {
	t1 = uint32(s.Days * schedule.HoursPerDay)
	if s.Days >= 7 {
		t0 = t1 - 7*schedule.HoursPerDay
	}
	return
}

// Runner owns the shared state the experiments reuse: one simulation run
// and one synthesized network.
type Runner struct {
	Scale  Scale
	OutDir string

	pipeline *repro.Pipeline
	sim      *abm.Result
	network  *repro.Network
}

// NewRunner creates a runner writing artifacts under outDir.
func NewRunner(scale Scale, outDir string) (*Runner, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	p, err := repro.NewPipeline(repro.Config{
		Persons: scale.Persons,
		Days:    scale.Days,
		Seed:    scale.Seed,
		Ranks:   scale.Ranks,
		Workers: scale.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Runner{Scale: scale, OutDir: outDir, pipeline: p}, nil
}

// Pipeline exposes the underlying pipeline.
func (r *Runner) Pipeline() *repro.Pipeline { return r.pipeline }

// EnsureSim runs the ABM once, caching the result for all experiments.
func (r *Runner) EnsureSim() (*abm.Result, error) {
	if r.sim != nil {
		return r.sim, nil
	}
	res, err := r.pipeline.Simulate(context.Background(), filepath.Join(r.OutDir, "logs"))
	if err != nil {
		return nil, err
	}
	r.sim = res
	return res, nil
}

// EnsureNetwork synthesizes the final-week collocation network once.
func (r *Runner) EnsureNetwork() (*repro.Network, error) {
	if r.network != nil {
		return r.network, nil
	}
	sim, err := r.EnsureSim()
	if err != nil {
		return nil, err
	}
	t0, t1 := r.Scale.SliceBounds()
	net, err := r.pipeline.Synthesize(context.Background(), sim.LogPaths, t0, t1)
	if err != nil {
		return nil, err
	}
	r.network = net
	return net, nil
}

// experiment is one registry entry: the identifier DESIGN.md, the
// reports and cmd/experiments' -exp flag use, and the method that runs it.
type experiment struct {
	id  string
	run func(*Runner) (*Report, error)
}

// registry is every experiment, in DESIGN.md order. IDs, Run and All are
// derived from it, and BenchmarkExperiments runs each entry.
var registry = []experiment{
	{"T1", (*Runner).T1LogVolume},
	{"T2", (*Runner).T2CacheSweep},
	{"T3", (*Runner).T3Synthesis},
	{"fig1", (*Runner).Fig1DenseEgo},
	{"fig2", (*Runner).Fig2SparseEgo},
	{"fig3", (*Runner).Fig3DegreeDistribution},
	{"fig4", (*Runner).Fig4Clustering},
	{"fig5", (*Runner).Fig5AgeGroups},
	{"E1", (*Runner).E1SyntheticNetworks},
	{"E2", (*Runner).E2Communities},
	{"E3", (*Runner).E3SubgroupFit},
	{"E4", (*Runner).E4TemporalGranularity},
	{"E5", (*Runner).E5EpidemicOnNetworks},
	{"A1", (*Runner).A1LoadBalancing},
	{"A2", (*Runner).A2EventVsFull},
	{"A3", (*Runner).A3Partitioning},
	{"S1", (*Runner).S1WorkerScaling},
}

// All runs every experiment in DESIGN.md order.
func (r *Runner) All() ([]*Report, error) {
	var out []*Report
	for _, e := range registry {
		rep, err := r.Run(e.id)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Run executes a single experiment by ID.
func (r *Runner) Run(id string) (*Report, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		rep, err := e.run(r)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		rep.ID = id
		return rep, nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the available experiment identifiers in DESIGN.md order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
