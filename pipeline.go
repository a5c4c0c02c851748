// Package repro is the top-level facade of this reproduction of
// "Endogenous Social Networks from Large-Scale Agent-Based Models"
// (Tatara, Collier, Ozik, Macal — IPPS 2017).
//
// It wires the full pipeline together: synthetic population → activity
// schedules → parallel ABM with event-based logging → parallel
// collocation-network synthesis → network analysis. Each stage is also
// available individually from the internal packages; this package exists
// so that examples and tools can run the end-to-end flow in a few lines:
//
//	p, err := repro.NewPipeline(repro.Config{Persons: 20000, Days: 7, Seed: 1})
//	res, err := p.Simulate(ctx, logDir)
//	net, err := p.Synthesize(ctx, res.LogPaths, 0, 168)
//	g := net.Graph()
//
// Every long-running stage takes a context.Context as its first
// parameter, so embedding servers can cancel or deadline a pipeline:
// simulation stops at the next hour boundary with resumable logs,
// synthesis within one work unit, both returning errors wrapping
// context.Canceled.
package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/abm"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/graph"
	"repro/internal/netstat"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/synthpop"
	"repro/internal/telemetry"
)

// Config parameterizes an end-to-end pipeline.
type Config struct {
	// Persons is the synthetic population size. Must be positive.
	Persons int
	// Days is the simulated duration. Must be positive.
	Days int
	// Seed drives population generation, schedules and partitioning.
	Seed uint64
	// Ranks is the simulated process count; zero selects 16.
	Ranks int
	// Workers is the synthesis worker count; zero selects GOMAXPROCS.
	Workers int
	// CacheEntries is the event-log cache size; zero selects the
	// paper's nominal 10,000.
	CacheEntries int
	// Compress enables DEFLATE compression of log chunks.
	Compress bool
	// MemBudgetBytes bounds the bytes of log entries the synthesis
	// stage materializes at once; zero means unlimited. See
	// core.Config.MemBudgetBytes.
	MemBudgetBytes int64
	// HourDelay slows the simulation down by sleeping this long per
	// simulated hour — a chaos/testing aid that widens the window in
	// which an injected crash can land mid-run. Zero (the default)
	// runs at full speed.
	HourDelay time.Duration
	// FlushEvery, when positive, makes each simulation rank flush its
	// event-log cache to a durable chunk every FlushEvery simulated
	// hours, so a concurrent Stream sees entries at a bounded simulated
	// lag. Zero keeps the batch behavior (flush on cache-full/close).
	FlushEvery int
}

func (c *Config) ranks() int {
	if c.Ranks > 0 {
		return c.Ranks
	}
	return 16
}

// validate rejects nonsensical numeric configuration. Zero keeps its
// documented pick-a-default meaning; negatives are errors rather than
// being silently coerced to the defaults.
func (c *Config) validate() error {
	if c.Persons <= 0 {
		return fmt.Errorf("repro: Persons must be positive, got %d", c.Persons)
	}
	if c.Days <= 0 {
		return fmt.Errorf("repro: Days must be positive, got %d", c.Days)
	}
	if c.Ranks < 0 {
		return fmt.Errorf("repro: Ranks must be non-negative, got %d", c.Ranks)
	}
	if c.Workers < 0 {
		return fmt.Errorf("repro: Workers must be non-negative, got %d", c.Workers)
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("repro: CacheEntries must be non-negative, got %d", c.CacheEntries)
	}
	if c.MemBudgetBytes < 0 {
		return fmt.Errorf("repro: MemBudgetBytes must be non-negative, got %d", c.MemBudgetBytes)
	}
	if c.HourDelay < 0 {
		return fmt.Errorf("repro: HourDelay must be non-negative, got %v", c.HourDelay)
	}
	if c.FlushEvery < 0 {
		return fmt.Errorf("repro: FlushEvery must be non-negative, got %d", c.FlushEvery)
	}
	return nil
}

// Pipeline holds the generated population and schedules and runs the
// simulation/synthesis stages.
type Pipeline struct {
	cfg Config

	// Pop is the generated synthetic population.
	Pop *synthpop.Population
	// Gen produces activity schedules over Pop.
	Gen *schedule.Generator
}

// NewPipeline generates the population and schedule generator.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pop, err := synthpop.Generate(synthpop.Config{Persons: cfg.Persons, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		cfg: cfg,
		Pop: pop,
		Gen: schedule.NewGenerator(pop, cfg.Seed+1),
	}, nil
}

// SimConfig is the one place the pipeline's configuration becomes an
// abm.Config, so Simulate, Resume and a process rank's abm.RunOn or
// abm.ResumeOn run the same simulation.
func (p *Pipeline) SimConfig(logDir string) abm.Config {
	return abm.Config{
		Pop:        p.Pop,
		Gen:        p.Gen,
		Ranks:      p.cfg.ranks(),
		Days:       p.cfg.Days,
		LogDir:     logDir,
		Log:        eventlog.Config{CacheEntries: p.cfg.CacheEntries, Compress: p.cfg.Compress},
		HourDelay:  p.cfg.HourDelay,
		FlushEvery: uint32(p.cfg.FlushEvery),
	}
}

// synthConfig is the one place the pipeline's configuration becomes a
// core.Config, so Synthesize and Stream run under the same workers and
// memory budget.
func (p *Pipeline) synthConfig() core.Config {
	return core.Config{Workers: p.cfg.Workers, MemBudgetBytes: p.cfg.MemBudgetBytes}
}

// Simulate runs the ABM for the configured duration, writing one event
// log per rank into logDir, and returns the run statistics. Cancelling
// ctx stops the run at the next hour boundary with resumable logs and
// an error wrapping context.Canceled.
func (p *Pipeline) Simulate(ctx context.Context, logDir string) (*abm.Result, error) {
	ctx, sp := telemetry.StartSpan(ctx, "pipeline/simulate")
	defer sp.End()
	return abm.Run(ctx, p.SimConfig(logDir))
}

// Resume continues a crashed or canceled simulation whose
// per-rank logs live in logDir, salvaging whatever the interruption
// left behind and finishing the run with logs whose content matches an
// uninterrupted one. The pipeline configuration must match the original
// run's. Cancelling ctx stops it as it stops Simulate.
func (p *Pipeline) Resume(ctx context.Context, logDir string) (*abm.Result, []*abm.ResumeReport, error) {
	ctx, sp := telemetry.StartSpan(ctx, "pipeline/simulate")
	defer sp.End()
	return abm.Resume(ctx, p.SimConfig(logDir))
}

// Network is a synthesized collocation network together with the person
// metadata needed for the paper's analyses.
type Network struct {
	// Tri is the sparse upper-triangular weighted adjacency matrix.
	Tri *sparse.Tri
	// Persons is the population size (the graph's vertex space).
	Persons int
	// Stats reports what the synthesis did.
	Stats *core.Stats

	g *graph.Graph
}

// Synthesize builds the collocation network for hours [t0, t1) from the
// given per-rank log files, honoring Config.MemBudgetBytes (entries
// beyond the budget spill to disk; the network is the same either way).
// Cancelling ctx aborts within one work unit.
func (p *Pipeline) Synthesize(ctx context.Context, logPaths []string, t0, t1 uint32) (*Network, error) {
	ctx, sp := telemetry.StartSpan(ctx, "pipeline/synthesize")
	defer sp.End()
	tri, stats, err := core.SynthesizeFiles(ctx, logPaths, t0, t1, p.synthConfig())
	if err != nil {
		return nil, err
	}
	sp.AddCount(int64(stats.Entries))
	return &Network{Tri: tri, Persons: p.Pop.NumPersons(), Stats: stats}, nil
}

// StreamConfig parameterizes Pipeline.Stream.
type StreamConfig struct {
	// T0, T1 bound the streamed range in simulation hours. T1 =
	// core.StreamOpenEnd (the default when zero) follows the logs until
	// the simulation closes them.
	T0, T1 uint32
	// WindowHours is the cadence at which network generations are
	// emitted; zero selects 24 (daily generations).
	WindowHours uint32
	// HorizonHours bounds the assumed activity span for window closing;
	// zero selects core.DefaultStreamHorizon.
	HorizonHours uint32
	// DecayNum/DecayDen set the per-window weight decay of the rolling
	// network (see core.StreamConfig.DecayNum); both zero keeps the
	// cumulative network.
	DecayNum, DecayDen uint64
	// Poll is the log-tail poll interval (zero:
	// eventlog.DefaultTailPoll).
	Poll time.Duration
	// OnWindow receives each closed window, in order. See
	// core.StreamConfig.OnWindow.
	OnWindow func(core.WindowResult) error
}

// Stream follows the per-rank event logs of a running (or already
// finished) simulation and synthesizes a rolling collocation network,
// invoking cfg.OnWindow once per closed window — the live counterpart
// of Synthesize. Run it concurrently with Simulate on the same log
// paths (set Config.FlushEvery so entries become durable at a bounded
// simulated lag), or after the fact on closed logs, where the emitted
// windows are bit-identical to batch syntheses of the same windows.
// Config.MemBudgetBytes bounds the buffered entries as in Synthesize.
// Cancelling ctx aborts the stream, including while blocked waiting for
// simulation output, with an error wrapping context.Canceled.
func (p *Pipeline) Stream(ctx context.Context, logPaths []string, cfg StreamConfig) (*core.StreamStats, error) {
	ctx, sp := telemetry.StartSpan(ctx, "pipeline/stream")
	defer sp.End()
	t1 := cfg.T1
	if t1 == 0 {
		t1 = core.StreamOpenEnd
	}
	window := cfg.WindowHours
	if window == 0 {
		window = 24
	}
	srcs := eventlog.OpenTails(ctx, logPaths, cfg.T0, t1, eventlog.TailOptions{Poll: cfg.Poll})
	st, err := core.Stream(ctx, srcs, core.StreamConfig{
		T0:           cfg.T0,
		T1:           t1,
		WindowHours:  window,
		HorizonHours: cfg.HorizonHours,
		DecayNum:     cfg.DecayNum,
		DecayDen:     cfg.DecayDen,
		Synth:        p.synthConfig(),
		OnWindow:     cfg.OnWindow,
	})
	if st != nil {
		sp.AddCount(int64(st.Entries))
	}
	return st, err
}

// Graph returns (and caches) the CSR graph over the full person ID
// space.
func (n *Network) Graph() *graph.Graph {
	if n.g == nil {
		n.g = graph.FromTri(n.Tri, n.Persons)
	}
	return n.g
}

// DegreeDistribution returns the network's degree distribution points
// (k ≥ 1), with fractions scaled by the total person count as in the
// paper's Figure 3.
func (n *Network) DegreeDistribution() []netstat.Point {
	return netstat.Distribution(n.Graph().DegreeHistogram(), n.Persons)
}

// AgeGroupNetworks returns the within-group collocation networks, one
// per age group (Figure 5: "edges between age groups are removed").
func (p *Pipeline) AgeGroupNetworks(n *Network) []*Network {
	groups := make([]int, p.Pop.NumPersons())
	for i, g := range p.Pop.AgeGroups() {
		groups[i] = int(g)
	}
	per := netstat.WithinGroup(n.Tri, groups, int(synthpop.NumAgeGroups))
	out := make([]*Network, len(per))
	for i, tri := range per {
		out[i] = &Network{Tri: tri, Persons: p.Pop.NumPersons()}
	}
	return out
}

// Days returns the configured simulation duration.
func (p *Pipeline) Days() int { return p.cfg.Days }
