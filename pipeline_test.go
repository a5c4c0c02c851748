package repro

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/synthpop"
)

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Config{Persons: 0, Days: 1}); err == nil {
		t.Error("zero persons accepted")
	}
	if _, err := NewPipeline(Config{Persons: 10, Days: 0}); err == nil {
		t.Error("zero days accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p, err := NewPipeline(Config{Persons: 1500, Days: 3, Seed: 9, Ranks: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Simulate(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Entries == 0 || len(sim.LogPaths) != 4 {
		t.Fatalf("simulation produced no logs: %+v", sim)
	}
	net, err := p.Synthesize(context.Background(), sim.LogPaths, 0, 72)
	if err != nil {
		t.Fatal(err)
	}
	if net.Tri.NNZ() == 0 {
		t.Fatal("empty network")
	}
	g := net.Graph()
	if g.NumVertices() != 1500 {
		t.Fatalf("graph over %d vertices, want population size 1500", g.NumVertices())
	}
	if g.NumEdges() != net.Tri.NNZ() {
		t.Fatal("graph edge count differs from adjacency nnz")
	}
	if pts := net.DegreeDistribution(); len(pts) == 0 {
		t.Fatal("empty degree distribution")
	}
}

// TestPipelineStreamFollowsLiveSimulation is the in-process version of
// the streaming smoke: a simulation with hourly durability flushes runs
// concurrently with a Stream tailing its (initially nonexistent) logs.
// The stream must emit one network per day-window and its cumulative
// result must be bit-identical to a batch synthesis of the same range
// after the fact.
func TestPipelineStreamFollowsLiveSimulation(t *testing.T) {
	const ranks, days = 2, 2
	p, err := NewPipeline(Config{
		Persons: 600, Days: days, Seed: 11, Ranks: ranks, Workers: 2, FlushEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, ranks)
	for r := range paths {
		paths[r] = filepath.Join(dir, fmt.Sprintf("rank%04d.h5l", r))
	}

	simErr := make(chan error, 1)
	go func() {
		_, err := p.Simulate(context.Background(), dir)
		simErr <- err
	}()

	var last *sparse.Tri
	st, err := p.Stream(context.Background(), paths, StreamConfig{
		T0: 0, T1: days * 24, WindowHours: 24, Poll: 2 * time.Millisecond,
		OnWindow: func(w core.WindowResult) error {
			last = w.Net
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-simErr; err != nil {
		t.Fatal(err)
	}
	if st.Windows != days {
		t.Fatalf("streamed %d windows, want %d", st.Windows, days)
	}
	if st.LateEntries != 0 {
		t.Fatalf("%d late entries from simulator-ordered logs", st.LateEntries)
	}
	net, err := p.Synthesize(context.Background(), paths, 0, days*24)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil || !last.Equal(net.Tri) {
		t.Fatal("live-streamed cumulative network differs from batch synthesis")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	run := func() uint64 {
		p, err := NewPipeline(Config{Persons: 800, Days: 2, Seed: 5, Ranks: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := p.Simulate(context.Background(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		net, err := p.Synthesize(context.Background(), sim.LogPaths, 0, 48)
		if err != nil {
			t.Fatal(err)
		}
		return net.Tri.TotalWeight() + uint64(net.Tri.NNZ())<<32
	}
	if run() != run() {
		t.Fatal("same-seed pipelines produced different networks")
	}
}

func TestAgeGroupNetworksPartitionEdges(t *testing.T) {
	p, err := NewPipeline(Config{Persons: 1200, Days: 2, Seed: 13, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Simulate(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net, err := p.Synthesize(context.Background(), sim.LogPaths, 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	per := p.AgeGroupNetworks(net)
	if len(per) != int(synthpop.NumAgeGroups) {
		t.Fatalf("got %d group networks", len(per))
	}
	groups := p.Pop.AgeGroups()
	within := 0
	for k := range net.Tri.I {
		if groups[net.Tri.I[k]] == groups[net.Tri.J[k]] {
			within++
		}
	}
	got := 0
	for gi, n := range per {
		got += n.Tri.NNZ()
		// Every edge in a group network connects two members of that
		// group.
		for k := range n.Tri.I {
			if int(groups[n.Tri.I[k]]) != gi || int(groups[n.Tri.J[k]]) != gi {
				t.Fatalf("group %d network contains out-of-group edge", gi)
			}
		}
	}
	if got != within {
		t.Fatalf("group networks hold %d edges, full network has %d within-group", got, within)
	}
}

// TestConfigRejectsNegativeFields: every numeric Config field errors on
// a negative value instead of being coerced to its default.
func TestConfigRejectsNegativeFields(t *testing.T) {
	bad := []Config{
		{Persons: -1, Days: 1},
		{Persons: 10, Days: -1},
		{Persons: 10, Days: 1, Ranks: -2},
		{Persons: 10, Days: 1, Workers: -1},
		{Persons: 10, Days: 1, CacheEntries: -5},
		{Persons: 10, Days: 1, MemBudgetBytes: -64},
	}
	for i, cfg := range bad {
		if _, err := NewPipeline(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	// Zero values keep their pick-a-default meaning.
	if _, err := NewPipeline(Config{Persons: 50, Days: 1}); err != nil {
		t.Errorf("all-default config rejected: %v", err)
	}
}

// TestPipelineBudgetedSynthesis: MemBudgetBytes flows from the facade
// Config into the synthesis stage and reproduces the unbudgeted network.
func TestPipelineBudgetedSynthesis(t *testing.T) {
	mk := func(budget int64) *Pipeline {
		p, err := NewPipeline(Config{
			Persons: 800, Days: 2, Seed: 23, Ranks: 2, Workers: 2,
			MemBudgetBytes: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := mk(0)
	sim, err := p.Simulate(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Synthesize(context.Background(), sim.LogPaths, 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mk(8<<10).Synthesize(context.Background(), sim.LogPaths, 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Shards < 2 {
		t.Fatalf("budgeted pipeline used %d shards, want >= 2", got.Stats.Shards)
	}
	if !got.Tri.Equal(want.Tri) {
		t.Fatal("budgeted pipeline network differs from unbudgeted")
	}
}

// TestPipelineStreamHonoursMemBudget: Stream used to build its own
// core.Config and drop MemBudgetBytes. Under a tiny budget some window
// must spill, and every window's own and running network must equal the
// unbudgeted stream's.
func TestPipelineStreamHonoursMemBudget(t *testing.T) {
	stream := func(budget int64, paths []string) (wins []core.WindowResult, logs []string) {
		p, err := NewPipeline(Config{
			Persons: 800, Days: 2, Seed: 23, Ranks: 2, Workers: 2,
			MemBudgetBytes: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if paths == nil {
			sim, err := p.Simulate(context.Background(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			paths = sim.LogPaths
		}
		_, err = p.Stream(context.Background(), paths, StreamConfig{
			T1: 48, WindowHours: 12, DecayNum: 1, DecayDen: 2,
			OnWindow: func(w core.WindowResult) error {
				wins = append(wins, w)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return wins, paths
	}
	want, paths := stream(0, nil)
	got, _ := stream(8<<10, paths)
	if len(got) != len(want) || len(want) != 4 {
		t.Fatalf("%d budgeted windows, %d unbudgeted, want 4 each", len(got), len(want))
	}
	spilled := false
	for i, w := range got {
		spilled = spilled || w.Stats.Shards > 0
		if want[i].Stats.Shards != 0 {
			t.Fatalf("window %d: unbudgeted stream spilled", i)
		}
		if !w.Window.Equal(want[i].Window) || !w.Net.Equal(want[i].Net) {
			t.Fatalf("window [%d,%d): budgeted stream differs from unbudgeted", w.W0, w.W1)
		}
	}
	if !spilled {
		t.Fatal("no window of the budgeted stream spilled: Stream ignores MemBudgetBytes")
	}
}
