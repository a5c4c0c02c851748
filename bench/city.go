package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/schedule"
	"repro/internal/sparse"
)

// shape is the problem size. Every workload draws on one synthetic city of
// this size; only the seed changes between runs.
type shape struct {
	Name        string `json:"name"`
	Persons     int    `json:"persons"`
	BatchDays   int    `json:"batch_days"`   // batch.*: simulated days; the network is cut from the last one
	WeekDays    int    `json:"week_days"`    // every other workload starts from logs of this many days
	StreamHours uint32 `json:"stream_hours"` // stream.*: hours of the logs replayed
	WindowHours uint32 `json:"window_hours"` // stream.*: hours per published generation
	SwapFromDay int    `json:"swap_from_day"`
	// BudgetBytes is resynth.budget's MemBudgetBytes: below the slice's
	// entry bytes, so the spill path runs (the week of 20k persons is
	// about 7 MiB of entries; the 8 MiB the issue names never spills).
	BudgetBytes int64 `json:"budget_bytes"`
	// Rate is the open loop's fixed request rate, all connections together.
	Rate float64 `json:"rate_per_s"`
}

var shapes = map[string]shape{
	// 72 of the week's 168 hours are replayed: 18 windows take about ten
	// seconds here, the whole week about thirty, which the run-time cap
	// of the benchmark contract does not leave room for.
	"20k": {Name: "20k", Persons: 20000, BatchDays: 14, WeekDays: 7, StreamHours: 72, WindowHours: 4,
		SwapFromDay: 3, BudgetBytes: 2 << 20, Rate: 1000},
	"tiny": {Name: "tiny", Persons: 1000, BatchDays: 2, WeekDays: 2, StreamHours: 24, WindowHours: 4,
		SwapFromDay: 1, BudgetBytes: 32 << 10, Rate: 500},
}

func (s shape) weekHours() uint32 { return uint32(s.WeekDays) * 24 }

// env is what a workload's set-up and timed region share.
type env struct {
	ctx     context.Context
	shape   shape
	seed    uint64
	seconds float64
	par     int       // ranks = workers = slots = client connections
	dir     string    // holds what set-up built; inside the checkout
	rec     *recorder // nil on the untraced run
	rep     *report

	readBytes int // entry bytes one traced log read returned
}

func (e *env) path(elem ...string) string {
	return filepath.Join(append([]string{e.dir}, elem...)...)
}

// citySeed fixes the population: every run simulates the same synthetic
// city. Its place sizes decide the edge count, which moves by ±13% from
// one population seed to the next — more than any bound in BENCHMARK.json
// — while the schedules move it by under 1%.
const citySeed = 2017

// newPipeline is repro.NewPipeline over the one city, with the run's seed
// driving the schedules: who is where at which hour, and with that every
// log entry and every edge weight the program under test sees.
func (e *env) newPipeline(days int) (*repro.Pipeline, error) {
	p, err := repro.NewPipeline(repro.Config{Persons: e.shape.Persons, Days: days, Seed: citySeed, Ranks: e.par, Workers: e.par})
	if err != nil {
		return nil, err
	}
	p.Gen = schedule.NewGenerator(p.Pop, e.seed)
	return p, nil
}

func (e *env) indexOptions() gstore.IndexOptions { return gstore.IndexOptions{Workers: e.par} }

// simulateWeek is the set-up every log-fed workload shares: the city is
// generated and simulated, leaving closed per-rank logs under dir/logs.
func simulateWeek(e *env) ([]string, error) {
	p, err := e.newPipeline(e.shape.WeekDays)
	if err != nil {
		return nil, err
	}
	res, err := p.Simulate(e.ctx, e.path("logs"))
	if err != nil {
		return nil, err
	}
	return res.LogPaths, nil
}

// logPaths finds the logs simulateWeek left, in rank order.
func logPaths(e *env) ([]string, error) {
	paths, err := filepath.Glob(e.path("logs", "rank*.h5l"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no logs under %s", e.path("logs"))
	}
	sort.Strings(paths)
	return paths, nil
}

// bakeSlice synthesizes hours [t0,t1) of the logs in memory and writes the
// network as an indexed snapshot over the full person space — the batch
// path, which the stream workload also uses as its oracle.
func bakeSlice(e *env, paths []string, t0, t1 uint32, out string) (*sparse.Tri, error) {
	tri, _, err := core.SynthesizeFiles(e.ctx, paths, t0, t1, core.Config{Workers: e.par})
	if err != nil {
		return nil, err
	}
	return tri, gstore.WriteFileIndexed(out, graph.FromTri(tri, e.shape.Persons), e.indexOptions())
}

func setupLogs(e *env) error {
	_, err := simulateWeek(e)
	return err
}

// setupStream adds an empty generation 0 at the live path, so the server
// exists before the first window and every window is a Reload.
func setupStream(e *env) error {
	if _, err := simulateWeek(e); err != nil {
		return err
	}
	return gstore.WriteFileIndexed(e.path("live.gsnap"), graph.FromTri(&sparse.Tri{}, e.shape.Persons), e.indexOptions())
}

func setupScenario(e *env) error {
	paths, err := simulateWeek(e)
	if err != nil {
		return err
	}
	_, err = bakeSlice(e, paths, 0, e.shape.weekHours(), e.path("week.gsnap"))
	return err
}

// setupServe bakes the two generations the swapper alternates: the whole
// week and its last days.
func setupServe(e *env) error {
	if err := setupScenario(e); err != nil {
		return err
	}
	paths, err := logPaths(e)
	if err != nil {
		return err
	}
	if _, err := bakeSlice(e, paths, uint32(e.shape.SwapFromDay)*24, e.shape.weekHours(), e.path("tail.gsnap")); err != nil {
		return err
	}
	return os.Link(e.path("week.gsnap"), e.path("live.gsnap"))
}
