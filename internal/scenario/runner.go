package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/community"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Telemetry series for the scenario engine.
var (
	mRuns       = telemetry.C("scenario_runs_total")
	mJobs       = telemetry.C("scenario_jobs_total")
	mSteps      = telemetry.C("scenario_steps_total")
	mFailures   = telemetry.C("scenario_failures_total")
	mActiveRuns = telemetry.G("scenario_active")
	mRunSecs    = telemetry.H("scenario_run_seconds")
)

// Config is the execution configuration — everything here may change
// how fast a run goes but must never change what it computes.
type Config struct {
	// Slots bounds concurrent replications (default 1).
	Slots int
}

// Stream tags for key: each derived rng purpose gets its own tag so the
// streams cannot collide even for equal (sweep, rep) coordinates.
const (
	tagRun       = 1 // the per-job process stream
	tagSeeds     = 2 // random seed selection, per replication
	tagVax       = 3 // vaccination pre-assignment, per replication
	tagCommunity = 4 // the one-shot Louvain pass for community seeding
)

// mix64 is the SplitMix64 finalizer — the same mixer rng.New seeds
// through, reused here to fold (root, tag, sweep, rep) into one
// well-decorrelated stream key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// key derives the rng seed for one purpose at one grid coordinate. This
// is the determinism contract: every stochastic draw in a run comes
// from a Source seeded by key(root, tag, sweep, rep), so the result is
// a pure function of the Spec regardless of worker count or execution
// order.
func key(root uint64, tag, sweep, rep int) uint64 {
	k := mix64(root ^ 0x9e3779b97f4a7c15)
	k = mix64(k + uint64(tag))
	k = mix64(k + uint64(sweep))
	return mix64(k + uint64(rep))
}

// AggFloat summarizes one statistic across replications: mean, 95%
// confidence half-width (normal approximation, sample sd; 0 for a
// single replication), and the observed range.
type AggFloat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func aggregate(xs []float64) AggFloat {
	a := AggFloat{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		a.Mean += x
		if x < a.Min {
			a.Min = x
		}
		if x > a.Max {
			a.Max = x
		}
	}
	n := float64(len(xs))
	a.Mean /= n
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - a.Mean
			ss += d * d
		}
		sd := math.Sqrt(ss / (n - 1))
		a.CI95 = 1.96 * sd / math.Sqrt(n)
	}
	return a
}

// PointResult aggregates the replications at one sweep point.
type PointResult struct {
	Point
	Replications int `json:"replications"`

	// MeanCurve is the per-step mean of new events (infections or
	// adoptions), index 0 = the seeding step.
	MeanCurve []float64 `json:"mean_curve"`
	// AttackRate is total-ever-affected / vertices.
	AttackRate AggFloat `json:"attack_rate"`
	// PeakStep is the step with the most new events.
	PeakStep AggFloat `json:"peak_step"`
	// TotalMean is the mean count of ever-affected vertices.
	TotalMean float64 `json:"total_mean"`
}

// Outcome is the deterministic part of a run: everything in here is a
// pure function of (Spec, graph), so its digest proves two executions
// computed the same thing. Timing, throughput, and queue-model data
// live in Result, outside the digest.
type Outcome struct {
	Process      string        `json:"process"`
	Steps        int           `json:"steps"`
	Seed         uint64        `json:"seed"`
	Replications int           `json:"replications"`
	Vertices     int           `json:"vertices"`
	Edges        int           `json:"edges"`
	SeedPolicy   string        `json:"seed_policy"`
	SeedCount    int           `json:"seed_count"`
	Closed       int           `json:"closed,omitempty"`
	Intervention *Intervention `json:"intervention,omitempty"`
	Points       []PointResult `json:"points"`
}

// Digest returns the sha256 of the Outcome's canonical JSON encoding.
// Struct field order fixes the encoding, so equal outcomes hash equal.
func (o *Outcome) Digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		// Outcome contains only marshalable fields; this is unreachable.
		panic(fmt.Sprintf("scenario: outcome digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// QueueModel is what the sweep would cost on a shared batch cluster,
// per the batch package's queue simulator: one job per sweep point,
// costed in step-units. It depends on Slots, so it lives outside the
// digest.
type QueueModel struct {
	Slots         int     `json:"slots"`
	Policy        string  `json:"policy"`
	MakespanUnits float64 `json:"makespan_units"`
	MeanWaitUnits float64 `json:"mean_wait_units"`
}

// Result is one finished run: the digestable Outcome plus execution
// metadata that may legitimately vary between identical runs.
type Result struct {
	Outcome Outcome `json:"outcome"`
	// Digest is Outcome.Digest(), precomputed for clients.
	Digest      string     `json:"digest"`
	Jobs        int        `json:"jobs"`
	StepsRun    int64      `json:"steps_run"`
	WallSeconds float64    `json:"wall_seconds"`
	StepsPerSec float64    `json:"steps_per_sec"`
	Queue       QueueModel `json:"queue"`
}

// pickDistinct selects count distinct vertices of [0,n) from src. For
// small counts it rejection-samples; for dense picks it runs a partial
// Fisher-Yates. Both paths are deterministic functions of src's stream.
func pickDistinct(src *rng.Source, n, count int) []uint32 {
	out := make([]uint32, 0, count)
	if count*2 < n {
		seen := make(map[uint32]bool, count)
		for len(out) < count {
			v := uint32(src.Intn(n))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	for i := 0; i < count; i++ {
		j := i + src.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		out = append(out, ids[i])
	}
	return out
}

// communitySeeds picks the top-degree member of each of the largest
// communities, round-robin when Count exceeds the community count.
// Louvain runs once on the full graph with its own keyed stream, so
// every replication and sweep point sees the same seed set.
func communitySeeds(g *graph.Graph, root uint64, count int) []uint32 {
	labels, _ := community.Louvain(g, rng.New(key(root, tagCommunity, 0, 0)))
	members := make(map[int][]uint32)
	for v, l := range labels {
		members[l] = append(members[l], uint32(v))
	}
	type comm struct {
		ids []uint32
		min uint32
	}
	comms := make([]comm, 0, len(members))
	for _, ids := range members {
		// Candidates within a community: degree-descending, id-ascending.
		sort.Slice(ids, func(i, j int) bool {
			di, dj := g.Degree(ids[i]), g.Degree(ids[j])
			if di != dj {
				return di > dj
			}
			return ids[i] < ids[j]
		})
		min := ids[0]
		for _, id := range ids {
			if id < min {
				min = id
			}
		}
		comms = append(comms, comm{ids: ids, min: min})
	}
	// Communities: size-descending, lowest-member-id tie-break.
	sort.Slice(comms, func(i, j int) bool {
		if len(comms[i].ids) != len(comms[j].ids) {
			return len(comms[i].ids) > len(comms[j].ids)
		}
		return comms[i].min < comms[j].min
	})
	out := make([]uint32, 0, count)
	for round := 0; len(out) < count; round++ {
		added := false
		for _, c := range comms {
			if round < len(c.ids) {
				out = append(out, c.ids[round])
				added = true
				if len(out) == count {
					return out
				}
			}
		}
		if !added {
			return out // count > vertices cannot happen post-Validate, but stay safe
		}
	}
	return out
}

// Run executes the full sweep of spec over g and returns the
// aggregated, digested result. The same (spec, graph) pair yields a
// byte-identical Outcome for any Slots value and any scheduling of the
// job grid.
func Run(ctx context.Context, g *graph.Graph, spec Spec, cfg Config) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(g); err != nil {
		mFailures.Add(1)
		return nil, err
	}
	slots := cfg.Slots
	if slots < 1 {
		slots = 1
	}
	sw := telemetry.Clock()
	t0 := time.Now()
	mRuns.Add(1)
	mActiveRuns.Add(1)
	defer mActiveRuns.Add(-1)

	view := NewView(g, spec.Intervention)
	points := spec.Grid()
	reps := spec.Replications
	nJobs := len(points) * reps
	n := g.NumVertices()

	// Seed selection. The deterministic policies resolve once; the
	// random policy draws per replication from its own keyed stream, so
	// replication r sees the same seeds at every sweep point.
	var fixedSeeds []uint32
	var seedsByRep [][]uint32
	switch spec.Seeds.Policy {
	case SeedExplicit:
		fixedSeeds = spec.Seeds.IDs
	case SeedTopDegree:
		fixedSeeds = g.TopDegree(spec.Seeds.Count)
	case SeedCommunity:
		fixedSeeds = communitySeeds(g, spec.Seed, spec.Seeds.Count)
	case SeedRandom:
		seedsByRep = make([][]uint32, reps)
		for r := 0; r < reps; r++ {
			seedsByRep[r] = pickDistinct(rng.New(key(spec.Seed, tagSeeds, 0, r)), n, spec.Seeds.Count)
		}
	}
	seedCount := spec.Seeds.Count
	if spec.Seeds.Policy == SeedExplicit {
		seedCount = len(spec.Seeds.IDs)
	}

	// Vaccination pre-assignment, per replication.
	var immuneByRep [][]bool
	if iv := spec.Intervention; iv != nil && iv.VaccinateFraction > 0 {
		count := int(iv.VaccinateFraction * float64(n))
		if count > 0 {
			immuneByRep = make([][]bool, reps)
			for r := 0; r < reps; r++ {
				immune := make([]bool, n)
				for _, v := range pickDistinct(rng.New(key(spec.Seed, tagVax, 0, r)), n, count) {
					immune[v] = true
				}
				immuneByRep[r] = immune
			}
		}
	}

	// Execute the job grid on a slot-bounded worker pool. Job j is
	// sweep point j/reps, replication j%reps; each worker pulls the
	// next index off an atomic counter and writes into its own cell, so
	// the result is independent of which worker ran what.
	repsOut := make([]Rep, nJobs)
	var next, stepsRun atomic.Int64
	var wg sync.WaitGroup
	if slots > nJobs {
		slots = nJobs
	}
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= nJobs || ctx.Err() != nil {
					return
				}
				point, rep := j/reps, j%reps
				seeds := fixedSeeds
				if seedsByRep != nil {
					seeds = seedsByRep[rep]
				}
				var immune []bool
				if immuneByRep != nil {
					immune = immuneByRep[rep]
				}
				out := points[point].Run(view, immune, seeds, rng.New(key(spec.Seed, tagRun, point, rep)), spec.Steps,
					func() bool { return ctx.Err() != nil })
				repsOut[j] = out
				stepsRun.Add(int64(out.StepsRun))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		mFailures.Add(1)
		return nil, fmt.Errorf("scenario: run canceled: %w", err)
	}

	// Aggregate per sweep point, in grid order.
	outPoints := make([]PointResult, len(points))
	for p, pt := range points {
		pr := PointResult{Point: pt, Replications: reps, MeanCurve: make([]float64, spec.Steps)}
		attack := make([]float64, reps)
		peak := make([]float64, reps)
		for r := 0; r < reps; r++ {
			rep := repsOut[p*reps+r]
			for step, v := range rep.NewPerStep {
				pr.MeanCurve[step] += float64(v)
			}
			attack[r] = float64(rep.Total) / float64(n)
			peak[r] = float64(rep.PeakStep)
			pr.TotalMean += float64(rep.Total)
		}
		for i := range pr.MeanCurve {
			pr.MeanCurve[i] /= float64(reps)
		}
		pr.TotalMean /= float64(reps)
		pr.AttackRate = aggregate(attack)
		pr.PeakStep = aggregate(peak)
		outPoints[p] = pr
	}

	outcome := Outcome{
		Process:      spec.Process,
		Steps:        spec.Steps,
		Seed:         spec.Seed,
		Replications: reps,
		Vertices:     n,
		Edges:        g.NumEdges(),
		SeedPolicy:   spec.Seeds.Policy,
		SeedCount:    seedCount,
		Closed:       view.NumClosed(),
		Intervention: spec.Intervention,
		Points:       outPoints,
	}

	wall := time.Since(t0).Seconds()
	mJobs.Add(int64(nJobs))
	mSteps.Add(stepsRun.Load())
	sw.Observe(mRunSecs)

	res := &Result{
		Outcome:     outcome,
		Digest:      outcome.Digest(),
		Jobs:        nJobs,
		StepsRun:    stepsRun.Load(),
		WallSeconds: wall,
		Queue:       queueModel(ctx, spec, len(points), slots),
	}
	if wall > 0 {
		res.StepsPerSec = float64(res.StepsRun) / wall
	}
	return res, nil
}

// queueModel runs the batch-queue simulator over the sweep — one
// single-slot job per sweep point, costed in step-units — answering
// "what would this sweep cost on a shared cluster with this many
// slots". Purely advisory; never fails the run.
func queueModel(ctx context.Context, spec Spec, points, slots int) QueueModel {
	jobs := make([]batch.Job, points)
	for i := range jobs {
		jobs[i] = batch.Job{ID: i, Procs: 1, Duration: float64(spec.Steps * spec.Replications)}
	}
	qm := QueueModel{Slots: slots, Policy: batch.Backfill.String()}
	results, err := batch.Simulate(ctx, slots, jobs, batch.Backfill)
	if err != nil {
		return qm
	}
	qm.MakespanUnits = batch.Makespan(results, nil)
	qm.MeanWaitUnits = batch.WaitTime(results, nil)
	return qm
}
