// Package core implements the paper's primary contribution: parallel
// synthesis of person collocation networks from simulation event logs
// (Section IV).
//
// The pipeline mirrors the paper's four steps:
//
//  1. Data loading — log entries are read from per-rank H5-lite files and
//     sub-set to the requested time slice (the paper's data.table step).
//  2. Collocation matrix creation — for every place occurring in the
//     slice, a sparse binary p×t matrix x is built in parallel, with a 1
//     wherever a person was present at the place during a time slot.
//  3. Load balancing — the per-place matrices are partitioned across
//     workers by nonzero count (LPT), the step the paper calls "crucial
//     to achieve even load balancing": collocated-person counts per place
//     range from a single individual to tens of thousands.
//  4. Adjacency creation and reduction — each worker computes A_l = x·xᵀ
//     for its places, appending the raw pair entries to a private paged
//     buffer (sparse.Pairs) that lives for the whole window; the window's
//     buffers are then reduced once, sharded by row range across the
//     workers, into the final A = Σ A_l (sparse.Coalesce).
//
// Workers are goroutines standing in for the paper's SNOW/Rmpi worker
// processes. The result is provably independent of the worker count; the
// tests check bit-for-bit equality across worker counts and against a
// brute-force simulator trace.
//
// This file holds the kernels (stages 1b–4 over one batch of entries),
// their statistics, and the entry points. Everything that reads log
// files — one slice, a series of windows, a live stream, with or
// without a memory budget — runs through the one engine in stream.go,
// which feeds the kernels a segment of a window at a time.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Telemetry series for the synthesis stage (naming scheme
// stage_metric_unit; see internal/telemetry). The stage-wall histograms
// (synth_load_seconds, ...) are fed by the spans started in
// synthesizeParts and its callers; registering them here makes the full
// schema visible on /metrics before the first run.
var (
	mEntries      = telemetry.C("synth_entries_total")
	mPlaces       = telemetry.C("synth_places_total")
	mNNZ          = telemetry.C("synth_nnz_total")
	mWorkUnits    = telemetry.C("synth_work_units_total")
	mSplits       = telemetry.C("synth_splits_total")
	mShards       = telemetry.C("synth_shards_total")
	mSpillBytes   = telemetry.C("synth_spill_bytes_total")
	mRankRetries  = telemetry.C("synth_rank_retries_total")
	mRankRevived  = telemetry.C("synth_rank_revivals_total")
	mRecovered    = telemetry.C("fault_recovered_total")
	mUnitSeconds  = telemetry.H("synth_gram_unit_seconds")
	mGatherBytes  = telemetry.C("synth_gather_bytes_total")
	_             = telemetry.H("synth_load_seconds")
	_             = telemetry.H("synth_build_seconds")
	_             = telemetry.H("synth_gram_seconds")
	_             = telemetry.H("synth_reduce_seconds")
	mSpillSeconds = telemetry.H("synth_spill_seconds")
	mCommSeconds  = telemetry.H("synth_comm_seconds")
	mMergeSeconds = telemetry.H("synth_merge_seconds")
)

// BalanceMode selects how per-place matrices are assigned to workers in
// stage 4.
type BalanceMode int

const (
	// BalanceNNZ partitions matrices by nonzero count, largest first
	// (the paper's method).
	BalanceNNZ BalanceMode = iota
	// BalanceNone deals places to workers in contiguous, equal-count
	// chunks in place-ID order, ignoring their cost — the ablation
	// baseline the paper warns about, under which "some workers would sit
	// idle while others would be working for extended periods".
	BalanceNone
)

func (m BalanceMode) String() string {
	switch m {
	case BalanceNNZ:
		return "nnz"
	case BalanceNone:
		return "none"
	default:
		return fmt.Sprintf("balancemode(%d)", int(m))
	}
}

// Config configures a synthesis run.
type Config struct {
	// Workers is the parallel worker count; zero selects GOMAXPROCS.
	Workers int
	// Balance selects the stage-4 load-balancing strategy.
	Balance BalanceMode
	// MaxRankRetries bounds how many rank failures SynthesizeDistributed
	// absorbs before giving up: each detected failure re-stripes the dead
	// rank's log files over the survivors and retries. Zero selects the
	// transport size (every peer may die once); negative disables
	// failure tolerance entirely.
	MaxRankRetries int
	// MemBudgetBytes caps the approximate bytes of log-entry data a
	// Stream — and so every file-based or streamed synthesis — keeps in
	// memory at once. Zero means unlimited. Once the buffered entries
	// outgrow their share of the budget they are spilled to
	// place-sorted temporary run files, and a closing window merges the
	// runs back and synthesizes them one place-complete group at a time;
	// the output is bit-identical to the unbudgeted one (groups partition
	// the place set and weight summation commutes). The budget bounds
	// log entries only: a window's raw pairs and its network are
	// O(edges) whatever the budget. Negative is invalid.
	MemBudgetBytes int64
	// SpillDir is the directory the spill run files are created under
	// (in a temporary sub-directory, removed when the synthesis
	// finishes); empty selects the OS temp dir.
	SpillDir string
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Validate rejects nonsensical configuration instead of silently
// coercing it: Workers and MemBudgetBytes must be non-negative and
// Balance one of the defined modes. (A negative MaxRankRetries is
// meaningful — it disables failure tolerance — and zero values select
// defaults as documented.)
func (c *Config) Validate() error {
	if c.Balance != BalanceNNZ && c.Balance != BalanceNone {
		return fmt.Errorf("core: unknown Balance mode %v", c.Balance)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	if c.MemBudgetBytes < 0 {
		return fmt.Errorf("core: MemBudgetBytes must be non-negative, got %d", c.MemBudgetBytes)
	}
	return nil
}

// ctxErr returns nil while ctx is live and a wrapped cancellation error
// (matching errors.Is(err, context.Canceled/DeadlineExceeded)) once it
// is not.
func ctxErr(ctx context.Context, op string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s canceled: %w", op, err)
	}
	return nil
}

// Stats reports what a synthesis run did, including the per-worker busy
// times that expose load imbalance.
type Stats struct {
	// Entries is the number of log entries that overlapped the slice.
	Entries int
	// Places is the number of distinct places in the slice.
	Places int
	// SliceHours is the width t of the collocation matrices.
	SliceHours int
	// TotalNNZ is the summed nonzero count of all collocation matrices.
	TotalNNZ int
	// WorkerCost is the pairwise-work weight assigned to each stage-4
	// worker by the balancer.
	WorkerCost []int
	// WorkerBusy is each stage-4 worker's gram-computation time.
	WorkerBusy []time.Duration
	// Splits is the number of mega-places whose pairwise loop the
	// balancer split into block×block tiles because a single place
	// exceeded the per-worker cost budget.
	Splits int
	// WorkUnits is the total number of stage-4 work units after
	// splitting (≥ Places when places were split).
	WorkUnits int
	// Load, Build, Gram, Reduce are per-stage wall times. Load includes
	// reading the entries from their sources when Stream did the reading.
	Load, Build, Gram, Reduce time.Duration
	// Shards is the number of place-complete groups synthesized from
	// spilled runs; zero when no Config.MemBudgetBytes was set or the
	// buffered entries never outgrew it.
	Shards int
	// SpilledBytes is the total size of the spill run files written.
	SpilledBytes uint64
	// Spill is the wall time spent writing spilled entries and reading
	// them back (zero when nothing spilled).
	Spill time.Duration
}

// add accumulates the per-batch stats st into the aggregate s. Worker
// slices sum element-wise; the worker count is fixed by Config, so the
// slots line up across batches.
func (s *Stats) add(st *Stats) {
	s.Entries += st.Entries
	s.Places += st.Places
	s.TotalNNZ += st.TotalNNZ
	s.Splits += st.Splits
	s.WorkUnits += st.WorkUnits
	s.Load += st.Load
	s.Build += st.Build
	s.Gram += st.Gram
	s.Reduce += st.Reduce
	if s.WorkerCost == nil {
		s.WorkerCost = make([]int, len(st.WorkerCost))
		s.WorkerBusy = make([]time.Duration, len(st.WorkerBusy))
	}
	for w := range st.WorkerCost {
		s.WorkerCost[w] += st.WorkerCost[w]
		s.WorkerBusy[w] += st.WorkerBusy[w]
	}
}

// IdleFraction returns the mean fraction of stage-4 wall time workers
// spent idle: 1 - mean(busy)/max(busy). Zero when perfectly balanced.
//
// Degenerate runs are well-defined rather than NaN: a run with no
// workers, no work units, or a single worker (mean == max by
// construction) reports 0 — there is no imbalance to measure.
func (s *Stats) IdleFraction() float64 {
	if len(s.WorkerBusy) == 0 {
		return 0
	}
	var max, sum time.Duration
	for _, b := range s.WorkerBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	if max == 0 {
		// Zero work units: no worker was ever busy, so no division —
		// 0/0 here must not surface as NaN.
		return 0
	}
	mean := float64(sum) / float64(len(s.WorkerBusy))
	return 1 - mean/float64(max)
}

// CostImbalance returns max(worker cost)/mean(worker cost); 1.0 is
// perfectly balanced.
//
// Degenerate runs are well-defined rather than NaN or a misleading
// "perfectly balanced": a run with no workers or zero total cost (no
// work units) reports 0, meaning "nothing to measure". Any run with
// actual work reports ≥ 1.
func (s *Stats) CostImbalance() float64 {
	if len(s.WorkerCost) == 0 {
		return 0
	}
	max, sum := 0, 0
	for _, n := range s.WorkerCost {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.WorkerCost))
	return float64(max) / mean
}

// StageReports converts the per-stage wall clocks into telemetry stage
// reports, in pipeline order. Every stage is named even at zero wall so
// run reports always show the full pipeline shape.
func (s *Stats) StageReports() []telemetry.StageReport {
	if s == nil {
		return nil
	}
	return []telemetry.StageReport{
		{Name: "synth/load", WallNs: s.Load.Nanoseconds(), Count: int64(s.Entries)},
		{Name: "synth/build", WallNs: s.Build.Nanoseconds(), Count: int64(s.TotalNNZ)},
		{Name: "synth/gram", WallNs: s.Gram.Nanoseconds(), Count: int64(s.WorkUnits)},
		{Name: "synth/reduce", WallNs: s.Reduce.Nanoseconds()},
		{Name: "synth/spill", WallNs: s.Spill.Nanoseconds(), Count: int64(s.Shards), Bytes: int64(s.SpilledBytes)},
	}
}

// RankReport rolls one rank's synthesis up into a telemetry rank
// report: busy is the sum of the stage walls, comm the time inside
// collectives, and idle the remainder of the rank's end-to-end wall
// (clamped at zero — stage parallelism can make busy exceed wall).
// A nil receiver (a rank that processed no files) reports zero work.
func (s *Stats) RankReport(rank int, wall, comm time.Duration) telemetry.RankReport {
	rep := telemetry.RankReport{
		Rank:   rank,
		WallNs: wall.Nanoseconds(),
		CommNs: comm.Nanoseconds(),
	}
	var busy time.Duration
	if s != nil {
		busy = s.Load + s.Build + s.Gram + s.Reduce + s.Spill
		rep.Entries = int64(s.Entries)
		rep.Places = int64(s.Places)
		rep.WorkUnits = int64(s.WorkUnits)
		rep.Splits = int64(s.Splits)
	}
	rep.BusyNs = busy.Nanoseconds()
	if idle := wall - busy - comm; idle > 0 {
		rep.IdleNs = idle.Nanoseconds()
	}
	return rep
}

// SynthesizeEntries builds the collocation network for the time slice
// [t0, t1) from in-memory log entries. Cancelling ctx aborts the
// synthesis within one stage-4 work unit; the returned error then wraps
// context.Canceled (or DeadlineExceeded).
func SynthesizeEntries(ctx context.Context, entries []eventlog.Entry, t0, t1 uint32, cfg Config) (*sparse.Tri, *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	bufs := make([]sparse.Pairs, cfg.workers())
	stats, err := synthesizeParts(ctx, entries, t0, t1, cfg, bufs)
	if err != nil {
		return nil, nil, err
	}
	net, wall := reduce(ctx, cfg.workers(), bufs)
	stats.Reduce += wall
	return net, stats, nil
}

// reduce closes a window: one sparse.Coalesce over every page of the
// window's Gram buffers, timed as the synth/reduce span.
func reduce(ctx context.Context, workers int, bufs []sparse.Pairs) (*sparse.Tri, time.Duration) {
	_, sp := telemetry.StartSpan(ctx, "synth/reduce")
	var parts [][]sparse.Entry
	for i := range bufs {
		parts = append(parts, bufs[i].Pages()...)
	}
	net := sparse.Coalesce(workers, parts...)
	return net, sp.End()
}

// synthesizeParts runs stages 1b–4 of the synthesis for one batch of
// log entries: stage-4 worker w appends its raw pair entries, uncoalesced,
// to bufs[w], which the caller owns (len(bufs) is the worker count).
// A caller gives each worker slot one buffer per window, has every batch
// of the window — each segment, and under a budget each place-complete
// group — append to the same set, and reduces the window once with
// reduce (SynthesizeEntries, windowAccumulator.Advance): one
// row-sharded pass, never a merge of per-batch matrices.
func synthesizeParts(ctx context.Context, entries []eventlog.Entry, t0, t1 uint32, cfg Config, bufs []sparse.Pairs) (*Stats, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("core: empty time slice [%d,%d)", t0, t1)
	}
	if err := ctxErr(ctx, "synthesis"); err != nil {
		return nil, err
	}
	stats := &Stats{SliceHours: int(t1 - t0)}

	// Stage 1b: sub-set to the slice and group by place. One sort of
	// place<<32|index keys orders the kept entries by place, each place's
	// in arrival order, and the per-place buckets are sub-slices of one
	// backing array in that order.
	//
	// Each stage is measured through a telemetry span; Stats reads the
	// span walls, so the per-run Stats and the registry's cumulative
	// synth_*_seconds histograms are views over the same measurement.
	_, spLoad := telemetry.StartSpan(ctx, "synth/load")
	// Counted first: a streamed window keeps only a fraction of the
	// resident entries.
	kept := 0
	for _, e := range entries {
		if e.Start < t1 && e.Stop > t0 {
			kept++
		}
	}
	keys := make([]uint64, 0, kept)
	for i, e := range entries {
		if e.Start < t1 && e.Stop > t0 {
			keys = append(keys, uint64(e.Place)<<32|uint64(i))
		}
	}
	keys = sortPlaceKeys(keys, make([]uint64, len(keys)))
	stats.Entries = len(keys)
	backing := make([]eventlog.Entry, len(keys))
	var buckets [][]eventlog.Entry // one place's entries each, in place order
	start := 0
	for k, key := range keys {
		backing[k] = entries[uint32(key)]
		if k+1 == len(keys) || key>>32 != keys[k+1]>>32 {
			buckets = append(buckets, backing[start:k+1:k+1])
			start = k + 1
		}
	}
	stats.Places = len(buckets)
	spLoad.AddCount(int64(stats.Entries))
	stats.Load = spLoad.End()
	mEntries.Add(int64(stats.Entries))
	mPlaces.Add(int64(stats.Places))

	// Stage 2: per-place collocation matrices, built in parallel.
	_, spBuild := telemetry.StartSpan(ctx, "synth/build")
	mats, err := buildCollocationMatrices(ctx, buckets, t0, t1, cfg.workers())
	if err != nil {
		spBuild.End()
		return nil, err
	}
	for _, m := range mats {
		stats.TotalNNZ += m.nnz
	}
	spBuild.AddCount(int64(stats.TotalNNZ))
	stats.Build = spBuild.End()
	mNNZ.Add(int64(stats.TotalNNZ))

	// Stage 3: partition work units across workers. Places whose
	// clique-compressed cost exceeds the per-worker budget are split
	// into block×block tiles of their pairwise loop so one mega-place
	// cannot serialize stage 4.
	assignments, splits := balance(mats, cfg.workers(), cfg.Balance)
	stats.Splits = splits
	stats.WorkerCost = make([]int, len(assignments))
	for w, list := range assignments {
		stats.WorkUnits += len(list)
		for _, u := range list {
			stats.WorkerCost[w] += u.cost
		}
	}
	mWorkUnits.Add(int64(stats.WorkUnits))
	mSplits.Add(int64(splits))

	// Stage 4: parallel x·xᵀ through the clique-compressed tile kernel.
	// Each worker appends raw pair entries to a slice of its own — "each
	// worker finally sums the set of adjacency matrices it has created".
	// Cancellation is observed between work units: every worker re-reads
	// a shared flag before starting a tile, so a canceled synthesis stops
	// within one unit of compute.
	_, spGram := telemetry.StartSpan(ctx, "synth/gram")
	stats.WorkerBusy = make([]time.Duration, len(assignments))
	var canceled atomic.Bool
	var wg sync.WaitGroup
	for w := range assignments {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := time.Now()
			for _, u := range assignments[w] {
				if canceled.Load() {
					break
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					break
				}
				sw := telemetry.Clock()
				u.bm.GramTileAppend(&bufs[w], u.p0, u.p1, u.q0, u.q1)
				sw.Observe(mUnitSeconds)
			}
			stats.WorkerBusy[w] = time.Since(t)
		}(w)
	}
	wg.Wait()
	// The per-place matrices are dead now; recycle them (and their row
	// bitsets) for the next file or slice.
	for _, m := range mats {
		m.bm.Recycle()
	}
	spGram.AddCount(int64(stats.WorkUnits))
	stats.Gram = spGram.End()
	if canceled.Load() {
		return nil, ctxErr(ctx, "synthesis")
	}
	// The caller's one Coalesce over every worker's pages replaces a
	// per-worker sort plus k-way merge, and stays bit-identical for any
	// worker count or balance mode because the tile cover reproduces the
	// untiled entry multiset and weight summation is commutative.
	return stats, nil
}

// sortPlaceKeys sorts place<<32|index keys built in index order, with
// buf (as long as keys) as scratch, and returns the sorted slice: keys
// or buf. It is an LSD radix sort over the place bytes alone, skipping
// bytes in which no key differs; every pass is stable and the indexes
// already ascend, so each place's keys come out in arrival order.
func sortPlaceKeys(keys, buf []uint64) []uint64 {
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	src, dst := keys, buf
	for shift := 32; shift < 64; shift += 8 {
		if byte((or^and)>>shift) == 0 {
			continue
		}
		var offs [256]int
		for _, k := range src {
			offs[byte(k>>shift)]++
		}
		sum := 0
		for b, n := range offs {
			offs[b], sum = sum, sum+n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[offs[b]] = k
			offs[b]++
		}
		src, dst = dst, src
	}
	return src
}

// placeMatrix pairs a place's collocation matrix with its balancing
// weights: nnz (set bits, reported in Stats.TotalNNZ) and cost, the
// pairwise-work estimate the balancer uses. The paper balances on "the
// number of nonzero elements ... the amount of collocated persons at
// that location"; since the x·xᵀ work is quadratic in the collocated
// person count, the LPT weight is that count squared (times the bitset
// width).
type placeMatrix struct {
	bm   *sparse.BitMatrix
	nnz  int
	cost int
}

// buildCollocationMatrices runs stage 2 with a bounded worker pool over
// the per-place entry buckets (buckets[i] holds one place's entries).
// Cancellation is observed between places: on a dead ctx the pool stops
// handing out work, the matrices built so far are recycled, and a
// wrapped cancellation error is returned.
func buildCollocationMatrices(ctx context.Context, buckets [][]eventlog.Entry, t0, t1 uint32, workers int) ([]placeMatrix, error) {
	mats := make([]placeMatrix, len(buckets))
	var canceled atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if canceled.Load() {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(buckets) {
					return
				}
				bm := sparse.GetBitMatrix(int(t1 - t0))
				for _, e := range buckets[i] {
					lo, hi := e.Start, e.Stop
					if lo < t0 {
						lo = t0
					}
					if hi > t1 {
						hi = t1
					}
					bm.SetRange(e.Person, int(lo-t0), int(hi-t0))
				}
				// GramCost triggers the clique compression here, inside
				// the per-place build worker, so stage 4 can share the
				// cached compression across goroutines safely.
				mats[i] = placeMatrix{bm: bm, nnz: bm.NNZ(), cost: bm.GramCost()}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		for _, m := range mats {
			if m.bm != nil {
				m.bm.Recycle()
			}
		}
		return nil, ctxErr(ctx, "collocation build")
	}
	return mats, nil
}

// workUnit is one stage-4 task: a block×block tile [p0,p1)×[q0,q1) of a
// place's pairwise loop in the clique-compressed π row order. A whole
// (unsplit) place is the full tile (0, rows, 0, rows). Because any
// diagonal/disjoint tiling of the upper triangle reproduces the untiled
// entry multiset exactly (see sparse.GramTileAppend), work units can be
// scattered across workers without changing the synthesized network.
type workUnit struct {
	bm             *sparse.BitMatrix
	p0, p1, q0, q1 int
	cost           int
}

func wholePlace(m placeMatrix) workUnit {
	rows := m.bm.Rows()
	return workUnit{bm: m.bm, p0: 0, p1: rows, q0: 0, q1: rows, cost: m.cost}
}

// splitBlocks picks the number of row blocks for a mega-place so its
// nb·(nb+1)/2 tiles each land near a quarter of the per-worker budget —
// small enough for LPT to even out, large enough to bound scheduling
// overhead.
func splitBlocks(cost, budget, rows int) int {
	nb := 2
	for nb*(nb+1)/2 < 4*cost/budget && nb < 16 {
		nb++
	}
	if nb > rows {
		nb = rows
	}
	return nb
}

// balance implements stage 3. BalanceNNZ uses longest-processing-time
// greedy assignment on the clique-compressed work weight, first
// splitting any place whose cost exceeds the per-worker budget
// (totalCost/workers) into block×block tiles so a single mega-place no
// longer serializes stage 4. BalanceNone assigns whole places in
// contiguous equal-count chunks with no splitting, which is what a naive
// parallel map (R SNOW's clusterSplit, the paper's implied baseline)
// does. The second return is the number of places that were split.
func balance(mats []placeMatrix, workers int, mode BalanceMode) ([][]workUnit, int) {
	out := make([][]workUnit, workers)
	if mode == BalanceNone {
		chunk := (len(mats) + workers - 1) / workers
		for i, m := range mats {
			w := 0
			if chunk > 0 {
				w = i / chunk
			}
			if w >= workers {
				w = workers - 1
			}
			out[w] = append(out[w], wholePlace(m))
		}
		return out, 0
	}
	// BalanceNNZ: build the work-unit list, splitting over-budget places.
	total := 0
	for _, m := range mats {
		total += m.cost
	}
	budget := 0
	if workers > 1 {
		budget = total / workers
	}
	units := make([]workUnit, 0, len(mats))
	splits := 0
	for _, m := range mats {
		rows := m.bm.Rows()
		if budget <= 0 || m.cost <= budget || rows < 2 {
			units = append(units, wholePlace(m))
			continue
		}
		splits++
		nb := splitBlocks(m.cost, budget, rows)
		bounds := make([]int, nb+1)
		for b := 0; b <= nb; b++ {
			bounds[b] = rows * b / nb
		}
		for bi := 0; bi < nb; bi++ {
			for bj := bi; bj < nb; bj++ {
				u := workUnit{
					bm: m.bm,
					p0: bounds[bi], p1: bounds[bi+1],
					q0: bounds[bj], q1: bounds[bj+1],
				}
				u.cost = m.bm.GramTileCost(u.p0, u.p1, u.q0, u.q1)
				units = append(units, u)
			}
		}
	}
	// LPT greedy assignment over the (possibly split) units.
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return units[order[a]].cost > units[order[b]].cost })
	loads := make([]int, workers)
	for _, i := range order {
		least := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[least] {
				least = w
			}
		}
		out[least] = append(out[least], units[i])
		loads[least] += units[i].cost
	}
	return out, splits
}

// SynthesizeDistributed runs the synthesis across the ranks of a
// Transport: with all ranks healthy, rank r processes the log files
// paths[r], paths[r+size], ... (the paper's batching of log files across
// cluster jobs), each rank reduces its files to one partial adjacency
// matrix, and rank 0 gathers and merges the partials into the complete
// network. Only rank 0 receives the result; other ranks return
// (nil, nil, nil).
//
// Every rank must pass the identical paths slice; files a rank cannot
// reach locally are simply assigned to the ranks that can reach them by
// ordering paths accordingly.
//
// # Failure tolerance
//
// When a collective reports a dead peer (a typed *mpi.RankFailedError,
// as mpinet produces), the survivors re-stripe the complete paths slice
// over the remaining live ranks and retry, up to Config.MaxRankRetries
// times. The transport guarantees every survivor observes the same
// failed rank per aborted round, so all survivors recompute the same
// assignment without further communication and the merged result is
// bit-identical to a healthy run — provided the dead rank's files remain
// reachable by the survivors (e.g. on shared storage). Unattributable
// failures (the coordinator itself is gone) are returned as-is.
//
// Membership can also grow back: when a supervised restart reclaims a
// dead slot, survivors observe a typed *mpi.RankRevivedError and put the
// rank back into the stripe (without consuming the retry budget), and
// the rejoined rank itself seeds its dead set from the transport's
// mpi.DeadRankser view so everyone stripes identically. Degradation via
// re-striping and recovery via rejoin therefore produce the same final
// network, differing only in wall clock.
// Cancelling ctx aborts the local synthesis within one work unit and
// the gather collective at the transport's cancellation granularity;
// the resulting error wraps context.Canceled and is NOT treated as a
// rank failure (no re-striping).
//
// # Run report
//
// After the result gather succeeds, every live rank contributes a
// telemetry.RankReport (wall, busy, comm, idle, entries, faults) through
// one extra gather, and rank 0 assembles them — together with its own
// stage walls and the process-local registry snapshot — into a run
// report. That gather is best-effort: a failure there never fails a
// synthesis whose result was already gathered, it only yields a nil
// report.
func SynthesizeDistributed(ctx context.Context, t mpi.Transport, paths []string, t0, t1 uint32, cfg Config) (*sparse.Tri, *telemetry.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("core: no log files given")
	}
	rankStart := time.Now()
	var comm time.Duration
	size := t.Size()
	retries := cfg.MaxRankRetries
	if retries == 0 {
		retries = size
	}
	// Rank 0 roots the distributed trace and advertises its span context
	// on the transport, which piggybacks it on every collective reply;
	// worker ranks stamp their local span trees with the learned context
	// and ship them home inside their rank reports, so the whole cluster
	// round renders as one tree under this span.
	var rootSpan *telemetry.Span
	if t.Rank() == 0 {
		ctx, rootSpan = telemetry.StartSpan(ctx, "synth/distributed")
		if tc, ok := t.(mpi.TraceCarrier); ok {
			tc.SetTraceContext(rootSpan.TraceID(), rootSpan.SpanID())
		}
	}
	dead := make([]bool, size)
	// A rank that rejoined a running cluster (supervised restart) learns
	// the already-dead membership from its join handshake; seeding from
	// it makes this rank's first stripe agree with the incumbents'.
	if dr, ok := t.(mpi.DeadRankser); ok {
		for _, r := range dr.InitialDead() {
			if r >= 0 && r < size {
				dead[r] = true
			}
		}
	}
	failures := 0
	for {
		if err := ctxErr(ctx, "distributed synthesis"); err != nil {
			return nil, nil, err
		}
		// Live ranks, in rank order; identical on every survivor because
		// the transport reports every death to every survivor in the
		// same round order.
		alive := make([]int, 0, size)
		slot := -1
		for r := 0; r < size; r++ {
			if dead[r] {
				continue
			}
			if r == t.Rank() {
				slot = len(alive)
			}
			alive = append(alive, r)
		}
		if slot < 0 {
			// This rank was declared dead by the cluster (e.g. a false
			// positive of the failure detector); its contributions are
			// being discarded, so stop rather than burn cycles.
			return nil, nil, fmt.Errorf("core: rank %d was declared failed by the cluster", t.Rank())
		}
		var mine []string
		for i := slot; i < len(paths); i += len(alive) {
			mine = append(mine, paths[i])
		}
		// One span per attempt. On rank 0 it nests under the root span
		// through ctx; on workers it becomes a local root whose report is
		// stitched into the cluster trace by the coordinator.
		attemptCtx, attemptSpan := telemetry.StartSpan(ctx, "synth/rank")
		attemptSpan.SetRank(t.Rank())
		partial := sparse.NewAccum().Tri()
		var stats *Stats
		if len(mine) > 0 {
			var err error
			partial, stats, err = SynthesizeFiles(attemptCtx, mine, t0, t1, cfg)
			if err != nil {
				attemptSpan.End()
				return nil, nil, err
			}
		}
		blob, err := partial.MarshalBinary()
		if err != nil {
			attemptSpan.End()
			return nil, nil, err
		}
		mGatherBytes.Add(int64(len(blob)))
		attemptSpan.AddBytes(int64(len(blob)))
		gStart := time.Now()
		gathered, err := mpi.Gather(attemptCtx, t, blob)
		gWall := time.Since(gStart)
		comm += gWall
		mCommSeconds.Observe(gWall)
		attemptSpan.End()
		if err != nil {
			if rr, ok := mpi.AsRankRevived(err); ok && rr.Rank > 0 && rr.Rank < size {
				// A supervised restart reclaimed a dead slot mid-round:
				// put the rank back into the stripe and retry. Revivals
				// never consume the retry budget — they shrink the
				// degradation, and each one was preceded by a death that
				// already paid for it.
				dead[rr.Rank] = false
				mRankRevived.Inc()
				continue
			}
			rf, ok := mpi.AsRankFailed(err)
			if !ok || rf.Rank < 0 || rf.Rank >= size || retries < 0 {
				return nil, nil, err
			}
			failures++
			if failures > retries {
				return nil, nil, fmt.Errorf("core: giving up after %d rank failures: %w", failures, err)
			}
			dead[rf.Rank] = true
			mRankRetries.Inc()
			continue // re-stripe over the survivors and retry
		}
		if failures > 0 {
			// The round completed despite earlier rank deaths: every
			// absorbed failure counts as recovered.
			mRecovered.Add(int64(failures))
		}

		// Result round done — roll this rank's run up and gather the rank
		// reports. Every live rank reaches this point in the same round,
		// so the extra collective stays aligned; its failure is swallowed
		// (the synthesis result is already safe).
		local := stats.RankReport(t.Rank(), time.Since(rankStart), comm)
		local.FaultsInjected = telemetry.C("fault_injected_total").Value()
		local.FaultsRecovered = telemetry.C("fault_recovered_total").Value()
		if t.Rank() != 0 && attemptSpan.SpanID() != 0 {
			// The result gather's reply delivered the coordinator's trace
			// context; stamp it onto the local span tree and ship the tree
			// with the rank report. Rank 0's tree is already rooted locally.
			rep := attemptSpan.Report()
			rep.Rank = t.Rank()
			if tc, ok := t.(mpi.TraceCarrier); ok {
				tid, sid := tc.TraceContext()
				rep.TraceID = telemetry.FormatID(tid)
				rep.ParentID = telemetry.FormatID(sid)
				local.TraceID = rep.TraceID
			}
			local.Spans = []telemetry.SpanReport{rep}
		}
		var repBlob []byte
		if b, err := telemetry.EncodeRank(local); err == nil {
			repBlob = b
		}
		repGathered, repErr := mpi.Gather(ctx, t, repBlob)

		if t.Rank() != 0 {
			return nil, nil, nil
		}
		tris := make([]*sparse.Tri, 0, len(alive))
		for _, r := range alive {
			if gathered[r] == nil {
				// Cannot happen under mpinet's ordering guarantees (a
				// completed round has contributions from every rank this
				// side believes alive); other survivors have already
				// returned, so retrying here could hang. Fail loudly.
				return nil, nil, fmt.Errorf("core: live rank %d produced no partial", r)
			}
			var tr sparse.Tri
			if err := tr.UnmarshalBinary(gathered[r]); err != nil {
				return nil, nil, fmt.Errorf("core: partial from rank %d: %w", r, err)
			}
			tris = append(tris, &tr)
		}
		mStart := time.Now()
		total := sparse.MergeTris(tris...)
		mMergeSeconds.Observe(time.Since(mStart))

		// End the root span before snapshotting so the coordinator's tree
		// is retained and the worker trees can graft under it.
		rootSpan.End()
		var report *telemetry.Report
		if repErr == nil {
			report = telemetry.Default.Report("synthesize-distributed")
			report.Stages = stats.StageReports()
			report.TraceID = telemetry.FormatID(rootSpan.TraceID())
			var remote []telemetry.SpanReport
			for _, r := range alive {
				rr, err := telemetry.DecodeRank(repGathered[r])
				if err != nil {
					continue // a rank's report is best-effort
				}
				remote = append(remote, rr.Spans...)
				rr.Spans = nil // the trees live in report.Spans, stitched
				report.Ranks = append(report.Ranks, rr)
			}
			report.AttachRemoteSpans(telemetry.FormatID(rootSpan.SpanID()), remote)
		}
		return total, report, nil
	}
}

// SynthesizeFiles builds the collocation network for [t0, t1) from a
// set of log files: each file is its own dedup domain (the paper's
// per-file batching), parallelism lives inside each file's synthesis,
// and one coalesce sums the per-file adjacency matrices into the
// complete network. The returned Stats aggregates all files.
//
// It is a one-window Stream: every log file is one source — read from
// disk exactly once, opened only when Stream reaches it — and, because
// closed files carry no ordering guarantee, the window closes only at
// EOF, which is exact for any entry order.
//
// Config.MemBudgetBytes bounds the entries held in memory (see there);
// the output is bit-identical with or without it. Cancelling ctx aborts
// before the next log batch is read or within one stage-4 work unit,
// with an error wrapping context.Canceled.
func SynthesizeFiles(ctx context.Context, paths []string, t0, t1 uint32, cfg Config) (*sparse.Tri, *Stats, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("core: no log files given")
	}
	srcs := make([]eventlog.EntrySource, len(paths))
	for i, p := range paths {
		// A one-file OpenFilesSource: it opens lazily and names the path
		// in every error.
		srcs[i] = eventlog.OpenFilesSource([]string{p}, t0, t1)
	}
	var tri *sparse.Tri
	var stats *Stats
	_, err := Stream(ctx, srcs, StreamConfig{
		T0:           t0,
		T1:           t1,
		WindowHours:  t1 - t0,
		HorizonHours: HorizonEOF,
		Synth:        cfg,
		OnWindow: func(w WindowResult) error {
			tri, stats = w.Window, w.Stats
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return tri, stats, nil
}
