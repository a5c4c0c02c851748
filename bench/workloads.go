package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/abm"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/netserve"
	"repro/internal/scenario"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// workload is one set of inputs the benchmark runs. setup builds what the
// timed region starts from, in the parent process; run is the timed region
// and the correctness checks, in a fresh child so that peak_rss_mb is the
// measured code's own.
type workload struct {
	Name, Why string
	setup     func(*env) error
	run       func(*env) error
}

var workloads = []workload{
	{"batch.slice-20k",
		"simulate once, cut any slice: the cold chain from simulation through logs, last-day network and snapshot to first reply; abm and log writing do 85% of it, so synthesis and bake gains must not show",
		setupBatch, runBatch},
	{"resynth.mem-20k",
		"re-synthesis of a week from closed logs in memory: core and sparse do all the work, abm and gstore none; home of the allocation count and of the synthesis-engine collapse",
		setupLogs, func(e *env) error { return runResynth(e, 0) }},
	{"resynth.budget-20k",
		"the same week under a memory budget, so entries spill to place shards: a gain for the in-memory path that costs the spill path, or speed bought with memory, shows here",
		setupLogs, func(e *env) error { return runResynth(e, e.shape.BudgetBytes) }},
	{"stream.replay-20k",
		"closed logs replayed through Pipeline.Stream in 4 h windows, each published and hot-swapped: the snapshot index bake dominates and grows with the network, abm does nothing",
		setupStream, runStream},
	{"serve.swap-20k",
		"netserve under the 8-endpoint query mix at a fixed open-loop rate, then saturated closed-loop, while a new generation is swapped in every second: writes beside reads, core and abm do nothing",
		setupServe, runServe},
	{"scenario.sweep-20k",
		"SIR grid, SEIR grid and diffusion under hub closure and dampening over the mmapped week snapshot: the process kernels do the work; guards their collapse into one",
		setupScenario, runScenario},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeat runs op until the timed parts of its runs add up to the run's
// seconds: it does not start a run that would overshoot, and makes at
// least three. op returns the duration of its timed part; what it checks
// afterwards is not counted. It returns the timed durations in ms.
//
// The heap is collected between runs, so that each starts from the same
// state: without it peak_rss_mb measures where in its cycle the collector
// happened to be when the garbage of earlier runs piled up, and moves by
// a sixth from run to run.
func (e *env) repeat(op func(i int) (time.Duration, error)) ([]float64, error) {
	var walls []float64
	var sum time.Duration
	budget := time.Duration(e.seconds * float64(time.Second))
	for i := 0; i < 3 || sum+sum/time.Duration(i) <= budget; i++ {
		d, err := op(i)
		if err != nil {
			return nil, err
		}
		sum += d
		walls = append(walls, ms(int64(d)))
		e.rep.op(1, 0)
		runtime.GC()
	}
	return walls, nil
}

// endToEnd records the end-to-end metrics from the operations' times in
// ms: their median, the tail percentile the sample supports, and the rate
// of operations (rateOf of them went into it). The traced run reports its
// median under a name of its own, from which the tracing overhead follows.
func (e *env) endToEnd(ops []float64, tail, perSecond float64, rateOf int) {
	e.rep.setMedian("op_p50_ms", ops)
	e.rep.set("op_tail_ms", percentile(ops, tail), len(ops))
	e.rep.set("ops_per_s", perSecond, rateOf)
	e.rep.setMedian("trace.op_p50_ms", ops)
}

// endToEndOps is endToEnd for a loop workload. The tail is the slow
// quartile: none of the loop workloads makes the hundreds of runs in ten
// seconds that a higher percentile needs.
func (e *env) endToEndOps(walls []float64) {
	var sum float64
	for _, w := range walls {
		sum += w
	}
	e.endToEnd(walls, 0.75, float64(len(walls))/(sum/1e3), len(walls))
}

// spanMetrics maps a per-layer timing to the span whose median duration
// it is; the first name that has spans wins.
var spanMetrics = map[string][]string{
	"synthpop.generate_ms":          {"synthpop.generate"},
	"abm.sim_ms":                    {"abm.sim"},
	"eventlog.read_ms":              {"eventlog.read"},
	"core.synth_ms":                 {"core.synth"},
	"core.advance_ms":               {"core.advance"},
	"graph.fromtri_ms":              {"graph.fromtri"},
	"gstore.index_ms":               {"probe.gstore_index"},
	"gstore.open_ms":                {"gstore.open", "probe.gstore_open"},
	"netserve.new_ms":               {"netserve.new"},
	"netserve.reload_ms":            {"netserve.reload"},
	"scenario.process_ms.sir":       {"scenario.run_sir"},
	"scenario.process_ms.seir":      {"scenario.run_seir"},
	"scenario.process_ms.diffusion": {"scenario.run_diffusion"},
	"scenario.view_ms":              {"probe.scenario_view"},
}

// layerMetrics derives, on the traced run, the per-layer timings and
// shares from the spans. gstore's write time is its bake less the index
// probe: the file write cannot be called without baking the index.
func (e *env) layerMetrics() {
	if e.rec == nil {
		return
	}
	spans := e.rec.spans
	for metric, names := range spanMetrics {
		for _, n := range names {
			if d := durations(spans, n); len(d) > 0 {
				e.rep.setMedian(metric, d)
				break
			}
		}
	}
	if readS := e.rep.Values["eventlog.read_ms"] / 1e3; readS > 0 {
		e.rep.set("eventlog.read_mb_per_s", float64(e.readBytes)/1e6/readS, e.rep.Samples["eventlog.read_ms"])
	}
	if bake := durations(spans, "gstore.bake"); len(bake) > 0 {
		e.rep.set("gstore.write_ms", median(bake)-e.rep.Values["gstore.index_ms"], len(bake))
		e.rep.set("gstore.bake_mb_per_s", e.rep.Values["gstore.snapshot_bytes"]/1e6/(median(bake)/1e3), len(bake))
	}
	for l, share := range layerShares(spans) {
		e.rep.set("share."+l, share, len(spans))
	}
}

// peakRSS records VmHWM, the process's peak resident set, in MB.
func (e *env) peakRSS() {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			e.rep.set("peak_rss_mb", kb/1024, 1)
		}
	}
}

// serveHTTP mounts h on a loopback listener.
func serveHTTP(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns ErrServerClosed on stop
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// synthesize is core.SynthesizeFiles. The traced run calls its two halves
// in spans of their own — the log read and the synthesis proper — where
// the in-memory path allows it; the budgeted path reads the logs three
// times inside core and stays whole.
func (e *env) synthesize(trace, parent int, paths []string, t0, t1 uint32, cfg core.Config) (tri *sparse.Tri, st *core.Stats, err error) {
	if e.rec == nil || cfg.MemBudgetBytes > 0 {
		e.rec.do(trace, parent, "core.synth", func() {
			tri, st, err = core.SynthesizeFiles(e.ctx, paths, t0, t1, cfg)
		})
		return tri, st, err
	}
	var entries []eventlog.Entry
	e.rec.do(trace, parent, "eventlog.read", func() {
		src := eventlog.OpenFilesSource(paths, t0, t1)
		entries, err = eventlog.ReadAll(src)
		src.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	e.rec.do(trace, parent, "core.synth", func() {
		tri, st, err = core.SynthesizeEntries(e.ctx, entries, t0, t1, cfg)
	})
	e.readBytes = len(entries) * eventlog.BaseEntrySize
	return tri, st, err
}

// probeBake runs, on the traced run only, the two calls a bake and a
// reload hide: the index bake alone and the snapshot open alone.
func (e *env) probeBake(trace, parent int, g *graph.Graph, path string) {
	if e.rec == nil {
		return
	}
	e.rec.do(trace, parent, "probe.gstore_index", func() { gstore.BuildIndexData(g, e.indexOptions()) })
	e.rec.do(trace, parent, "probe.gstore_open", func() {
		if snap, err := gstore.Open(path); err == nil {
			snap.Close()
		}
	})
}

func sameCSR(a, b *graph.Graph) bool {
	ao, an, aw := a.CSR()
	bo, bn, bw := b.CSR()
	return slices.Equal(ao, bo) && slices.Equal(an, bn) && slices.Equal(aw, bw)
}

// ---------------------------------------------------------------------------
// batch.slice

// chain is one cold sim→serve chain and what its checks need.
type chain struct {
	wall  time.Duration
	sim   *abm.Result
	net   *repro.Network
	snap  string
	stats netserve.StatsResponse
}

// batchChain runs NewPipeline → Simulate → Synthesize(last day) →
// Network.Graph → WriteFileIndexed → netserve.New → first GET /v1/stats,
// everything under dir.
func (e *env) batchChain(trace int, dir string) (c chain, err error) {
	days := e.shape.BatchDays
	t1 := uint32(days) * 24
	c.snap = dir + "/net.gsnap"
	start := time.Now()
	root := e.rec.begin(trace, -1, "bench.chain")

	var p *repro.Pipeline
	e.rec.do(trace, root, "synthpop.generate", func() { p, err = e.newPipeline(days) })
	if err != nil {
		return c, err
	}
	e.rec.do(trace, root, "abm.sim", func() { c.sim, err = p.Simulate(e.ctx, dir+"/logs") })
	if err != nil {
		return c, err
	}
	if e.rec == nil {
		c.net, err = p.Synthesize(e.ctx, c.sim.LogPaths, t1-24, t1)
	} else {
		var tri *sparse.Tri
		var st *core.Stats
		tri, st, err = e.synthesize(trace, root, c.sim.LogPaths, t1-24, t1, core.Config{Workers: e.par})
		c.net = &repro.Network{Tri: tri, Persons: e.shape.Persons, Stats: st}
	}
	if err != nil {
		return c, err
	}
	var g *graph.Graph
	e.rec.do(trace, root, "graph.fromtri", func() { g = c.net.Graph() })
	e.rec.do(trace, root, "gstore.bake", func() { err = gstore.WriteFileIndexed(c.snap, g, e.indexOptions()) })
	if err != nil {
		return c, err
	}
	var srv *netserve.Server
	e.rec.do(trace, root, "netserve.new", func() { srv, err = netserve.New(c.snap, netserve.Options{}) })
	if err != nil {
		return c, err
	}
	defer srv.Close()
	e.rec.do(trace, root, "netserve.request", func() {
		var base string
		var stop func()
		if base, stop, err = serveHTTP(srv.Handler()); err != nil {
			return
		}
		defer stop()
		var resp *http.Response
		if resp, err = http.Get(base + "/v1/stats"); err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first GET /v1/stats: %s", resp.Status)
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&c.stats)
	})
	e.rec.end(root)
	c.wall = time.Since(start)
	if err == nil {
		e.probeBake(trace, -1, g, c.snap)
	}
	return c, err
}

// setupBatch is one untimed warm-up chain: the batch workload starts from
// nothing, so what precedes its timed region is the page cache and
// directories a first chain leaves warm.
func setupBatch(e *env) error {
	dir := e.path("warmup")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, err := e.batchChain(0, dir)
	return err
}

func runBatch(e *env) error {
	var last chain
	walls, err := e.repeat(func(i int) (time.Duration, error) {
		dir := e.path(fmt.Sprintf("chain-%03d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		c, err := e.batchChain(i, dir)
		if err != nil {
			return 0, err
		}
		snap, err := gstore.Open(c.snap)
		e.rep.check(err == nil && sameCSR(snap.Graph(), c.net.Graph()), "chain %d: opened snapshot differs from Network.Graph (%v)", i, err)
		if err == nil {
			snap.Close()
		}
		e.rep.check(c.stats.Edges == c.net.Tri.NNZ(), "chain %d: /v1/stats edges %d, Tri.NNZ %d", i, c.stats.Edges, c.net.Tri.NNZ())
		last = c
		return c.wall, nil
	})
	if err != nil {
		return err
	}
	e.peakRSS()
	e.endToEndOps(walls)

	sim := last.sim
	e.rep.set("abm.migrations", float64(sim.Migrations), 1)
	e.rep.set("eventlog.entries", float64(sim.Entries), 1)
	e.rep.set("eventlog.log_bytes", float64(sim.LogBytes), 1)
	e.rep.set("gstore.snapshot_bytes", float64(last.stats.SnapshotBytes), 1)
	e.rep.set("core.work_units", float64(last.net.Stats.WorkUnits), 1)
	e.rep.set("core.splits", float64(last.net.Stats.Splits), 1)
	e.layerMetrics()
	if simS := e.rep.Values["abm.sim_ms"] / 1e3; simS > 0 {
		e.rep.set("abm.agent_steps_per_s", float64(e.shape.Persons)*float64(sim.Steps)/simS, len(walls))
		e.rep.set("eventlog.write_mb_per_s", float64(sim.LogBytes)/1e6/simS, len(walls))
	}
	e.synthRates(last.net.Stats.Entries, last.net.Tri.NNZ())
	return nil
}

// synthRates records core's throughput from the median synthesis span.
func (e *env) synthRates(entries, edges int) {
	if s := e.rep.Values["core.synth_ms"] / 1e3; s > 0 {
		e.rep.set("core.entries_per_s", float64(entries)/s, e.rep.Samples["core.synth_ms"])
		e.rep.set("core.edges_per_s", float64(edges)/s, e.rep.Samples["core.synth_ms"])
	}
}

// ---------------------------------------------------------------------------
// resynth.mem / resynth.budget

func runResynth(e *env, budget int64) error {
	paths, err := logPaths(e)
	if err != nil {
		return err
	}
	t1 := e.shape.weekHours()
	cfg := core.Config{Workers: e.par, MemBudgetBytes: budget, SpillDir: e.dir}
	var first *sparse.Tri
	var stats *core.Stats
	var allocs, allocBytes []float64
	var spill []float64
	walls, err := e.repeat(func(i int) (time.Duration, error) {
		var before, after runtime.MemStats
		if e.rec != nil {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		root := e.rec.begin(i, -1, "bench.synthesis")
		tri, st, err := e.synthesize(i, root, paths, 0, t1, cfg)
		e.rec.end(root)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		if e.rec != nil {
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
			allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		spill = append(spill, ms(int64(st.Spill)))
		if first == nil {
			first = tri
		}
		e.rep.check(tri.Equal(first), "synthesis %d differs from the first", i)
		stats = st
		return wall, nil
	})
	if err != nil {
		return err
	}
	e.peakRSS()
	e.endToEndOps(walls)

	// The reference is the other way to get the same network: one worker
	// for the in-memory run, the in-memory path for the budgeted run.
	refCfg := core.Config{Workers: 1}
	if budget > 0 {
		refCfg = core.Config{Workers: e.par}
		e.rep.check(stats.Shards > 0, "budget %d B did not spill: the workload measures the in-memory path", budget)
	}
	var refWalls []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		ref, _, err := core.SynthesizeFiles(e.ctx, paths, 0, t1, refCfg)
		if err != nil {
			return err
		}
		refWalls = append(refWalls, ms(int64(time.Since(start))))
		if i == 0 {
			e.rep.check(ref.Equal(first), "network differs from the reference run (%+v)", refCfg)
		}
		if e.rec == nil {
			break // the other two only steady the traced run's ratios
		}
	}

	e.rep.set("core.work_units", float64(stats.WorkUnits), 1)
	e.rep.set("core.splits", float64(stats.Splits), 1)
	e.rep.set("core.shards", float64(stats.Shards), 1)
	e.rep.set("core.spilled_bytes", float64(stats.SpilledBytes), 1)
	e.rep.setMedian("core.spill_ms", spill)
	e.layerMetrics()
	if e.rec != nil {
		e.rep.setMedian("core.allocs_per_op", allocs)
		e.rep.setMedian("core.bytes_per_op", allocBytes)
		if budget > 0 {
			e.rep.set("core.budget_slowdown", median(walls)/median(refWalls), len(refWalls))
		} else {
			e.rep.set("core.speedup_w2", median(refWalls)/median(walls), len(refWalls))
		}
	}
	e.synthRates(stats.Entries, first.NNZ())
	return nil
}

// ---------------------------------------------------------------------------
// stream.replay

func runStream(e *env) error {
	paths, err := logPaths(e)
	if err != nil {
		return err
	}
	live := e.path("live.gsnap")
	srv, err := netserve.New(live, netserve.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	p, err := e.newPipeline(e.shape.WeekDays)
	if err != nil {
		return err
	}
	pub := gstore.NewPublisher(live, gstore.PublisherOptions{Index: e.indexOptions()})

	var visible []float64
	var info gstore.PublishInfo
	var untimed time.Duration // the collections between windows, as in repeat
	start := time.Now()
	root := e.rec.begin(0, -1, "core.stream")
	st, err := p.Stream(e.ctx, paths, repro.StreamConfig{
		T0: 0, T1: e.shape.StreamHours, WindowHours: e.shape.WindowHours,
		OnWindow: func(w core.WindowResult) (err error) {
			entered := time.Now()
			tr := w.Index + 1
			win := e.rec.beginAt(tr, root, "bench.window", w.ClosedAt)
			e.rec.add(tr, win, "core.advance", w.ClosedAt, entered)
			var g *graph.Graph
			e.rec.do(tr, win, "graph.fromtri", func() { g = graph.FromTri(w.Net, e.shape.Persons) })
			e.rec.do(tr, win, "gstore.bake", func() {
				info, err = pub.PublishWithMeta(g, gstore.PublishMeta{WindowClosedAt: w.ClosedAt, LastEventHour: w.W1})
			})
			if err != nil {
				return err
			}
			gen := srv.Generation()
			e.rec.do(tr, win, "netserve.reload", func() { err = srv.Reload() })
			if err != nil {
				return err
			}
			visible = append(visible, ms(int64(time.Since(w.ClosedAt))))
			e.rec.end(win)
			e.rep.op(1, 0)
			e.rep.check(srv.Generation() > gen, "window %d: generation did not advance", w.Index)
			e.probeBake(tr, root, g, live)
			e.rec.do(tr, root, "probe.collect", func() {
				gc := time.Now()
				runtime.GC()
				untimed += time.Since(gc)
			})
			return nil
		},
	})
	e.rec.end(root)
	wall := time.Since(start) - untimed
	if err != nil {
		return err
	}
	e.peakRSS()

	// With 18 windows the median is the highest percentile that has
	// about ten samples beyond it; the slow quartile is the tail all the
	// same.
	e.endToEnd(visible, 0.75, float64(len(visible))/wall.Seconds(), len(visible))

	// The house oracle: the last streamed generation is byte-identical to
	// a batch bake of the same hours.
	oracle := e.path("oracle.gsnap")
	if _, err := bakeSlice(e, paths, 0, e.shape.StreamHours, oracle); err != nil {
		return err
	}
	got, err1 := os.ReadFile(live)
	want, err2 := os.ReadFile(oracle)
	e.rep.check(err1 == nil && err2 == nil && bytes.Equal(got, want), "last streamed generation differs from the batch bake of [0,%d)", e.shape.StreamHours)
	e.rep.check(st.Windows == len(visible) && st.LateEntries == 0, "stream emitted %d windows (%d seen), %d late entries", st.Windows, len(visible), st.LateEntries)

	e.rep.set("core.peak_buffered", float64(st.PeakBuffered), 1)
	e.rep.set("eventlog.entries", float64(st.Entries), 1)
	e.rep.set("gstore.snapshot_bytes", float64(info.Bytes), 1)
	e.layerMetrics()
	return nil
}

// ---------------------------------------------------------------------------
// serve.swap

// makeQueries draws n requests from netserve's own selfbench mix (weights
// 30/25/15/10/8/5/4/3), vertices uniform over g; path targets lie up to
// three random hops from their source. One in a hundred degree queries
// is marked for comparison with the graph.
func makeQueries(rng *rand.Rand, g *graph.Graph, n int) []query {
	weights := []int{30, 25, 15, 10, 8, 5, 4, 3} // in queryKinds order
	qs := make([]query, n)
	for i := range qs {
		t, kind := rng.Intn(100), 0
		for t >= weights[kind] {
			t -= weights[kind]
			kind++
		}
		v := rng.Intn(g.NumVertices())
		q := query{Kind: kind, Vertex: -1}
		switch queryKinds[kind] {
		case "degree":
			q.Path = fmt.Sprintf("/v1/degree/%d", v)
			if rng.Intn(100) == 0 {
				q.Vertex = v
			}
		case "neighbors":
			q.Path = fmt.Sprintf("/v1/neighbors/%d?limit=32", v)
		case "clustering":
			q.Path = fmt.Sprintf("/v1/clustering/%d", v)
		case "stats":
			q.Path = "/v1/stats"
		case "degree-dist":
			q.Path = "/v1/degree-dist"
		case "ego1":
			q.Path = fmt.Sprintf("/v1/ego/%d?radius=1", v)
		case "ego2":
			q.Path = fmt.Sprintf("/v1/ego/%d?radius=2", v)
		case "path":
			dst := uint32(v)
			for hop := 0; hop < 3; hop++ {
				row, _ := g.Neighbors(dst)
				if len(row) == 0 {
					break
				}
				dst = row[rng.Intn(len(row))]
			}
			q.Path = fmt.Sprintf("/v1/path?from=%d&to=%d", v, dst)
		}
		qs[i] = q
	}
	return qs
}

// bucketRate is the closed loop's throughput: replies per second in the
// median of the half-second buckets the loop ran through in full, which a
// hiccup of the shared machine in one of them does not move.
func bucketRate(samples []sample, wall time.Duration) float64 {
	const bucket = 500 * time.Millisecond
	counts := make([]float64, wall/bucket)
	if len(counts) == 0 {
		return float64(len(samples)) / wall.Seconds()
	}
	for _, s := range samples {
		if i := int(s.At / bucket); i < len(counts) {
			counts[i]++
		}
	}
	return median(counts) / bucket.Seconds()
}

func runServe(e *env) error {
	week, err := gstore.Open(e.path("week.gsnap"))
	if err != nil {
		return err
	}
	defer week.Close()
	tail, err := gstore.Open(e.path("tail.gsnap"))
	if err != nil {
		return err
	}
	defer tail.Close()
	gens := []*graph.Graph{week.Graph(), tail.Graph()}

	opts := netserve.Options{}
	var reg *telemetry.Registry
	if e.rec != nil {
		reg = telemetry.New() // the end-to-end run leaves telemetry at its disabled default
		opts.Registry = reg
	}
	live := e.path("live.gsnap")
	srv, err := netserve.New(live, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	base, stop, err := serveHTTP(srv.Handler())
	if err != nil {
		return err
	}
	defer stop()

	// A reply is correct when it is a 200 with valid JSON; a sampled
	// degree reply must also carry the vertex's degree in one of the two
	// generations being swapped.
	verify := func(q query, status int, body []byte) bool {
		if status != http.StatusOK || !json.Valid(body) {
			return false
		}
		if q.Vertex < 0 {
			return true
		}
		var d netserve.DegreeResponse
		if json.Unmarshal(body, &d) != nil {
			return false
		}
		return d.Degree == gens[0].Degree(uint32(q.Vertex)) || d.Degree == gens[1].Degree(uint32(q.Vertex))
	}
	lg := newLoadgen(base, e.par, verify, e.rec)
	defer lg.close()

	openFor := 0.6 * e.seconds
	closedFor := time.Duration(0.4 * e.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(int64(e.seed)))
	openQs := makeQueries(rng, gens[0], int(e.shape.Rate*openFor))
	closedQs := makeQueries(rng, gens[0], 1<<16)

	// The swapper renames a pre-baked generation onto the live path and
	// reloads, once a second, for as long as load runs.
	every := min(time.Second, time.Duration(e.seconds/5*float64(time.Second)))
	swapCtx, stopSwaps := context.WithCancel(e.ctx)
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-swapCtx.Done():
				return
			case <-tick.C:
			}
			src := []string{e.path("week.gsnap"), e.path("tail.gsnap")}[i%2]
			gen := srv.Generation()
			var err error
			e.rec.do(-i, -1, "netserve.reload", func() {
				os.Remove(live + ".next")
				if err = os.Link(src, live+".next"); err == nil {
					if err = os.Rename(live+".next", live); err == nil {
						err = srv.Reload()
					}
				}
			})
			e.rep.check(err == nil && srv.Generation() > gen, "swap %d: %v, generation %d → %d", i, err, gen, srv.Generation())
		}
	}()

	open := lg.openLoop(e.ctx, openQs, e.shape.Rate)
	closed, closedWall := lg.closedLoop(e.ctx, closedFor, func(conn, i int) query {
		return closedQs[(conn*len(closedQs)/e.par+i)%len(closedQs)]
	})
	stopSwaps()
	swaps.Wait()
	e.peakRSS()

	// A failed reply counts as over any latency limit: it stays in the
	// sample at the client's timeout.
	var lat, late []float64
	perKind := make([][]float64, len(queryKinds))
	var failed int64
	for _, s := range open {
		l := ms(int64(s.Latency))
		if !s.OK {
			failed++
			l = max(l, ms(int64(lg.client.Timeout)))
		}
		lat = append(lat, l)
		late = append(late, ms(int64(s.Late)))
		perKind[s.Kind] = append(perKind[s.Kind], ms(int64(s.Service)))
	}
	for _, s := range closed {
		if !s.OK {
			failed++
		}
	}
	e.rep.op(int64(len(open)+len(closed)), failed)
	e.endToEnd(lat, 0.99, bucketRate(closed, closedWall), len(closed)) // 6 000 samples: 60 beyond the p99
	e.rep.set("loadgen.late_p99_ms", percentile(late, 0.99), len(late))
	for k, name := range queryKinds {
		e.rep.setMedian("netserve.endpoint_p50_ms."+name, perKind[k])
	}
	if reg != nil {
		c := reg.Snapshot().Counters
		if hits, misses := c["serve_cache_hits_total"], c["serve_cache_misses_total"]; hits+misses > 0 {
			e.rep.set("netserve.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
		}
	}
	if st, err := os.Stat(e.path("week.gsnap")); err == nil {
		e.rep.set("gstore.snapshot_bytes", float64(st.Size()), 1)
	}
	e.layerMetrics()
	return nil
}

// ---------------------------------------------------------------------------
// scenario.sweep

// sweepSpecs is the fixed three-spec sweep. The betas are per collocation
// hour and chosen for this city's weights, so that most of the grid ends
// between 20% and 80% attack rate and neither dies out nor saturates
// within a few steps (netscenario -bench's betas do, on this graph).
// Seeds are random because top-degree seeds are exactly what hub closure
// removes, and fifty because with five the time an outbreak takes to get
// going is luck, and the sweep's wall moves by ±9% from seed to seed.
func sweepSpecs(seed uint64) []scenario.Spec {
	seeds := scenario.Seeds{Policy: scenario.SeedRandom, Count: 50}
	curb := &scenario.Intervention{CloseTopDegree: 200, Dampen: &scenario.Dampen{Num: 1, Den: 2}}
	return []scenario.Spec{
		{Process: scenario.ProcessSIR, Steps: 30, Seed: seed, Replications: 8, Seeds: seeds,
			Beta: []float64{0.0003, 0.0006}, InfectiousDays: []int{3, 6}},
		{Process: scenario.ProcessSEIR, Steps: 30, Seed: seed, Replications: 8, Seeds: seeds,
			Beta: []float64{0.0006, 0.0012}, InfectiousDays: []int{4}, IncubationDays: []int{0, 3}, Intervention: curb},
		{Process: scenario.ProcessDiffusion, Steps: 10, Seed: seed, Replications: 8, Seeds: seeds,
			Beta: []float64{0.0006, 0.0012}, Intervention: curb},
	}
}

// sweep opens the snapshot and runs the three specs; it returns the
// digests and the steps run.
func (e *env) sweep(trace, slots int, rec *recorder) (digests []string, steps int64, wall time.Duration, err error) {
	start := time.Now()
	root := rec.begin(trace, -1, "bench.sweep")
	var snap *gstore.Snapshot
	rec.do(trace, root, "gstore.open", func() { snap, err = gstore.Open(e.path("week.gsnap")) })
	if err != nil {
		return nil, 0, 0, err
	}
	defer snap.Close()
	for _, spec := range sweepSpecs(e.seed) {
		var res *scenario.Result
		rec.do(trace, root, "scenario.run_"+spec.Process, func() {
			res, err = scenario.Run(e.ctx, snap.Graph(), spec, scenario.Config{Slots: slots})
		})
		if err != nil {
			return nil, 0, 0, err
		}
		digests = append(digests, res.Digest)
		steps += res.StepsRun
	}
	rec.end(root)
	wall = time.Since(start)
	if rec != nil {
		rec.do(trace, -1, "probe.scenario_view", func() { scenario.NewView(snap.Graph(), sweepSpecs(e.seed)[1].Intervention) })
	}
	return digests, steps, wall, nil
}

func runScenario(e *env) error {
	var first []string
	var steps int64
	walls, err := e.repeat(func(i int) (time.Duration, error) {
		digests, n, wall, err := e.sweep(i, e.par, e.rec)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first, steps = digests, n
		}
		e.rep.check(slices.Equal(digests, first) && n == steps, "sweep %d: digests or steps differ from the first sweep", i)
		return wall, nil
	})
	if err != nil {
		return err
	}
	e.peakRSS()
	e.endToEndOps(walls)

	digests, _, _, err := e.sweep(0, 1, nil)
	if err != nil {
		return err
	}
	e.rep.check(slices.Equal(digests, first), "digests at %d slots differ from one slot", e.par)

	e.rep.set("scenario.steps_run", float64(steps), 1)
	e.rep.set("scenario.steps_per_s", float64(steps)/(median(walls)/1e3), len(walls))
	e.layerMetrics()
	return nil
}
