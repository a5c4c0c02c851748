// Package telemetry is the pipeline's zero-dependency observability
// spine: a lock-cheap metrics registry (counters, gauges, timing
// histograms with quantile estimation), hierarchical spans carried
// through context.Context, per-rank roll-ups, a Prometheus/expvar/pprof
// HTTP endpoint, and a machine-readable JSON run report.
//
// # Naming scheme
//
// Every metric name follows stage_metric_unit:
//
//	synth_gram_seconds        timing histogram of the stage-4 kernel
//	eventlog_flush_bytes_total  counter of flushed log bytes
//	abm_hours_total           counter of simulated hours
//
// Counters end in _total, timing histograms in _seconds, gauges in a
// bare unit. The stage prefixes are abm, eventlog, h5, synth, mpinet,
// mpi, fault, batch and analysis — one per pipeline layer.
//
// # Cost model
//
// The registry is disabled by default. Disabled, every instrumentation
// site costs a single atomic load (the shared enabled flag) and no
// clock reads, so production binaries that never pass -telemetry-addr
// pay nothing measurable. Enabled, a counter add is one atomic add and
// a histogram observation is two atomic adds plus a bucket index — no
// locks on the hot path. Registration (Counter/Gauge/Histogram lookup)
// takes a read lock and is meant to be done once, at package init or
// before a loop, never per operation. The enforced budget is ≤ 5%
// overhead on BenchmarkT3Synthesis with telemetry enabled (see
// scripts/check.sh).
//
// Metrics are identified by name alone: two packages that register the
// same name share the same series. Recovery sites, for example, all
// count into fault_recovered_total without importing each other.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry every package-level helper
// (C, G, H, StartSpan, Serve) uses. It starts disabled; commands enable
// it with SetEnabled(true) when -telemetry-addr or -report is given.
var Default = newRegistry(false)

// Registry holds a process's metric series and completed root spans;
// a Fork shares the series and keeps roots of its own. All methods are
// safe for concurrent use.
type Registry struct {
	*series

	rootMu sync.Mutex
	roots  []*Span
}

// series is a registry's switch and metric series, shared with the
// registries forked from it.
type series struct {
	enabled atomic.Bool

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns a fresh, enabled registry — the form tests use so they
// never race on Default's cumulative counters.
func New() *Registry { return newRegistry(true) }

func newRegistry(enabled bool) *Registry {
	r := &Registry{series: &series{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}}
	r.enabled.Store(enabled)
	return r
}

// Fork returns a registry that shares r's switch and metric series but
// retains its own completed root spans: the registry of one rank among
// several in a process, whose span trees must not mix with the other
// ranks' (see WithRegistry).
func (r *Registry) Fork() *Registry { return &Registry{series: r.series} }

// SetEnabled turns the registry's instrumentation on or off. Metric
// handles stay valid either way; disabled handles are no-ops.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether instrumentation is live.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// SetEnabled enables or disables the Default registry.
func SetEnabled(on bool) { Default.SetEnabled(on) }

// Enabled reports whether the Default registry is live.
func Enabled() bool { return Default.Enabled() }

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing series. The zero-cost contract:
// Add on a disabled registry is one atomic load and a branch.
type Counter struct {
	name string
	r    *series
	v    atomic.Int64
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{name: name, r: r.series}
	r.counters[name] = c
	return c
}

// C returns the named counter of the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// Name returns the series name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when the registry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !c.r.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a series that can go up and down (e.g. armed fault points).
type Gauge struct {
	name string
	r    *series
	v    atomic.Int64
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{name: name, r: r.series}
	r.gauges[name] = g
	return g
}

// G returns the named gauge of the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// Name returns the series name.
func (g *Gauge) Name() string { return g.name }

// Set stores v when the registry is enabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta when the registry is enabled.
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ---------------------------------------------------------------------------
// Histogram

// NumBuckets is the number of finite histogram buckets. Bucket i covers
// durations up to 1µs·2^i, so the finite range spans 1µs to ~36min;
// observations beyond the last bound land in the overflow (+Inf)
// bucket. Boundaries are fixed so histograms from different ranks
// merge by element-wise addition.
const NumBuckets = 31

// BucketBound returns the inclusive upper bound of finite bucket i in
// nanoseconds.
func BucketBound(i int) int64 { return int64(1000) << uint(i) }

// Histogram is a timing histogram with exponential buckets and
// p50/p95/p99 estimation. Observations are lock-free: one bucket
// atomic add plus sum/count atomic adds.
type Histogram struct {
	name    string
	r       *series
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [NumBuckets + 1]atomic.Int64
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{name: name, r: r.series}
	r.hists[name] = h
	return h
}

// H returns the named histogram of the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// Name returns the series name.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(ns int64) int {
	for i := 0; i < NumBuckets; i++ {
		if ns <= BucketBound(i) {
			return i
		}
	}
	return NumBuckets // overflow
}

// Observe records one duration when the registry is enabled.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || !h.r.enabled.Load() {
		return
	}
	h.observe(int64(d))
}

// observe records unconditionally (internal; used once gating already
// happened).
func (h *Histogram) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear
// interpolation within the target bucket. It returns 0 for an empty
// histogram and the last finite bound for observations that overflowed.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [NumBuckets + 1]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return time.Duration(quantileFromBuckets(counts[:], h.count.Load(), q))
}

// quantileFromBuckets is Histogram.Quantile's estimator over a
// per-bucket (non-cumulative) count slice.
func quantileFromBuckets(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i <= NumBuckets && i < len(counts); i++ {
		n := counts[i]
		if cum+n < target {
			cum += n
			continue
		}
		if i == NumBuckets {
			return BucketBound(NumBuckets - 1)
		}
		lo := int64(0)
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		hi := BucketBound(i)
		if n == 0 {
			return hi
		}
		frac := float64(target-cum) / float64(n)
		return int64(float64(lo) + frac*float64(hi-lo))
	}
	return BucketBound(NumBuckets - 1)
}

// ---------------------------------------------------------------------------
// Stopwatch

// Stopwatch times one operation with no cost when the registry is
// disabled: Clock() then reads no clock and Observe() is a no-op.
//
//	sw := telemetry.Clock()
//	... work ...
//	sw.Observe(hist)
type Stopwatch struct {
	start int64 // UnixNano; 0 = disabled at Clock() time
}

// Clock starts a stopwatch if the Default registry is enabled.
func Clock() Stopwatch { return Default.Clock() }

// Clock starts a stopwatch if the registry is enabled.
func (r *Registry) Clock() Stopwatch {
	if !r.enabled.Load() {
		return Stopwatch{}
	}
	return Stopwatch{start: time.Now().UnixNano()}
}

// Observe records the elapsed time into h. A stopwatch started while
// disabled records nothing.
func (sw Stopwatch) Observe(h *Histogram) time.Duration {
	if sw.start == 0 || h == nil {
		return 0
	}
	d := time.Now().UnixNano() - sw.start
	if h.r.enabled.Load() {
		h.observe(d)
	}
	return time.Duration(d)
}

// ---------------------------------------------------------------------------
// Snapshots

// HistogramSnapshot is a point-in-time copy of one histogram, with
// pre-computed quantiles. BucketCounts are per-bucket (not cumulative),
// index NumBuckets being the overflow bucket; they are retained so
// snapshots from several ranks can be merged exactly.
type HistogramSnapshot struct {
	Count        int64   `json:"count"`
	SumNs        int64   `json:"sum_ns"`
	P50Ns        int64   `json:"p50_ns"`
	P95Ns        int64   `json:"p95_ns"`
	P99Ns        int64   `json:"p99_ns"`
	BucketCounts []int64 `json:"bucket_counts"`
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every series. The maps are always non-nil so the
// snapshot round-trips through JSON unchanged.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:        h.count.Load(),
			SumNs:        h.sum.Load(),
			P50Ns:        int64(h.Quantile(0.50)),
			P95Ns:        int64(h.Quantile(0.95)),
			P99Ns:        int64(h.Quantile(0.99)),
			BucketCounts: make([]int64, NumBuckets+1),
		}
		for i := range hs.BucketCounts {
			hs.BucketCounts[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// sortedKeys returns the map's keys in lexical order — the exposition
// and report renderers need deterministic output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NumSeries returns the number of distinct registered series names.
func (r *Registry) NumSeries() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.counters) + len(r.gauges) + len(r.hists)
}
