// Package netserve is the serving stage of the pipeline: a resident,
// concurrent HTTP JSON query service over a synthesized collocation
// network — the paper's Section II contact-tracing reading of the
// network as a repeatedly-interrogated substrate.
//
// The design centers on an atomically swappable snapshot generation:
//
//   - the current gstore.Snapshot lives behind an atomic.Pointer; every
//     request takes a reference, so a hot reload (SIGHUP, or an mtime
//     watcher noticing netsynth rewrote the file) swaps the pointer and
//     the old generation drains — it is closed only when its last
//     in-flight request finishes. A failed reload (corrupt snapshot)
//     leaves the old generation serving.
//   - a bounded worker semaphore caps concurrent query evaluation;
//     requests that cannot get a slot within their deadline get 503.
//   - every generation serves from a complete gstore.Index: the
//     snapshot's own v2 index sections (aliasing the mmap), or, for a
//     file without them (v1, TSV), one baked once at load. Hot
//     endpoints (/v1/stats, /v1/degree, /v1/clustering,
//     /v1/degree-dist, and page one of /v1/neighbors) are O(1) reads
//     off it, rendered through a pooled append-based JSON encoder —
//     amortized zero allocations per request.
//   - the traversal endpoints (/v1/ego, /v1/path) run on an
//     epoch-stamped graph.PathScratch pooled per generation, so a query
//     costs the part of the graph it touches, never an O(V) array. Each
//     request is computed afresh: there is no result cache and no
//     coalescing of identical requests.
//   - every endpoint reports request/latency/in-flight series
//     into the shared telemetry registry (prefix serve_), exposed on
//     the same -telemetry-addr Prometheus endpoint as the rest of the
//     pipeline.
package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// Options configures a Server. Zero values select the documented
// defaults.
type Options struct {
	// Workers bounds concurrent query evaluation (default 2×CPUs).
	Workers int
	// RequestTimeout bounds each query (default 5s; negative disables).
	RequestTimeout time.Duration
	// WatchInterval polls the snapshot file's mtime for hot reload
	// (default off; set > 0 to enable).
	WatchInterval time.Duration
	// Registry receives the serve_* telemetry series (default
	// telemetry.Default).
	Registry *telemetry.Registry
	// MaxEgoMembers caps the member list returned by /v1/ego
	// (default 10000).
	MaxEgoMembers int
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request: timestamp, method, path, query, endpoint,
	// status, duration, and a "slow":true flag past SlowThreshold.
	// Nil (the default) disables access logging with zero per-request
	// overhead — the hot path never touches the logger.
	AccessLog io.Writer
	// SlowThreshold is the duration at or beyond which an access-log
	// line is flagged slow (default 500ms). Only meaningful with a
	// non-nil AccessLog.
	SlowThreshold time.Duration
	// ScenarioSlots bounds concurrent replications inside a running
	// scenario (default Workers). Scenario runs themselves execute one
	// at a time.
	ScenarioSlots int
	// ScenarioStoreCap bounds the in-memory scenario job store
	// (default scenario.DefaultStoreCap).
	ScenarioStoreCap int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2 * runtime.NumCPU()
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default
	}
	if o.MaxEgoMembers <= 0 {
		o.MaxEgoMembers = 10000
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = 500 * time.Millisecond
	}
	if o.ScenarioSlots <= 0 {
		o.ScenarioSlots = o.Workers
	}
	if o.ScenarioStoreCap <= 0 {
		o.ScenarioStoreCap = scenario.DefaultStoreCap
	}
	return o
}

// generation is one published snapshot plus its reference count. The
// publisher holds one reference; every in-flight request holds one
// more. The snapshot is closed exactly once, when the count reaches
// zero after the generation has been superseded.
type generation struct {
	num      uint64
	snap     *gstore.Snapshot
	idx      *gstore.Index // the file's index sections, or baked at load
	sig      fileSig
	loadedAt time.Time
	refs     atomic.Int64
	closed   sync.Once

	// Freshness context from the publisher's meta sidecar
	// (gstore.ReadSnapshotMeta), zero when the snapshot was published
	// without one (batch netsynth, TSV loads).
	publishedAt   time.Time
	lastEventHour uint32

	// Responses that depend only on the snapshot, rendered once at
	// reload from the index so /v1/stats and /v1/degree-dist are
	// memcpys at request time. statsJSON is the static prefix WITHOUT
	// the closing brace — encodeStats appends the per-request age_s
	// field and closes the object.
	statsJSON []byte
	histJSON  []byte

	// Per-generation traversal scratch for /v1/ego and /v1/path.
	pathPool sync.Pool
}

func (g *generation) unref() {
	if g.refs.Add(-1) == 0 {
		g.closed.Do(func() { g.snap.Close() })
	}
}

// precompute renders the snapshot-static responses off the index and
// wires the traversal scratch pool.
func (g *generation) precompute() {
	gr := g.snap.Graph()
	n := gr.NumVertices()
	g.pathPool.New = func() any { return new(graph.PathScratch) }
	hist, st := g.idx.Histogram, g.idx.Stats

	// Byte-identical to json.Marshal(StatsResponse{...}) modulo the
	// closing brace: the buffer stops after the last static field so
	// encodeStats can append the live age_s and close the object.
	b := append([]byte(nil), `{"vertices":`...)
	b = appendInt(b, int64(n))
	b = append(b, `,"vertices_with_edges":`...)
	b = appendUint(b, st.VerticesWithEdges)
	b = append(b, `,"edges":`...)
	b = appendInt(b, int64(gr.NumEdges()))
	b = append(b, `,"total_weight":`...)
	b = appendUint(b, st.TotalWeight)
	b = append(b, `,"max_degree":`...)
	b = appendUint(b, st.MaxDegree)
	b = append(b, `,"generation":`...)
	b = appendUint(b, g.num)
	b = append(b, `,"snapshot_path":`...)
	b = appendString(b, g.snap.Path())
	b = append(b, `,"snapshot_bytes":`...)
	b = appendInt(b, g.snap.SizeBytes())
	b = append(b, `,"mapped":`...)
	b = appendBool(b, g.snap.Mapped())
	b = append(b, `,"loaded_at":`...)
	b = appendString(b, g.loadedAt.UTC().Format(time.RFC3339Nano))
	b = append(b, `,"snapshot_version":`...)
	b = appendInt(b, int64(g.snap.Version()))
	b = append(b, `,"index_sections":[`...) // the file's, none for TSV and v1
	for i, sec := range g.snap.Index().Sections() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, sec)
	}
	b = append(b, ']')
	if !g.publishedAt.IsZero() {
		b = append(b, `,"published_at":`...)
		b = appendString(b, g.publishedAt.UTC().Format(time.RFC3339Nano))
	}
	if g.lastEventHour != 0 {
		b = append(b, `,"last_event_hour":`...)
		b = appendUint(b, uint64(g.lastEventHour))
	}
	g.statsJSON = b

	// Byte-identical to json.Marshal(DegreeDistResponse{...}).
	b = append([]byte(nil), `{"vertices":`...)
	b = appendInt(b, int64(n))
	b = append(b, `,"max_degree":`...)
	b = appendInt(b, int64(len(hist)-1))
	b = append(b, `,"histogram":[`...)
	for i, c := range hist {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, c)
	}
	g.histJSON = append(b, ']', '}')
}

// Server is the query service. Create with New, mount Handler on an
// http.Server, and Close when done.
type Server struct {
	opts Options
	path string

	cur      atomic.Pointer[generation]
	genSeq   atomic.Uint64
	reloadMu sync.Mutex

	sem   chan struct{}
	mux   *http.ServeMux
	logMu sync.Mutex // serializes AccessLog writes

	stopWatch chan struct{}
	watchDone chan struct{}

	// Scenario job execution: bounded store, one-at-a-time execution
	// semaphore, and a context + waitgroup so Close can drain running
	// jobs (each of which pins its submission-time generation).
	scenStore  *scenario.Store
	scenSem    chan struct{}
	scenCtx    context.Context
	scenCancel context.CancelFunc
	scenWG     sync.WaitGroup

	// Global series.
	mRequests    *telemetry.Counter
	mErrors      *telemetry.Counter
	mReloads     *telemetry.Counter
	mReloadFails *telemetry.Counter
	mGeneration  *telemetry.Gauge
	mSaturated   *telemetry.Counter
}

// encodeFunc renders a hot endpoint's response directly into b (the
// appender convention: return the extended slice). It must not retain
// b, and on error the partial bytes are discarded.
type encodeFunc func(gen *generation, g *graph.Graph, r *http.Request, b []byte) ([]byte, error)

// endpoint bundles one route's handler with its telemetry series.
// Exactly one of encode (hot: pooled zero-alloc rendering) or fn (cold:
// json.Marshal of the returned value) is set.
type endpoint struct {
	name   string
	fn     func(g *graph.Graph, gen *generation, r *http.Request) (any, error)
	encode encodeFunc

	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
	inflight *telemetry.Gauge
}

// apiError is a handler failure with an HTTP status.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &apiError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// New loads the snapshot at path (a .gsnap snapshot or a TSV edge list,
// sniffed by magic bytes) and returns a ready Server. The mtime watcher
// starts only when Options.WatchInterval > 0.
func New(path string, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	reg := opts.Registry
	s := &Server{
		opts: opts,
		path: path,
		sem:  make(chan struct{}, opts.Workers),

		mRequests:    reg.Counter("serve_requests_total"),
		mErrors:      reg.Counter("serve_errors_total"),
		mReloads:     reg.Counter("serve_reloads_total"),
		mReloadFails: reg.Counter("serve_reload_failures_total"),
		mGeneration:  reg.Gauge("serve_generation"),
		mSaturated:   reg.Counter("serve_saturated_total"),
	}
	s.scenStore = scenario.NewStore(opts.ScenarioStoreCap)
	s.scenSem = make(chan struct{}, 1)
	s.scenCtx, s.scenCancel = context.WithCancel(context.Background())
	if err := s.Reload(); err != nil {
		return nil, err
	}
	s.buildMux()
	if opts.WatchInterval > 0 {
		s.stopWatch = make(chan struct{})
		s.watchDone = make(chan struct{})
		go s.watchLoop()
	}
	return s, nil
}

// fileSig identifies the exact snapshot file a generation was loaded
// from. ModTime alone is not enough: two generations published
// back-to-back can land within the filesystem's timestamp granularity
// and compare mtime-equal, making a watcher that only checks mtime skip
// the second one forever. Size and file identity (dev+inode via
// os.SameFile) disambiguate — the atomic-rename publish discipline
// (gstore.Publisher / writeFileWith) guarantees every generation
// arrives on a freshly created inode.
type fileSig struct {
	fi os.FileInfo // nil when the file could not be statted
}

func statSig(path string) fileSig {
	fi, err := os.Stat(path)
	if err != nil {
		return fileSig{}
	}
	return fileSig{fi: fi}
}

// same reports whether b plausibly refers to the same published file:
// equal mtime, equal size, and same dev+inode.
func (a fileSig) same(b fileSig) bool {
	if a.fi == nil || b.fi == nil {
		return a.fi == nil && b.fi == nil
	}
	return a.fi.ModTime().Equal(b.fi.ModTime()) &&
		a.fi.Size() == b.fi.Size() &&
		os.SameFile(a.fi, b.fi)
}

// Reload (re)loads the snapshot file and atomically publishes it as a
// new generation with a monotonic sequence number (genSeq). On failure
// the previous generation keeps serving and the error is returned;
// serve_reload_failures_total counts it.
//
// The file signature recorded on the generation is taken *before* the
// load. If a publisher renames a newer generation over the path while
// the load is in flight, the recorded signature cannot match the file
// on disk, so the next watch tick reloads again — a reload can be
// momentarily stale but never sticks: the watcher always converges on
// the latest published generation.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	sig := statSig(s.path)
	snap, err := gstore.LoadGraphFile(s.path, 0)
	if err != nil {
		s.mReloadFails.Inc()
		return fmt.Errorf("netserve: reload %s: %w", s.path, err)
	}
	// A file without index sections (TSV, v1) is baked here, once, so
	// every generation serves from a complete index.
	idx := snap.Index()
	if idx == nil {
		idx = gstore.BuildIndexData(snap.Graph(), gstore.IndexOptions{})
	}
	gen := &generation{
		num:      s.genSeq.Add(1),
		snap:     snap,
		idx:      idx,
		sig:      sig,
		loadedAt: time.Now(),
	}
	// The publisher's freshness sidecar is written before the snapshot
	// rename, so a watcher that saw the new generation always finds meta
	// at least as new. Absence (batch snapshots, TSV) is not an error.
	if m, merr := gstore.ReadSnapshotMeta(s.path); merr == nil {
		if m.PublishedUnixNs != 0 {
			gen.publishedAt = time.Unix(0, m.PublishedUnixNs)
		}
		gen.lastEventHour = m.LastEventHour
	}
	gen.precompute()
	gen.refs.Store(1) // publisher reference
	old := s.cur.Swap(gen)
	s.mGeneration.Set(int64(gen.num))
	s.mReloads.Inc()
	if old != nil {
		old.unref() // drains: closed when the last in-flight request ends
	}
	return nil
}

// acquire takes a reference on the current generation. The
// load-increment-recheck loop guarantees the reference is valid: the
// publisher drops its own reference only after swapping the pointer,
// so observing cur == g after incrementing proves the publisher still
// held its reference when we incremented.
func (s *Server) acquire() *generation {
	for {
		g := s.cur.Load()
		if g == nil {
			return nil
		}
		g.refs.Add(1)
		if s.cur.Load() == g {
			return g
		}
		g.unref() // superseded under us; retry on the new generation
	}
}

// Acquire pins the current generation and returns its graph, its
// generation number, and a release func that must be called when the
// caller is done — the generation cannot be drained (and its mmap
// cannot be unmapped) until then. Callers outside the request path
// (startup banners, self-bench drivers) use this instead of re-opening
// the snapshot file.
func (s *Server) Acquire() (*graph.Graph, uint64, func()) {
	gen := s.acquire()
	if gen == nil {
		return nil, 0, func() {}
	}
	var once sync.Once
	return gen.snap.Graph(), gen.num, func() { once.Do(gen.unref) }
}

// Generation returns the current snapshot generation number.
func (s *Server) Generation() uint64 {
	if g := s.cur.Load(); g != nil {
		return g.num
	}
	return 0
}

// watchLoop polls the snapshot file's signature (mtime, size, identity)
// and hot-reloads on any change — including a generation published
// while a previous reload was still draining, whose mtime may collide
// with the previous one within the filesystem timestamp granularity.
func (s *Server) watchLoop() {
	defer close(s.watchDone)
	t := time.NewTicker(s.opts.WatchInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopWatch:
			return
		case <-t.C:
			g := s.cur.Load()
			sig := statSig(s.path)
			if sig.fi == nil || g == nil {
				continue
			}
			if !g.sig.same(sig) {
				s.Reload() // failure keeps the old generation; counted
			}
		}
	}
}

// Close stops the watcher, cancels and drains any running scenario
// jobs (each releases its pinned generation), and releases the current
// generation. It does not touch any http.Server mounted on Handler —
// drain that first (http.Server.Shutdown), then Close.
func (s *Server) Close() error {
	if s.stopWatch != nil {
		close(s.stopWatch)
		<-s.watchDone
		s.stopWatch = nil
	}
	if s.scenCancel != nil {
		s.scenCancel()
		s.scenWG.Wait()
	}
	if g := s.cur.Swap(nil); g != nil {
		g.unref()
	}
	return nil
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler { return s.mux }

// HardenedHandler returns Handler wrapped with the process-level
// robustness middleware from WithBackpressure, using the server's
// request timeout and a 1-second Retry-After hint. The daemon
// (cmd/netserve) mounts this one.
func (s *Server) HardenedHandler() http.Handler {
	return WithBackpressure(s.mux, s.opts.RequestTimeout, time.Second)
}

// WithBackpressure wraps h with two robustness layers:
//
//   - an http.TimeoutHandler backstop slightly above timeout, so a
//     handler that wedges without honoring its context still produces
//     a 503 instead of holding the connection forever (the context
//     deadline inside Server.serve remains the first line of defense
//     and wins on well-behaved paths);
//   - a Retry-After header injected into every 503 response — both
//     the semaphore's "server saturated" rejection and the timeout
//     backstop — so clients back off instead of hammering a saturated
//     service.
//
// The Retry-After layer sits outside the timeout layer so it sees the
// backstop's 503s too. Zero timeout disables the backstop; zero
// retryAfter disables the header.
func WithBackpressure(h http.Handler, timeout, retryAfter time.Duration) http.Handler {
	if timeout > 0 {
		h = http.TimeoutHandler(h, timeout+250*time.Millisecond, `{"error":"request timed out"}`)
	}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		val := strconv.FormatInt(secs, 10)
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(&retryAfterWriter{ResponseWriter: w, seconds: val}, r)
		})
	}
	return h
}

// retryAfterWriter injects a Retry-After header the moment a 503
// status is committed — headers cannot be added after WriteHeader, so
// this is the only point where the hint can ride along.
type retryAfterWriter struct {
	http.ResponseWriter
	seconds string
}

func (w *retryAfterWriter) WriteHeader(code int) {
	if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", w.seconds)
	}
	w.ResponseWriter.WriteHeader(code)
}

// ---------------------------------------------------------------------------
// Routing

func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.routeHot("GET /v1/stats", "stats", encodeStats)
	s.routeHot("GET /v1/degree/{id}", "degree", encodeDegree)
	s.routeHot("GET /v1/neighbors/{id}", "neighbors", encodeNeighbors)
	s.route("GET /v1/ego/{id}", "ego", s.handleEgo)
	s.route("GET /v1/path", "path", s.handlePath)
	s.route("POST /v1/scenario", "scenario_submit", s.handleScenarioSubmit)
	s.route("GET /v1/scenario/{id}", "scenario_get", s.handleScenarioGet)
	s.routeHot("GET /v1/degree-dist", "degree_dist", encodeDegreeDist)
	s.routeHot("GET /v1/clustering/{id}", "clustering", encodeClustering)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, nil, notFound("no such endpoint %q", r.URL.Path))
	})
}

func (s *Server) route(pattern, name string,
	fn func(g *graph.Graph, gen *generation, r *http.Request) (any, error)) {
	s.mount(pattern, &endpoint{name: name, fn: fn})
}

func (s *Server) routeHot(pattern, name string, enc encodeFunc) {
	s.mount(pattern, &endpoint{name: name, encode: enc})
}

func (s *Server) mount(pattern string, ep *endpoint) {
	reg := s.opts.Registry
	ep.requests = reg.Counter("serve_" + ep.name + "_requests_total")
	ep.errors = reg.Counter("serve_" + ep.name + "_errors_total")
	ep.latency = reg.Histogram("serve_" + ep.name + "_seconds")
	ep.inflight = reg.Gauge("serve_" + ep.name + "_inflight")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.serve(ep, w, r)
	})
}

// serve is the request spine shared by every endpoint: timeout,
// semaphore, generation reference, handler, telemetry.
func (s *Server) serve(ep *endpoint, w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	ep.requests.Inc()
	ep.inflight.Add(1)
	defer ep.inflight.Add(-1)
	sw := s.opts.Registry.Clock()
	defer func() { sw.Observe(ep.latency) }()

	// Opt-in access log: wrap the writer to capture the committed
	// status. The nil-AccessLog hot path skips all of this.
	if s.opts.AccessLog != nil {
		lw := &statusWriter{ResponseWriter: w}
		w = lw
		start := time.Now()
		defer func() { s.logAccess(ep, r, lw.status(), time.Since(start)) }()
	}

	// Bounded worker pool. The common case — a free slot — is a
	// non-blocking send, so hot requests pay no context allocation;
	// only a saturated server falls back to the deadline wait.
	select {
	case s.sem <- struct{}{}:
	default:
		ctx := r.Context()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.mSaturated.Inc()
			s.writeError(w, ep, &apiError{code: http.StatusServiceUnavailable, msg: "server saturated"})
			return
		}
	}
	defer func() { <-s.sem }()

	gen := s.acquire()
	if gen == nil {
		s.writeError(w, ep, &apiError{code: http.StatusServiceUnavailable, msg: "shutting down"})
		return
	}
	defer gen.unref()
	g := gen.snap.Graph()

	// Hot path: render straight into a pooled buffer, no json.Marshal.
	// The work per request is O(1) off the index.
	if ep.encode != nil {
		bp := getBuf()
		b, err := ep.encode(gen, g, r, bp.b[:0])
		if err != nil {
			putBuf(bp, b)
			s.writeError(w, ep, err)
			return
		}
		b = append(b, '\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(b)
		putBuf(bp, b)
		return
	}

	v, err := ep.fn(g, gen, r)
	if err != nil {
		s.writeError(w, ep, err)
		return
	}
	s.writeJSON(w, ep, v)
}

// statusWriter records the first committed status code so the access
// log can report it; an implicit 200 (Write before WriteHeader) reads
// back as http.StatusOK.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// logAccess emits one structured JSON line per completed request. The
// line is rendered through the same pinned appenders as the response
// encoders and written under a mutex so concurrent requests never
// interleave bytes. Requests at or beyond SlowThreshold carry
// "slow":true — the grep handle for slow-query triage.
func (s *Server) logAccess(ep *endpoint, r *http.Request, status int, d time.Duration) {
	b := make([]byte, 0, 256)
	b = append(b, `{"ts":`...)
	b = appendString(b, time.Now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"method":`...)
	b = appendString(b, r.Method)
	b = append(b, `,"path":`...)
	b = appendString(b, r.URL.Path)
	if r.URL.RawQuery != "" {
		b = append(b, `,"query":`...)
		b = appendString(b, r.URL.RawQuery)
	}
	b = append(b, `,"endpoint":`...)
	b = appendString(b, ep.name)
	b = append(b, `,"status":`...)
	b = appendInt(b, int64(status))
	b = append(b, `,"dur_ms":`...)
	b = appendFloat(b, float64(d)/float64(time.Millisecond))
	if d >= s.opts.SlowThreshold {
		b = append(b, `,"slow":true`...)
	}
	b = append(b, '}', '\n')
	s.logMu.Lock()
	s.opts.AccessLog.Write(b)
	s.logMu.Unlock()
}

func (s *Server) writeJSON(w http.ResponseWriter, ep *endpoint, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, ep, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, b)
}

var newline = []byte{'\n'}

func writeJSONBytes(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
	w.Write(newline)
}

// writeError emits {"error":...,"status":N} through the pooled
// appender — same key order json.Marshal gave the old map form, no
// per-error marshal allocations, and never an empty body: a nil or
// message-less error still produces a generic 500 payload.
func (s *Server) writeError(w http.ResponseWriter, ep *endpoint, err error) {
	s.mErrors.Inc()
	if ep != nil {
		ep.errors.Inc()
	}
	code := http.StatusInternalServerError
	msg := ""
	if err != nil {
		msg = err.Error()
		var ae *apiError
		if errors.As(err, &ae) {
			code = ae.code
		}
	}
	if msg == "" {
		msg = "internal server error"
	}
	bp := getBuf()
	b := append(bp.b[:0], `{"error":`...)
	b = appendString(b, msg)
	b = append(b, `,"status":`...)
	b = appendInt(b, int64(code))
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
	putBuf(bp, b)
}

// ---------------------------------------------------------------------------
// Request parsing

// vertexArg parses a vertex ID path/query argument against the graph:
// 400 for junk, 404 for IDs outside the vertex space.
func vertexArg(g *graph.Graph, raw, what string) (uint32, error) {
	if raw == "" {
		return 0, badRequest("missing %s", what)
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, badRequest("bad %s %q: %v", what, raw, err)
	}
	if int(v) >= g.NumVertices() {
		return 0, notFound("%s %d outside vertex space [0,%d)", what, v, g.NumVertices())
	}
	return uint32(v), nil
}

// queryGet returns the first value of key in the request's raw query
// without materializing a url.Values map (which allocates on every
// request). Values containing percent- or plus-escapes fall back to
// the full parser; the hot endpoints take only small integers, so the
// fallback never triggers on well-formed traffic.
func queryGet(r *http.Request, key string) string {
	raw := r.URL.RawQuery
	for len(raw) > 0 {
		var kv string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			kv, raw = raw, ""
		}
		k, v := kv, ""
		if j := strings.IndexByte(kv, '='); j >= 0 {
			k, v = kv[:j], kv[j+1:]
		}
		if k != key {
			continue
		}
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			return r.URL.Query().Get(key) // escaped: defer to net/url
		}
		return v
	}
	return ""
}

// intArg parses an optional bounded integer query parameter.
func intArg(r *http.Request, name string, def, lo, hi int) (int, error) {
	raw := queryGet(r, name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad %s %q: %v", name, raw, err)
	}
	if v < lo || v > hi {
		return 0, badRequest("%s %d outside [%d,%d]", name, v, lo, hi)
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// Endpoints

// StatsResponse is /v1/stats. The served bytes are rendered once per
// reload (generation.precompute) byte-identically to json.Marshal of
// this struct; the type remains the schema of record for clients.
type StatsResponse struct {
	Vertices          int      `json:"vertices"`
	VerticesWithEdges int      `json:"vertices_with_edges"`
	Edges             int      `json:"edges"`
	TotalWeight       uint64   `json:"total_weight"`
	MaxDegree         int      `json:"max_degree"`
	Generation        uint64   `json:"generation"`
	SnapshotPath      string   `json:"snapshot_path"`
	SnapshotBytes     int64    `json:"snapshot_bytes"`
	Mapped            bool     `json:"mapped"`
	LoadedAt          string   `json:"loaded_at"`
	SnapshotVersion   int      `json:"snapshot_version"`
	IndexSections     []string `json:"index_sections"`
	PublishedAt       string   `json:"published_at,omitempty"`
	LastEventHour     uint32   `json:"last_event_hour,omitempty"`
	// AgeS is the generation's age at response time: seconds since the
	// publisher's sidecar publish instant when one exists, else since
	// this process loaded the snapshot. The one dynamic stats field —
	// appended per request onto the precomputed prefix.
	AgeS float64 `json:"age_s,omitempty"`
}

func encodeStats(gen *generation, _ *graph.Graph, _ *http.Request, b []byte) ([]byte, error) {
	b = append(b, gen.statsJSON...)
	base := gen.publishedAt
	if base.IsZero() {
		base = gen.loadedAt
	}
	if age := time.Since(base).Seconds(); age != 0 {
		b = append(b, `,"age_s":`...)
		b = appendFloat(b, age)
	}
	return append(b, '}'), nil
}

// DegreeResponse is /v1/degree/{id}.
type DegreeResponse struct {
	ID       uint32 `json:"id"`
	Degree   int    `json:"degree"`
	Strength uint64 `json:"strength"`
}

func encodeDegree(gen *generation, g *graph.Graph, r *http.Request, b []byte) ([]byte, error) {
	v, err := vertexArg(g, r.PathValue("id"), "vertex")
	if err != nil {
		return b, err
	}
	b = append(b, `{"id":`...)
	b = appendUint(b, uint64(v))
	b = append(b, `,"degree":`...)
	b = appendUint(b, uint64(gen.idx.Degrees[v]))
	b = append(b, `,"strength":`...)
	b = appendUint(b, gen.idx.Strengths[v])
	return append(b, '}'), nil
}

// Neighbor is one weighted adjacency in /v1/neighbors/{id}.
type Neighbor struct {
	ID     uint32 `json:"id"`
	Weight uint32 `json:"weight"`
}

// NeighborsResponse is /v1/neighbors/{id}: the strongest contacts
// first (weight descending, ID ascending on ties), paginated.
type NeighborsResponse struct {
	ID        uint32     `json:"id"`
	Degree    int        `json:"degree"`
	Offset    int        `json:"offset"`
	Returned  int        `json:"returned"`
	Neighbors []Neighbor `json:"neighbors"`
}

func encodeNeighbors(gen *generation, g *graph.Graph, r *http.Request, b []byte) ([]byte, error) {
	v, err := vertexArg(g, r.PathValue("id"), "vertex")
	if err != nil {
		return b, err
	}
	offset, err := intArg(r, "offset", 0, 0, 1<<31-1)
	if err != nil {
		return b, err
	}
	limit, err := intArg(r, "limit", 50, 1, 1000)
	if err != nil {
		return b, err
	}
	deg := g.Degree(v)

	// Page one served straight off the baked top-k row — already sorted
	// weight-descending, ID-ascending. Usable when the row can fill the
	// page: either the page fits inside the row, or the row holds the
	// vertex's entire adjacency (degree ≤ k).
	if offset == 0 {
		row := gen.idx.TopKRow(v) // interleaved (id, weight) pairs
		cnt := len(row) / 2
		if limit <= cnt || cnt == deg {
			return appendNeighborsPage(b, v, deg, 0, row[:2*min(limit, cnt)]), nil
		}
	}

	// Deep pages (offset > 0, or limit > k on a row longer than k) sort
	// the full adjacency. Allocates — acceptable off the hot path.
	ids, wts := g.Neighbors(v)
	all := make([]Neighbor, len(ids))
	for k := range ids {
		all[k] = Neighbor{ID: ids[k], Weight: wts[k]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].ID < all[j].ID
	})
	if offset > len(all) {
		offset = len(all)
	}
	page := all[offset:]
	if len(page) > limit {
		page = page[:limit]
	}
	pairs := make([]uint32, 0, 2*len(page))
	for _, nb := range page {
		pairs = append(pairs, nb.ID, nb.Weight)
	}
	return appendNeighborsPage(b, v, len(all), offset, pairs), nil
}

// appendNeighborsPage renders a NeighborsResponse byte-identically to
// json.Marshal from interleaved (id, weight) pairs.
func appendNeighborsPage(b []byte, v uint32, degree, offset int, pairs []uint32) []byte {
	b = append(b, `{"id":`...)
	b = appendUint(b, uint64(v))
	b = append(b, `,"degree":`...)
	b = appendInt(b, int64(degree))
	b = append(b, `,"offset":`...)
	b = appendInt(b, int64(offset))
	b = append(b, `,"returned":`...)
	b = appendInt(b, int64(len(pairs)/2))
	b = append(b, `,"neighbors":[`...)
	for k := 0; k+1 < len(pairs); k += 2 {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = appendUint(b, uint64(pairs[k]))
		b = append(b, `,"weight":`...)
		b = appendUint(b, uint64(pairs[k+1]))
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// EgoResponse is /v1/ego/{id}: the radius-k ego network (the paper's
// V = v ∪ V1 ∪ V2 construction) with its induced edge count.
type EgoResponse struct {
	ID        uint32   `json:"id"`
	Radius    int      `json:"radius"`
	Size      int      `json:"size"`
	Edges     int      `json:"edges"`
	Members   []uint32 `json:"members"`
	Truncated bool     `json:"truncated"`
}

func (s *Server) handleEgo(g *graph.Graph, gen *generation, r *http.Request) (any, error) {
	v, err := vertexArg(g, r.PathValue("id"), "vertex")
	if err != nil {
		return nil, err
	}
	radius, err := intArg(r, "radius", 2, 0, 6)
	if err != nil {
		return nil, err
	}
	ps := gen.pathPool.Get().(*graph.PathScratch)
	members, edges := g.EgoScratch(v, radius, ps)
	gen.pathPool.Put(ps)
	resp := EgoResponse{ID: v, Radius: radius, Size: len(members), Edges: edges, Members: members}
	if len(resp.Members) > s.opts.MaxEgoMembers {
		resp.Members = resp.Members[:s.opts.MaxEgoMembers]
		resp.Truncated = true
	}
	return resp, nil
}

// PathResponse is /v1/path?from=&to=[&weighted=0|1]. Unweighted searches
// minimize hops (BFS); weighted searches run Dijkstra with edge cost
// 1/weight, preferring strong collocation ties.
type PathResponse struct {
	From     uint32   `json:"from"`
	To       uint32   `json:"to"`
	Weighted bool     `json:"weighted"`
	Found    bool     `json:"found"`
	Hops     int      `json:"hops"`
	Cost     float64  `json:"cost"`
	Path     []uint32 `json:"path"`
}

func (s *Server) handlePath(g *graph.Graph, gen *generation, r *http.Request) (any, error) {
	from, err := vertexArg(g, queryGet(r, "from"), "from")
	if err != nil {
		return nil, err
	}
	to, err := vertexArg(g, queryGet(r, "to"), "to")
	if err != nil {
		return nil, err
	}
	weighted, err := intArg(r, "weighted", 0, 0, 1)
	if err != nil {
		return nil, err
	}
	resp := PathResponse{From: from, To: to, Weighted: weighted == 1}
	ps := gen.pathPool.Get().(*graph.PathScratch)
	defer gen.pathPool.Put(ps)
	if resp.Weighted {
		path, cost, ok := g.ShortestPathWeightedScratch(from, to, ps)
		if ok {
			resp.Found, resp.Path, resp.Cost, resp.Hops = true, path, cost, len(path)-1
		}
	} else {
		path, ok := g.ShortestPathBFSScratch(from, to, ps)
		if ok {
			resp.Found, resp.Path, resp.Hops = true, path, len(path)-1
			resp.Cost = float64(len(path) - 1)
		}
	}
	return resp, nil
}

// DegreeDistResponse is /v1/degree-dist: the dense degree histogram
// (slot k = number of vertices with degree k), deterministic across
// runs.
type DegreeDistResponse struct {
	Vertices  int   `json:"vertices"`
	MaxDegree int   `json:"max_degree"`
	Histogram []int `json:"histogram"`
}

func encodeDegreeDist(gen *generation, _ *graph.Graph, _ *http.Request, b []byte) ([]byte, error) {
	return append(b, gen.histJSON...), nil
}

// ClusteringResponse is /v1/clustering/{id}.
type ClusteringResponse struct {
	ID         uint32  `json:"id"`
	Degree     int     `json:"degree"`
	Clustering float64 `json:"clustering"`
}

func encodeClustering(gen *generation, g *graph.Graph, r *http.Request, b []byte) ([]byte, error) {
	v, err := vertexArg(g, r.PathValue("id"), "vertex")
	if err != nil {
		return b, err
	}
	b = append(b, `{"id":`...)
	b = appendUint(b, uint64(v))
	b = append(b, `,"degree":`...)
	b = appendInt(b, int64(g.Degree(v)))
	b = append(b, `,"clustering":`...)
	b = appendFloat(b, gen.idx.Clustering[v])
	return append(b, '}'), nil
}
