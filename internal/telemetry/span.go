package telemetry

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements hierarchical spans. A span attributes wall
// clock, bytes and a count to one named region of the pipeline
// ("synth/gram", "abm/rank", ...). Spans nest through context.Context:
// StartSpan on a context that already carries a live span records the
// new span as its child, so a run produces a tree
//
//	pipeline/synthesize
//	└── synth/file
//	    ├── synth/load
//	    ├── synth/build
//	    ├── synth/gram
//	    └── synth/reduce
//
// Ending a span publishes its wall time into the histogram named after
// it (slashes become underscores, "_seconds" appended: "synth/gram" →
// synth_gram_seconds), so span timings appear on /metrics with no
// extra instrumentation.
//
// Cost contract: a span ALWAYS measures its wall time — callers such as
// core.Stats read durations from spans whether or not telemetry is
// enabled, which is what makes Stats a per-run view over the same
// measurements the registry publishes. Publication (histogram observe,
// tree linkage, root retention) happens only when the registry is
// enabled; disabled, StartSpan allocates one small struct, reads the
// clock once, and returns the caller's context unchanged (no
// context.WithValue allocation).

type spanKey struct{}

// maxRootSpans bounds how many completed root spans a registry retains
// (newest win); a long-lived server must not accumulate span trees
// without bound.
const maxRootSpans = 64

// ---------------------------------------------------------------------------
// Trace identity
//
// Every enabled span carries a 64-bit span id and the 64-bit trace id
// of the tree it belongs to. IDs are generated by a splitmix64 walk
// over an atomic counter seeded per process from the clock and pid, so
// two ranks of the same launch never collide in practice and a
// distributed trace can be stitched from per-rank dumps by id alone.

var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<36)
}

// newID returns a nonzero 64-bit identifier. Zero is reserved to mean
// "no id" (spans on a disabled registry, pre-trace producers).
func newID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// FormatID renders a trace or span id as the fixed-width hex form used
// in reports and logs; zero renders as "".
func FormatID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// ParseID reverses FormatID; malformed input yields 0.
func ParseID(s string) uint64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// Span is one timed region. Bytes and Count accumulate attributed
// volume (log bytes flushed, entries processed, ...). A Span's methods
// are safe on a nil receiver, so call sites never need to check.
type Span struct {
	name   string
	reg    *Registry
	parent *Span
	start  time.Time

	// Trace identity (zero on disabled registries). Local parentage is
	// the parent pointer; a worker rank's remote parent is stamped onto
	// its shipped SpanReport.
	traceID uint64
	spanID  uint64
	rank    int

	bytes atomic.Int64
	count atomic.Int64
	ended atomic.Bool
	wall  atomic.Int64 // ns, set once by End

	mu       sync.Mutex
	children []*Span
}

// StartSpan begins a span on the Default registry.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return Default.StartSpan(ctx, name)
}

// StartSpan begins a named span. The returned context carries the span
// so nested StartSpan calls build a tree; pass it down the existing
// context plumbing. Always call End (or EndSpan) exactly once.
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, reg: r, start: time.Now()}
	if !r.enabled.Load() {
		return ctx, sp
	}
	sp.spanID = newID()
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok {
		sp.parent = parent
		sp.traceID = parent.traceID
		sp.rank = parent.rank
	}
	if sp.traceID == 0 {
		sp.traceID = newID()
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFromContext returns the innermost live span carried by ctx, or
// nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the id of the trace this span belongs to (0 when the
// registry was disabled at StartSpan time).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's own id (0 when disabled).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// SetRank stamps the rank this span (and its future children) runs on;
// the rank travels with the SpanReport so a stitched cluster trace can
// attribute every span to a process.
func (s *Span) SetRank(rank int) {
	if s == nil {
		return
	}
	s.rank = rank
}

// AddBytes attributes n bytes to the span.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.bytes.Add(n)
}

// AddCount attributes n items to the span.
func (s *Span) AddCount(n int64) {
	if s == nil {
		return
	}
	s.count.Add(n)
}

// Wall returns the span's wall time: the final duration once ended,
// the running duration before.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended.Load() {
		return time.Duration(s.wall.Load())
	}
	return time.Since(s.start)
}

// End stops the span, returning its wall time. When the registry is
// enabled the wall time is observed into the span's histogram
// (HistName) and the span is linked under its parent — or retained as
// a root span for the run report when it has none. End is idempotent.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if !s.ended.CompareAndSwap(false, true) {
		return time.Duration(s.wall.Load())
	}
	d := time.Since(s.start)
	s.wall.Store(int64(d))
	if s.reg != nil && s.reg.enabled.Load() {
		s.reg.Histogram(HistName(s.name)).observe(int64(d))
		if s.parent != nil {
			s.parent.mu.Lock()
			s.parent.children = append(s.parent.children, s)
			s.parent.mu.Unlock()
		} else {
			s.reg.addRoot(s)
		}
	}
	return d
}

// HistName maps a span name to its histogram series:
// "synth/gram" → "synth_gram_seconds".
func HistName(span string) string {
	return strings.ReplaceAll(span, "/", "_") + "_seconds"
}

func (r *Registry) addRoot(s *Span) {
	r.rootMu.Lock()
	defer r.rootMu.Unlock()
	r.roots = append(r.roots, s)
	if n := len(r.roots) - maxRootSpans; n > 0 {
		r.roots = append(r.roots[:0], r.roots[n:]...)
	}
}

// SpanReport is the serializable form of a completed span subtree.
// TraceID/SpanID/ParentID are FormatID hex strings (empty when the
// producing registry was disabled); ParentID names a span in *another
// process*, set by the shipping rank (core.SynthesizeDistributed stamps
// it from the transport's trace context) — local parentage is the
// Children nesting. Rank is the
// process rank the span ran on (0 for single-process runs and the
// distributed coordinator).
type SpanReport struct {
	Name     string       `json:"name"`
	WallNs   int64        `json:"wall_ns"`
	Bytes    int64        `json:"bytes,omitempty"`
	Count    int64        `json:"count,omitempty"`
	Rank     int          `json:"rank,omitempty"`
	TraceID  string       `json:"trace_id,omitempty"`
	SpanID   string       `json:"span_id,omitempty"`
	ParentID string       `json:"parent_span_id,omitempty"`
	Children []SpanReport `json:"children,omitempty"`
}

// Report snapshots the span subtree. Children appear in the order they
// ended.
func (s *Span) Report() SpanReport {
	rep := SpanReport{
		Name:    s.name,
		WallNs:  int64(s.Wall()),
		Bytes:   s.bytes.Load(),
		Count:   s.count.Load(),
		Rank:    s.rank,
		TraceID: FormatID(s.traceID),
		SpanID:  FormatID(s.spanID),
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		rep.Children = append(rep.Children, c.Report())
	}
	return rep
}

// RootSpans returns reports for the retained completed root spans,
// oldest first.
func (r *Registry) RootSpans() []SpanReport {
	r.rootMu.Lock()
	roots := append([]*Span(nil), r.roots...)
	r.rootMu.Unlock()
	out := make([]SpanReport, 0, len(roots))
	for _, s := range roots {
		out = append(out, s.Report())
	}
	return out
}
