package gstore

// Generation publishing for streaming synthesis.
//
// A streaming synthesizer emits a new network every simulated window;
// netserve watches one snapshot path and hot-swaps generations on
// mtime change. Publisher is the glue contract between them: every
// Publish bakes a fully indexed v2 snapshot through the atomic
// temp+fsync+rename discipline (writeFileWith), so the watcher can
// never observe a torn file, and every publish lands on a fresh inode,
// which is what lets the watcher disambiguate back-to-back publishes
// whose mtimes collide within the filesystem timestamp granularity.
//
// Publishing is deterministic end to end: every generation's bytes are
// WriteFileIndexed's for the same graph, which are worker-count
// invariant, so a generation published from a streamed accumulator is
// byte-identical to a batch `netsynth -snapshot` of the same window —
// the oracle the streaming smoke test leans on. The one thing a
// Publisher bakes differently is the clustering column: it keeps the
// previous generation's topology and per-vertex triangle counts, and
// updates the counts from the edges the new generation added or
// removed (graph.UpdateTriangleCounts) instead of counting every
// triangle again. The counts are integers, so the column is the same.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

var (
	mPublishes      = telemetry.C("gstore_publish_total")
	mPublishSeconds = telemetry.H("gstore_publish_seconds")
	// mFreshnessSeconds is the end-to-end window-close → publish-durable
	// lag: how far behind the simulation's clock each generation became
	// visible. It complements gstore_publish_seconds (the bake alone) by
	// including accumulation and queueing upstream of the bake.
	mFreshnessSeconds = telemetry.H("gstore_freshness_seconds")
	// What each publish's topology changed against the previous
	// generation (the first publish adds all its edges), and which way
	// its triangle counts were found: updated from the changed edges, or
	// recounted in full (the first publish, or an update dearer than a
	// recount).
	mEdgesAdded         = telemetry.C("gstore_publish_edges_added_total")
	mEdgesRemoved       = telemetry.C("gstore_publish_edges_removed_total")
	mTrianglesUpdated   = telemetry.C("gstore_publish_triangles_updated_total")
	mTrianglesRecounted = telemetry.C("gstore_publish_triangles_recounted_total")
)

// PublisherOptions configures a Publisher.
type PublisherOptions struct {
	// Index configures the v2 index sections baked into each generation.
	Index IndexOptions
	// History retains the last History generations beside the live path
	// as hard links named <path>.gen-NNNNNN; older ones are pruned. The
	// numbers continue after the highest link already there, so a
	// restarted Publisher extends the sequence. Zero keeps no history —
	// each publish replaces the previous file.
	History int
}

// Publisher writes successive graph generations to one snapshot path.
// It is not safe for concurrent use; a streaming pipeline publishes
// windows in order from one goroutine.
type Publisher struct {
	path string
	opts PublisherOptions
	gen  int
	// histBase is the highest history number beside path when the
	// Publisher was made; generation g is retained as histBase+g.
	histBase int
	// The last baked generation's topology — a private copy of its CSR
	// offsets and neighbor IDs, without weights — and its per-vertex
	// triangle counts; prevTri is nil until the first bake.
	prevOff  []int64
	prevNbrs []uint32
	prevTri  []int64
}

// PublishInfo reports one completed publish.
type PublishInfo struct {
	// Generation is the 1-based publish count of this Publisher.
	Generation int
	// Path is the live snapshot path the generation was renamed onto.
	Path string
	// Bytes is the size of the published snapshot.
	Bytes int64
	// Elapsed is the wall time of the bake + atomic rename.
	Elapsed time.Duration
}

// NewPublisher returns a Publisher for the given live snapshot path.
// The parent directory must exist.
func NewPublisher(path string, opts PublisherOptions) *Publisher {
	p := &Publisher{path: path, opts: opts}
	if opts.History > 0 {
		if gens := history(path); len(gens) > 0 {
			p.histBase = gens[len(gens)-1]
		}
	}
	return p
}

// Generation returns the number of generations published so far.
func (p *Publisher) Generation() int { return p.gen }

// PublishMeta is the freshness context a streaming synthesizer knows
// about the generation it is publishing. The zero value means
// "unknown" and publishes no sidecar.
type PublishMeta struct {
	// WindowClosedAt is the wall-clock instant the source window closed
	// (all of its events were in hand). Zero when unknown.
	WindowClosedAt time.Time
	// LastEventHour is the exclusive upper simulated hour the generation
	// covers — "the network is current through hour H".
	LastEventHour uint32
}

// SnapshotMeta is the sidecar document Publish writes next to the live
// snapshot (MetaPath) so a serving process can report generation
// freshness without the snapshot format itself carrying wall-clock
// state (which would break the streamed-vs-batch bit-identity oracle).
type SnapshotMeta struct {
	Generation         int    `json:"generation"`
	LastEventHour      uint32 `json:"last_event_hour"`
	WindowClosedUnixNs int64  `json:"window_closed_unix_ns,omitempty"`
	PublishedUnixNs    int64  `json:"published_unix_ns"`
}

// MetaPath returns the sidecar path for a snapshot path.
func MetaPath(path string) string { return path + ".meta" }

// ReadSnapshotMeta reads a sidecar written by PublishWithMeta.
func ReadSnapshotMeta(path string) (SnapshotMeta, error) {
	blob, err := os.ReadFile(MetaPath(path))
	if err != nil {
		return SnapshotMeta{}, err
	}
	var m SnapshotMeta
	if err := json.Unmarshal(blob, &m); err != nil {
		return SnapshotMeta{}, fmt.Errorf("gstore: meta %s: %w", MetaPath(path), err)
	}
	return m, nil
}

// Publish bakes g as the next snapshot generation: an indexed v2
// snapshot is written to a temporary file in the destination directory,
// fsynced, and renamed over the live path. On return the new generation
// is durable and visible to any watcher; the previous generation's
// bytes are either unlinked or, with History > 0, retained as
// <path>.gen-NNNNNN.
func (p *Publisher) Publish(g *graph.Graph) (PublishInfo, error) {
	return p.PublishWithMeta(g, PublishMeta{})
}

// PublishWithMeta is Publish plus freshness accounting: the sidecar
// meta document is refreshed before the snapshot rename (so a watcher
// that observes the new generation always finds meta at least as new),
// and the window-close → durable lag is observed into
// gstore_freshness_seconds when WindowClosedAt is known.
func (p *Publisher) PublishWithMeta(g *graph.Graph, meta PublishMeta) (PublishInfo, error) {
	start := time.Now()
	if meta != (PublishMeta{}) {
		m := SnapshotMeta{
			Generation:      p.gen + 1,
			LastEventHour:   meta.LastEventHour,
			PublishedUnixNs: start.UnixNano(),
		}
		if !meta.WindowClosedAt.IsZero() {
			m.WindowClosedUnixNs = meta.WindowClosedAt.UnixNano()
		}
		if blob, err := json.Marshal(m); err == nil {
			tmp := MetaPath(p.path) + ".tmp"
			if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err == nil {
				os.Rename(tmp, MetaPath(p.path)) // best-effort: meta loss ≠ publish failure
			}
		}
	}
	if err := writeFileIndexData(p.path, g, p.bake(g)); err != nil {
		return PublishInfo{}, fmt.Errorf("gstore: publish %s: %w", p.path, err)
	}
	p.gen++
	info := PublishInfo{Generation: p.gen, Path: p.path}
	if st, err := os.Stat(p.path); err == nil {
		info.Bytes = st.Size()
	}
	if p.opts.History > 0 {
		if err := p.retain(); err != nil {
			return info, err
		}
	}
	info.Elapsed = time.Since(start)
	mPublishes.Inc()
	mPublishSeconds.Observe(info.Elapsed)
	if !meta.WindowClosedAt.IsZero() {
		mFreshnessSeconds.Observe(time.Since(meta.WindowClosedAt))
	}
	return info, nil
}

// bake computes g's index sections with the triangle counts updated
// from the previous generation's, then keeps g's topology and counts
// for the next publish. The state is kept whether or not the write
// that follows succeeds: it describes g, which is all the next update
// needs.
func (p *Publisher) bake(g *graph.Graph) *Index {
	opts := p.opts.Index.withDefaults()
	var tri []int64
	if p.prevTri == nil {
		tri = g.TriangleCounts(opts.Workers)
		mEdgesAdded.Add(int64(g.NumEdges()))
		mTrianglesRecounted.Inc()
	} else {
		var up graph.TriangleUpdate
		tri, up = g.UpdateTriangleCounts(p.prevOff, p.prevNbrs, p.prevTri, opts.Workers)
		mEdgesAdded.Add(up.Added)
		mEdgesRemoved.Add(up.Removed)
		if up.Recounted {
			mTrianglesRecounted.Inc()
		} else {
			mTrianglesUpdated.Inc()
		}
	}
	off, nbrs, _ := g.CSR()
	p.prevOff = keep(p.prevOff, off)
	p.prevNbrs = keep(p.prevNbrs, nbrs)
	p.prevTri = tri
	return bakeIndex(g, opts, tri)
}

// keep copies src into dst's storage, reallocated at exactly src's
// length when it is too small: the copy stays resident between
// publishes, so it carries no growth slack.
func keep[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// retain hard-links the just-published generation beside the live path
// and prunes history beyond opts.History, oldest first. Hard links share
// the live file's inode, so retention costs directory entries, not
// bytes, and pruning can never disturb the live path.
func (p *Publisher) retain() error {
	n := p.histBase + p.gen
	if err := os.Link(p.path, histName(p.path, n)); err != nil {
		return fmt.Errorf("gstore: retain generation %d: %w", n, err)
	}
	gens := history(p.path)
	for _, old := range gens[:max(len(gens)-p.opts.History, 0)] {
		os.Remove(histName(p.path, old))
	}
	return nil
}

// histName names retained generation n of path.
func histName(path string, n int) string { return fmt.Sprintf("%s.gen-%06d", path, n) }

// history returns the numbers of the generations retained beside path,
// ascending.
func history(path string) []int {
	names, _ := filepath.Glob(path + ".gen-*") // the only error is a bad pattern
	var gens []int
	for _, name := range names {
		if n, err := strconv.Atoi(name[strings.LastIndex(name, ".gen-")+len(".gen-"):]); err == nil {
			gens = append(gens, n)
		}
	}
	slices.Sort(gens)
	return gens
}
