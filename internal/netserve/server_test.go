package netserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// testGraph is the deterministic fixture shared by the endpoint tests:
//
//	0 --5-- 1
//	|      /
//	1    3
//	|  /
//	2 --10-- 3        4, 5 isolated
//
// clustering(0)=1, neighbors(0) weight-desc = [(1,5),(2,1)],
// BFS 0→3 = [0,2,3], weighted 0→3 = [0,1,2,3] (1/5+1/3+1/10 < 1+1/10).
func testGraph() *graph.Graph {
	return graph.FromTri(&sparse.Tri{
		I: []uint32{0, 0, 1, 2},
		J: []uint32{1, 2, 2, 3},
		W: []uint32{5, 1, 3, 10},
	}, 6)
}

// writeTestSnapshot writes g as a .gsnap into dir and returns its path.
func writeTestSnapshot(t *testing.T, dir string, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(dir, "test.gsnap")
	if err := gstore.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestServer boots a Server over the fixture graph with an isolated
// telemetry registry and mounts it on an httptest listener.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, string) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.New()
	}
	path := writeTestSnapshot(t, t.TempDir(), testGraph())
	s, err := New(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, path
}

// getJSON fetches url and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q, want application/json", url, ct)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	_, ts, path := newTestServer(t, Options{})
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := StatsResponse{
		Vertices: 6, VerticesWithEdges: 4, Edges: 4, TotalWeight: 19,
		MaxDegree: 3, Generation: 1, SnapshotPath: path,
	}
	if st.Vertices != want.Vertices || st.VerticesWithEdges != want.VerticesWithEdges ||
		st.Edges != want.Edges || st.TotalWeight != want.TotalWeight ||
		st.MaxDegree != want.MaxDegree || st.Generation != want.Generation ||
		st.SnapshotPath != want.SnapshotPath {
		t.Fatalf("stats = %+v, want fields of %+v", st, want)
	}
	if st.SnapshotBytes <= 0 {
		t.Fatalf("snapshot_bytes = %d", st.SnapshotBytes)
	}
}

func TestDegreeEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	var d DegreeResponse
	if code := getJSON(t, ts.URL+"/v1/degree/2", &d); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if d.ID != 2 || d.Degree != 3 || d.Strength != 14 {
		t.Fatalf("degree(2) = %+v, want id=2 degree=3 strength=14", d)
	}
}

func TestNeighborsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	var nb NeighborsResponse
	if code := getJSON(t, ts.URL+"/v1/neighbors/0", &nb); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := []Neighbor{{ID: 1, Weight: 5}, {ID: 2, Weight: 1}}
	if nb.Degree != 2 || !reflect.DeepEqual(nb.Neighbors, want) {
		t.Fatalf("neighbors(0) = %+v, want %v weight-descending", nb, want)
	}

	// Pagination: offset=1&limit=1 returns only the weaker tie.
	if code := getJSON(t, ts.URL+"/v1/neighbors/0?offset=1&limit=1", &nb); code != http.StatusOK {
		t.Fatalf("paginated status = %d", code)
	}
	if nb.Offset != 1 || nb.Returned != 1 || !reflect.DeepEqual(nb.Neighbors, want[1:]) {
		t.Fatalf("paginated neighbors = %+v, want offset=1 returned=1 %v", nb, want[1:])
	}

	// Offset past the end is clamped, not an error.
	if code := getJSON(t, ts.URL+"/v1/neighbors/0?offset=99", &nb); code != http.StatusOK {
		t.Fatalf("clamped status = %d", code)
	}
	if nb.Returned != 0 {
		t.Fatalf("clamped returned = %d, want 0", nb.Returned)
	}
}

func TestEgoEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	var ego EgoResponse
	if code := getJSON(t, ts.URL+"/v1/ego/0?radius=1", &ego); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ego.Size != 3 || ego.Edges != 3 || !reflect.DeepEqual(ego.Members, []uint32{0, 1, 2}) {
		t.Fatalf("ego(0,1) = %+v, want members [0 1 2] edges 3 (triangle)", ego)
	}
	// Radius 2 pulls in vertex 3; induced edges = all 4.
	if code := getJSON(t, ts.URL+"/v1/ego/0?radius=2", &ego); code != http.StatusOK {
		t.Fatalf("radius=2 status = %d", code)
	}
	if ego.Size != 4 || ego.Edges != 4 {
		t.Fatalf("ego(0,2) = %+v, want size 4 edges 4", ego)
	}
}

func TestEgoTruncation(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{MaxEgoMembers: 2})
	var ego EgoResponse
	if code := getJSON(t, ts.URL+"/v1/ego/0?radius=2", &ego); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !ego.Truncated || len(ego.Members) != 2 || ego.Size != 4 {
		t.Fatalf("ego truncation = %+v, want truncated member list of 2 with size 4", ego)
	}
}

func TestPathEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	var p PathResponse
	if code := getJSON(t, ts.URL+"/v1/path?from=0&to=3", &p); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !p.Found || p.Hops != 2 || !reflect.DeepEqual(p.Path, []uint32{0, 2, 3}) {
		t.Fatalf("BFS path = %+v, want [0 2 3]", p)
	}

	// Weighted search prefers strong ties: 0-1-2-3 beats 0-2-3.
	if code := getJSON(t, ts.URL+"/v1/path?from=0&to=3&weighted=1", &p); code != http.StatusOK {
		t.Fatalf("weighted status = %d", code)
	}
	if !p.Found || !reflect.DeepEqual(p.Path, []uint32{0, 1, 2, 3}) {
		t.Fatalf("weighted path = %+v, want [0 1 2 3]", p)
	}
	wantCost := 1.0/5 + 1.0/3 + 1.0/10
	if diff := p.Cost - wantCost; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("weighted cost = %v, want %v", p.Cost, wantCost)
	}

	// Disconnected pair: found=false, empty path.
	if code := getJSON(t, ts.URL+"/v1/path?from=0&to=4", &p); code != http.StatusOK {
		t.Fatalf("disconnected status = %d", code)
	}
	if p.Found || len(p.Path) != 0 {
		t.Fatalf("disconnected path = %+v, want found=false", p)
	}
}

func TestDegreeDistEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	var dd DegreeDistResponse
	if code := getJSON(t, ts.URL+"/v1/degree-dist", &dd); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := []int{2, 1, 2, 1} // degrees: 4,5→0; 3→1; 0,1→2; 2→3
	if dd.MaxDegree != 3 || !reflect.DeepEqual(dd.Histogram, want) {
		t.Fatalf("degree-dist = %+v, want histogram %v", dd, want)
	}
}

func TestClusteringEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	var c ClusteringResponse
	if code := getJSON(t, ts.URL+"/v1/clustering/0", &c); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if c.Clustering != 1.0 {
		t.Fatalf("clustering(0) = %+v, want 1.0 (its two neighbors are linked)", c)
	}
	if code := getJSON(t, ts.URL+"/v1/clustering/3", &c); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if c.Clustering != 0 {
		t.Fatalf("clustering(3) = %+v, want 0 for a degree-1 vertex", c)
	}
}

// TestErrorResponses covers the 400/404/405 surface of every endpoint.
func TestErrorResponses(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/degree/abc", http.StatusBadRequest},
		{"/v1/degree/-1", http.StatusBadRequest},
		{"/v1/degree/99", http.StatusNotFound},           // outside vertex space
		{"/v1/degree/4294967296", http.StatusBadRequest}, // uint32 overflow
		{"/v1/neighbors/99", http.StatusNotFound},
		{"/v1/neighbors/0?limit=0", http.StatusBadRequest},      // below minimum
		{"/v1/neighbors/0?limit=100000", http.StatusBadRequest}, // above maximum
		{"/v1/neighbors/0?offset=x", http.StatusBadRequest},
		{"/v1/ego/99", http.StatusNotFound},
		{"/v1/ego/0?radius=7", http.StatusBadRequest},
		{"/v1/ego/0?radius=junk", http.StatusBadRequest},
		{"/v1/path?to=3", http.StatusBadRequest},   // missing from
		{"/v1/path?from=0", http.StatusBadRequest}, // missing to
		{"/v1/path?from=0&to=99", http.StatusNotFound},
		{"/v1/clustering/banana", http.StatusBadRequest},
		{"/v1/nope", http.StatusNotFound},
		{"/", http.StatusNotFound},
	}
	for _, tc := range cases {
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if code := getJSON(t, ts.URL+tc.url, &e); code != tc.code {
			t.Errorf("GET %s: status = %d, want %d", tc.url, code, tc.code)
		} else if e.Status != tc.code || e.Error == "" {
			t.Errorf("GET %s: error body = %+v, want status %d with message", tc.url, e, tc.code)
		}
	}

	// Wrong method on a registered route falls through to the catch-all
	// (the mux prefers the matching "/" pattern over a 405).
	resp, err := http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/stats: status = %d, want 404", resp.StatusCode)
	}
}

// TestCacheHits verifies the second identical request is served from the
// LRU and counted, while the non-cacheable degree endpoint never caches.
func TestCacheHits(t *testing.T) {
	reg := telemetry.New()
	s, ts, _ := newTestServer(t, Options{Registry: reg})

	var first, second EgoResponse
	getJSON(t, ts.URL+"/v1/ego/0?radius=2", &first)
	hits0 := reg.Counter("serve_cache_hits_total").Value()
	getJSON(t, ts.URL+"/v1/ego/0?radius=2", &second)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached response differs: %+v vs %+v", first, second)
	}
	if got := reg.Counter("serve_cache_hits_total").Value(); got != hits0+1 {
		t.Fatalf("serve_cache_hits_total = %d, want %d", got, hits0+1)
	}
	if got := reg.Counter("serve_ego_cache_hits_total").Value(); got != 1 {
		t.Fatalf("serve_ego_cache_hits_total = %d, want 1", got)
	}
	if s.cache.len() == 0 {
		t.Fatal("cache is empty after a cacheable request")
	}

	// Different query string is a different key.
	getJSON(t, ts.URL+"/v1/ego/0?radius=1", &first)
	if got := reg.Counter("serve_cache_hits_total").Value(); got != hits0+1 {
		t.Fatalf("distinct query counted as hit: %d", got)
	}

	// Point lookups bypass the cache entirely.
	n := s.cache.len()
	getJSON(t, ts.URL+"/v1/degree/0", nil)
	getJSON(t, ts.URL+"/v1/degree/0", nil)
	if s.cache.len() != n {
		t.Fatal("degree endpoint populated the cache")
	}
	if got := reg.Counter("serve_degree_cache_hits_total").Value(); got != 0 {
		t.Fatalf("serve_degree_cache_hits_total = %d, want 0", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{CacheBytes: -1})
	if s.cache != nil {
		t.Fatal("negative CacheBytes should disable the cache")
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("uncached serve failed: %d", code)
	}
}

// TestCoalescing blocks a custom cacheable route and piles concurrent
// identical requests onto it: exactly one computation must run, the rest
// share its result and count as coalesced.
func TestCoalescing(t *testing.T) {
	reg := telemetry.New()
	// Coalesced waiters each hold a worker slot while they block on the
	// shared computation, so the pool must fit every client at once.
	s, ts, _ := newTestServer(t, Options{
		Registry:       reg,
		Workers:        16,
		RequestTimeout: 30 * time.Second,
	})

	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // unblock handlers even if an assertion fails
	var computations atomic.Int64
	s.route("GET /v1/testblock", "testblock", true,
		func(g *graph.Graph, gen *generation, r *http.Request) (any, error) {
			computations.Add(1)
			<-release
			return map[string]int{"n": g.NumVertices()}, nil
		})

	const clients = 4
	key := "testblock|1|/v1/testblock?"
	var wg sync.WaitGroup
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/testblock")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
		}(i)
	}

	// Wait until clients-1 callers have piggybacked on the in-flight
	// computation, then let it finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waiters(key) != clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters coalesced onto %q", s.flight.waiters(key), key)
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce()
	wg.Wait()

	if got := computations.Load(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
	if got := reg.Counter("serve_coalesced_total").Value(); got != clients-1 {
		t.Fatalf("serve_coalesced_total = %d, want %d", got, clients-1)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("coalesced bodies differ: %q vs %q", bodies[i], bodies[0])
		}
	}
}

// TestHotReload swaps the snapshot file for a bigger graph and verifies
// the generation bump, the new topology, and cache invalidation.
func TestHotReload(t *testing.T) {
	reg := telemetry.New()
	s, ts, path := newTestServer(t, Options{Registry: reg})

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Generation != 1 || st.Vertices != 6 {
		t.Fatalf("initial stats = %+v", st)
	}

	// Rewrite the snapshot with a different graph and reload.
	bigger := graph.FromTri(&sparse.Tri{
		I: []uint32{0, 1, 2},
		J: []uint32{1, 2, 3},
		W: []uint32{1, 1, 1},
	}, 9)
	if err := gstore.WriteFile(path, bigger); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}

	// The cached generation-1 stats must not resurface.
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Generation != 2 || st.Vertices != 9 {
		t.Fatalf("post-reload stats = %+v, want generation 2 / 9 vertices", st)
	}
	if got := reg.Counter("serve_reloads_total").Value(); got != 2 { // initial load + reload
		t.Fatalf("serve_reloads_total = %d, want 2", got)
	}
}

// TestFailedReloadKeepsServing corrupts the snapshot on disk: Reload
// must fail typed, count the failure, and leave generation 1 serving.
// Restoring the bytes (XOR is an involution) makes reload work again.
func TestFailedReloadKeepsServing(t *testing.T) {
	reg := telemetry.New()
	s, ts, path := newTestServer(t, Options{Registry: reg})

	if err := faultinject.CorruptFile(path, -4, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("reload of a corrupt snapshot succeeded")
	}
	if got := reg.Counter("serve_reload_failures_total").Value(); got != 1 {
		t.Fatalf("serve_reload_failures_total = %d, want 1", got)
	}

	// The old generation still answers correctly.
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats after failed reload: %d", code)
	}
	if st.Generation != 1 || st.Vertices != 6 {
		t.Fatalf("stats after failed reload = %+v, want generation 1 intact", st)
	}

	// Un-corrupt and reload: back in business on generation 2.
	if err := faultinject.CorruptFile(path, -4, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("reload after restore: %v", err)
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Generation != 2 {
		t.Fatalf("generation after recovery = %d, want 2", st.Generation)
	}
}

// TestDrainOldGeneration pins generation 1 across a reload: the old
// snapshot must stay usable until the pin is released, then close.
func TestDrainOldGeneration(t *testing.T) {
	s, _, path := newTestServer(t, Options{})

	g1, gen1, releaseFn := s.Acquire()
	if gen1 != 1 {
		t.Fatalf("pinned generation = %d, want 1", gen1)
	}
	old := s.cur.Load()

	if err := gstore.WriteFile(path, testGraph()); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}

	// Superseded but pinned: refcount > 0 and the graph still reads.
	if refs := old.refs.Load(); refs != 1 {
		t.Fatalf("old generation refs = %d, want 1 (our pin)", refs)
	}
	if n := g1.NumVertices(); n != 6 {
		t.Fatalf("pinned graph read %d vertices, want 6", n)
	}

	releaseFn()
	releaseFn() // release is idempotent
	if refs := old.refs.Load(); refs != 0 {
		t.Fatalf("old generation refs after release = %d, want 0", refs)
	}
}

// TestSaturation fills the single worker slot with a blocked request;
// the next request must time out waiting for the semaphore and get 503.
func TestSaturation(t *testing.T) {
	reg := telemetry.New()
	s, ts, _ := newTestServer(t, Options{
		Registry:       reg,
		Workers:        1,
		RequestTimeout: 150 * time.Millisecond,
	})

	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // unblock the holder even if an assertion fails
	entered := make(chan struct{})
	var once sync.Once
	s.route("GET /v1/testhold", "testhold", false,
		func(g *graph.Graph, gen *generation, r *http.Request) (any, error) {
			once.Do(func() { close(entered) })
			<-release
			return map[string]bool{"ok": true}, nil
		})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/testhold")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the only worker slot is now held

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status = %d, want 503", resp.StatusCode)
	}
	if got := reg.Counter("serve_saturated_total").Value(); got == 0 {
		t.Fatal("serve_saturated_total not incremented")
	}
	releaseOnce()
	<-done
}

// TestWatchLoopReloads exercises the mtime watcher end to end.
func TestWatchLoopReloads(t *testing.T) {
	s, _, path := newTestServer(t, Options{WatchInterval: 5 * time.Millisecond})
	if err := gstore.WriteFile(path, testGraph()); err != nil {
		t.Fatal(err)
	}
	// Force a visible mtime change regardless of filesystem granularity.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never reloaded; generation = %d", s.Generation())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchLoopCatchesSameMtimePublishes is the reload-race regression
// test: two generations published back-to-back can land with identical
// mtime (filesystem timestamp granularity) and identical size — only
// the inode differs, because rename-based publishing always creates a
// fresh file. A watcher that compares mtime alone skips the second
// generation forever; the file-signature watcher must pick up both,
// with a monotonically increasing generation number.
func TestWatchLoopCatchesSameMtimePublishes(t *testing.T) {
	s, _, path := newTestServer(t, Options{WatchInterval: 2 * time.Millisecond})
	fix := time.Now().Add(-time.Minute).Truncate(time.Second)

	// publish mimics gstore.Publisher's atomic rename, pinning the mtime
	// so back-to-back generations are stat-identical except for inode.
	publish := func(g *graph.Graph) {
		t.Helper()
		tmp := path + ".next"
		if err := gstore.WriteFile(tmp, g); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(tmp, fix, fix); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	waitGen := func(min uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.Generation() < min {
			if time.Now().After(deadline) {
				t.Fatalf("watcher stuck at generation %d, want >= %d", s.Generation(), min)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	publish(testGraph())
	waitGen(2)
	// Identical bytes (deterministic write → same size), identical
	// forced mtime, fresh inode: the historical skip case.
	publish(testGraph())
	waitGen(3)
}

// TestNewRejectsMissingSnapshot is the constructor's fail-closed path.
func TestNewRejectsMissingSnapshot(t *testing.T) {
	_, err := New(filepath.Join(t.TempDir(), "absent.gsnap"), Options{Registry: telemetry.New()})
	if err == nil {
		t.Fatal("New succeeded on a missing snapshot")
	}
}

func ExampleServer() {
	// Build a snapshot, serve it, query it: the minimal end-to-end loop.
	dir, _ := os.MkdirTemp("", "netserve-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "net.gsnap")
	_ = gstore.WriteFile(path, testGraph())
	s, _ := New(path, Options{Registry: telemetry.New()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/degree/2")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var d DegreeResponse
	_ = json.NewDecoder(resp.Body).Decode(&d)
	fmt.Printf("vertex %d: degree %d, strength %d\n", d.ID, d.Degree, d.Strength)
	// Output: vertex 2: degree 3, strength 14
}
