package netserve

import (
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// benchServer boots a server over an indexed v2 snapshot of a ~20k
// vertex scale-free-ish graph — big enough that any accidental O(V) or
// O(deg log deg) work per request would show, small enough to build in
// milliseconds.
func benchServer(b *testing.B) *Server {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	var es []sparse.Entry
	const n = 20000
	for v := uint32(1); v < n; v++ {
		// Preferential-attachment flavor: bias endpoints toward low IDs.
		for e := 0; e < 4; e++ {
			u := uint32(rng.Intn(int(v)))
			if u == v {
				continue
			}
			es = append(es, sparse.Entry{I: u, J: v, W: uint32(rng.Intn(500) + 1)})
		}
	}
	g := graph.FromTri(sparse.Coalesce(1, es), n)
	path := filepath.Join(b.TempDir(), "bench.gsnap")
	if err := gstore.WriteFileIndexed(path, g, gstore.IndexOptions{}); err != nil {
		b.Fatal(err)
	}
	s, err := New(path, Options{Registry: telemetry.New()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// benchEncode measures one hot endpoint's full render path — request
// parse, index lookup, pooled-buffer JSON — exactly as the serve fast
// path runs it. ReportAllocs is the regression gate: these must stay
// at 0 allocs/op (scripts/check.sh enforces a small ceiling).
func benchEncode(b *testing.B, target, pathID string, enc encodeFunc) {
	s := benchServer(b)
	gen := s.acquire()
	defer gen.unref()
	g := gen.snap.Graph()
	r, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		b.Fatal(err)
	}
	if pathID != "" {
		r.SetPathValue("id", pathID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := getBuf()
		buf, encErr := enc(gen, g, r, bp.b[:0])
		if encErr != nil {
			b.Fatal(encErr)
		}
		buf = append(buf, '\n')
		putBuf(bp, buf)
	}
}

func BenchmarkServeHotStats(b *testing.B) {
	benchEncode(b, "/v1/stats", "", encodeStats)
}

func BenchmarkServeHotDegree(b *testing.B) {
	benchEncode(b, "/v1/degree/123", "123", encodeDegree)
}

func BenchmarkServeHotNeighbors(b *testing.B) {
	benchEncode(b, "/v1/neighbors/123?limit=32", "123", encodeNeighbors)
}

func BenchmarkServeHotClustering(b *testing.B) {
	benchEncode(b, "/v1/clustering/123", "123", encodeClustering)
}

func BenchmarkServeHotDegreeDist(b *testing.B) {
	benchEncode(b, "/v1/degree-dist", "", encodeDegreeDist)
}

// BenchmarkServeHotHTTP measures the same endpoints through the full
// HTTP mux (still in-process, no sockets) for context. The HTTP layer
// itself allocates; the per-endpoint figures above isolate our code.
func BenchmarkServeHotHTTP(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	reqs := make([]*http.Request, 0, 4)
	for _, target := range []string{
		"/v1/stats", "/v1/degree/123", "/v1/neighbors/123?limit=32", "/v1/clustering/123",
	} {
		r, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	w := nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
}

type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopResponseWriter) WriteHeader(int)             {}

// BenchmarkWriteError keeps the error path honest too: rendering a 400
// must not allocate beyond the error value itself.
func BenchmarkWriteError(b *testing.B) {
	s := benchServer(b)
	err := badRequest("bad vertex %q", "zzz")
	w := nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.writeError(w, nil, err)
	}
}
