package netserve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// equivTri is a 500-vertex graph with hubs beyond the top-k budget,
// triangles, chains, and isolated vertices — enough structure that
// every endpoint's top-k page and deep-page sort both get exercised.
// The edge 498–499 makes the highest ID appear in an edge list, so a
// TSV load infers the same vertex space.
func equivTri() *sparse.Tri {
	rng := rand.New(rand.NewSource(42))
	var es []sparse.Entry
	const n = 500
	for v := uint32(1); v < 80; v++ { // hub 0: degree 79 > DefaultTopK
		es = append(es, sparse.Entry{I: 0, J: v, W: uint32(rng.Intn(900) + 1)})
	}
	for v := uint32(1); v < n-20; v++ {
		es = append(es, sparse.Entry{I: v, J: v + 1, W: uint32(rng.Intn(60) + 1)})
	}
	for k := 0; k < 800; k++ {
		i, j := uint32(rng.Intn(n-20)), uint32(rng.Intn(n-20))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		es = append(es, sparse.Entry{I: i, J: j, W: uint32(rng.Intn(100) + 1)})
	}
	es = append(es, sparse.Entry{I: n - 2, J: n - 1, W: 7})
	return sparse.Coalesce(1, es)
}

func equivGraph() *graph.Graph { return graph.FromTri(equivTri(), 500) }

// fetchBody returns status and raw body (trailing newline included).
func fetchBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestLoadTimeBakeEndpointEquivalence runs the same query battery
// against a server loaded from a TSV edge list (no index in the file,
// so one is baked at load) and one loaded from the indexed v2 snapshot
// of the same graph: every response must match byte for byte — same
// JSON, same status codes — except the stats fields that describe the
// file itself.
func TestLoadTimeBakeEndpointEquivalence(t *testing.T) {
	dir := t.TempDir()
	tsvPath := filepath.Join(dir, "net.tsv")
	v2Path := filepath.Join(dir, "v2.gsnap")
	f, err := os.Create(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, equivTri()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := gstore.WriteFileIndexed(v2Path, equivGraph(), gstore.IndexOptions{}); err != nil {
		t.Fatal(err)
	}

	servers := make([]*httptest.Server, 2)
	for i, p := range []string{tsvPath, v2Path} {
		s, err := New(p, Options{Registry: telemetry.New()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		gen := s.cur.Load()
		if gen.idx == nil {
			t.Fatalf("%s: generation serves without an index", p)
		}
		if fileIndexed := gen.snap.Index() != nil; fileIndexed != (i == 1) {
			t.Fatalf("%s: file index present = %v", p, fileIndexed)
		}
		servers[i] = httptest.NewServer(s.Handler())
		t.Cleanup(servers[i].Close)
	}

	var queries []string
	for _, v := range []int{0, 1, 5, 77, 200, 481, 499} { // hub, mid, isolated
		queries = append(queries,
			fmt.Sprintf("/v1/degree/%d", v),
			fmt.Sprintf("/v1/clustering/%d", v),
			fmt.Sprintf("/v1/neighbors/%d", v),
			fmt.Sprintf("/v1/neighbors/%d?limit=32", v),
			fmt.Sprintf("/v1/neighbors/%d?limit=5", v),
			fmt.Sprintf("/v1/neighbors/%d?limit=1000", v), // beyond top-k: fallback
			fmt.Sprintf("/v1/neighbors/%d?offset=3&limit=2", v),
			fmt.Sprintf("/v1/neighbors/%d?offset=100000", v),
			fmt.Sprintf("/v1/ego/%d?radius=1", v),
			fmt.Sprintf("/v1/ego/%d?radius=2", v),
		)
	}
	queries = append(queries,
		"/v1/degree-dist",
		"/v1/path?from=0&to=250",
		"/v1/path?from=0&to=250&weighted=1",
		"/v1/path?from=481&to=0", // isolated: not found
		"/v1/path?from=3&to=3",
		// Error paths must match too.
		"/v1/degree/999999",
		"/v1/degree/bogus",
		"/v1/neighbors/2?limit=0",
		"/v1/neighbors/2?limit=junk",
		"/v1/clustering/-1",
		"/v1/path?from=0",
		"/v1/nope",
	)

	for _, q := range queries {
		c1, b1 := fetchBody(t, servers[0].URL+q)
		c2, b2 := fetchBody(t, servers[1].URL+q)
		if c1 != c2 {
			t.Errorf("%s: status %d (tsv) vs %d (v2)", q, c1, c2)
			continue
		}
		if b1 != b2 {
			t.Errorf("%s: bodies differ\n  tsv: %s  v2: %s", q, b1, b2)
		}
	}

	// Stats: compare everything except the fields tied to the file
	// (path, size, mmap, format version, the file's index sections),
	// the load instant, and the request-time age.
	_, s1 := fetchBody(t, servers[0].URL+"/v1/stats")
	_, s2 := fetchBody(t, servers[1].URL+"/v1/stats")
	var m1, m2 map[string]any
	if err := json.Unmarshal([]byte(s1), &m1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(s2), &m2); err != nil {
		t.Fatal(err)
	}
	if m1["snapshot_version"] != 0.0 || len(m1["index_sections"].([]any)) != 0 {
		t.Errorf("TSV stats report version %v, index sections %v; want 0, []", m1["snapshot_version"], m1["index_sections"])
	}
	for _, volatile := range []string{
		"snapshot_path", "snapshot_bytes", "mapped", "loaded_at",
		"snapshot_version", "index_sections", "published_at", "last_event_hour", "age_s",
	} {
		delete(m1, volatile)
		delete(m2, volatile)
	}
	r1, _ := json.Marshal(m1)
	r2, _ := json.Marshal(m2)
	if string(r1) != string(r2) {
		t.Errorf("stats differ:\n  tsv: %s\n  v2: %s", r1, r2)
	}
}

// TestHotResponsesMatchEncodingJSON re-renders every hot endpoint's
// response through encoding/json from the exported response structs and
// checks the served bytes are identical — the pooled encoder is not
// allowed to drift from the documented schema.
func TestHotResponsesMatchEncodingJSON(t *testing.T) {
	g := equivGraph()
	path := filepath.Join(t.TempDir(), "v2.gsnap")
	if err := gstore.WriteFileIndexed(path, g, gstore.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(path, Options{Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, v := range []uint32{0, 5, 77, 481} {
		_, body := fetchBody(t, fmt.Sprintf("%s/v1/degree/%d", ts.URL, v))
		want, _ := json.Marshal(DegreeResponse{ID: v, Degree: g.Degree(v), Strength: g.Strength(v)})
		if body != string(want)+"\n" {
			t.Errorf("degree/%d: got %q want %q", v, body, want)
		}

		_, body = fetchBody(t, fmt.Sprintf("%s/v1/clustering/%d", ts.URL, v))
		want, _ = json.Marshal(ClusteringResponse{ID: v, Degree: g.Degree(v), Clustering: g.LocalClustering(v)})
		if body != string(want)+"\n" {
			t.Errorf("clustering/%d: got %q want %q", v, body, want)
		}
	}

	_, body := fetchBody(t, ts.URL+"/v1/degree-dist")
	hist := g.DegreeHistogram()
	want, _ := json.Marshal(DegreeDistResponse{
		Vertices: g.NumVertices(), MaxDegree: len(hist) - 1, Histogram: hist,
	})
	if body != string(want)+"\n" {
		t.Errorf("degree-dist: got %q want %q", body, want)
	}

	// Stats: the pre-rendered bytes must parse back into the struct
	// with every field populated the way handleStats used to.
	_, body = fetchBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	roundTrip, _ := json.Marshal(st)
	if body != string(roundTrip)+"\n" {
		t.Errorf("stats: served %q, round-trip %q", body, roundTrip)
	}
	if st.Vertices != g.NumVertices() || st.Edges != g.NumEdges() ||
		st.MaxDegree != g.MaxDegree() || st.SnapshotPath != path {
		t.Errorf("stats fields wrong: %+v", st)
	}
}

// TestAppendStringMatchesJSON drives the encoder's string escaping
// against encoding/json across the tricky cases: HTML escaping,
// control bytes, invalid UTF-8, U+2028/29.
func TestAppendStringMatchesJSON(t *testing.T) {
	cases := []string{
		"", "plain", "/tmp/net.gsnap", `quote " backslash \`,
		"tab\tnewline\ncr\r", "bell\x07null\x00", "<script>&amp;</script>",
		"néé 世界", "line sep ", "bad\xff\xfeutf8",
		strings.Repeat("x", 5000) + "<",
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got := appendString(nil, c)
		if string(got) != string(want) {
			t.Errorf("appendString(%q) = %q, want %q", c, got, want)
		}
	}
}

// TestAppendFloatMatchesJSON pins the float renderer to encoding/json
// across magnitude regimes, including the e-notation cutoffs.
func TestAppendFloatMatchesJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, 1.0 / 3.0, 2.0 / 3.0, 0.1, 3.14159265358979,
		1e-5, 1e-6, 9.999e-7, 1e-7, 1e-21, 5e-324, math.MaxFloat64,
		1e20, 1e21, 1.5e21, -2.5e-8, 0.9999999999999999, 123456789.123456789,
	}
	// Every representable clustering coefficient shape: 2t/(d(d-1)).
	for d := 2; d < 40; d++ {
		for tri := 0; tri <= d*(d-1)/2; tri += 7 {
			cases = append(cases, float64(2*tri)/float64(d*(d-1)))
		}
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := appendFloat(nil, f)
		if string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %q, want %q", f, got, want)
		}
	}
}

// TestWriteErrorNeverEmpty: every error shape — typed, wrapped, nil,
// empty-message — must yield a well-formed non-empty JSON body with
// matching status, in the exact key order json.Marshal used to emit.
func TestWriteErrorNeverEmpty(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	cases := []struct {
		err      error
		wantCode int
		wantBody string
	}{
		{badRequest("bad input %d", 7), 400, `{"error":"bad input 7","status":400}`},
		{notFound("nope"), 404, `{"error":"nope","status":404}`},
		{fmt.Errorf("wrapped: %w", badRequest("inner")), 400, `{"error":"wrapped: inner","status":400}`},
		{fmt.Errorf("plain failure"), 500, `{"error":"plain failure","status":500}`},
		{fmt.Errorf(`quoted "html" <&>`), 500, `{"error":"quoted \"html\" \u003c\u0026\u003e","status":500}`},
		{nil, 500, `{"error":"internal server error","status":500}`},
		{fmt.Errorf(""), 500, `{"error":"internal server error","status":500}`},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.writeError(rec, nil, c.err)
		if rec.Code != c.wantCode {
			t.Errorf("writeError(%v): code %d, want %d", c.err, rec.Code, c.wantCode)
		}
		if got := rec.Body.String(); got != c.wantBody+"\n" {
			t.Errorf("writeError(%v): body %q, want %q", c.err, got, c.wantBody+"\n")
		}
		// The body must also be parseable JSON with both keys.
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Errorf("writeError(%v): invalid JSON %q", c.err, rec.Body.String())
		}
	}
}
