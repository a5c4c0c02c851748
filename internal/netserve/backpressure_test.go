package netserve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// TestRetryAfterOnSaturation mounts the hardened handler, saturates the
// single worker slot, and checks the 503 rejection carries a
// Retry-After hint so clients back off.
func TestRetryAfterOnSaturation(t *testing.T) {
	s, _, _ := newTestServer(t, Options{
		Registry:       telemetry.New(),
		Workers:        1,
		RequestTimeout: 150 * time.Millisecond,
	})
	ts := httptest.NewServer(s.HardenedHandler())
	defer ts.Close()

	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	entered := make(chan struct{})
	var once sync.Once
	s.route("GET /v1/testhold", "testhold",
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
	<-entered

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer ≥ 1", ra)
	}
	releaseOnce()
	<-done
}

// TestRetryAfterNotOnSuccess: the header must only ride on 503s.
func TestRetryAfterNotOnSuccess(t *testing.T) {
	s, _, _ := newTestServer(t, Options{Registry: telemetry.New()})
	ts := httptest.NewServer(s.HardenedHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("success response carries Retry-After %q", ra)
	}
}

// TestTimeoutBackstopWedgedHandler proves the http.TimeoutHandler layer
// catches a handler that ignores its context entirely: the client gets
// a prompt 503 with Retry-After instead of a hung connection.
func TestTimeoutBackstopWedgedHandler(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	wedged := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // never honors r.Context()
	})
	ts := httptest.NewServer(WithBackpressure(wedged, 100*time.Millisecond, time.Second))
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged handler: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backstop 503 without Retry-After header")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backstop took %v, want ≲ timeout + grace", elapsed)
	}
}
