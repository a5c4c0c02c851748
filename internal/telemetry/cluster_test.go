package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSnapshotEndpoint checks that /snapshot serves the registry's
// serializable form: a JSON Snapshot that decodes back to exactly what
// Registry.Snapshot returns, exact bucket counts included. This is the
// contract cmd/netlaunch's scrape loop depends on.
func TestSnapshotEndpoint(t *testing.T) {
	r := New()
	r.Counter("obs_entries_total").Add(42)
	r.Gauge("obs_depth").Set(-7)
	h := r.Histogram("obs_round_seconds")
	h.Observe(3 * time.Millisecond)
	h.Observe(90 * time.Millisecond)
	h.Observe(2 * time.Hour) // overflow bucket

	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/snapshot content type %q", ct)
	}
	var got Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r.Snapshot()) {
		t.Fatalf("decoded /snapshot differs from Registry.Snapshot:\n got %+v\nwant %+v",
			got, r.Snapshot())
	}
	if got.Histograms["obs_round_seconds"].BucketCounts[NumBuckets] != 1 {
		t.Fatal("overflow observation lost in the wire snapshot")
	}
}

// TestPrometheusLabelEscaping pins the text-format escaping rules for
// label values: backslash, double quote and newline must be escaped,
// everything else passed through.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("esc_total").Add(1)
	var b strings.Builder
	err := WriteSnapshotPrometheus(&b, r.Snapshot(), []Label{
		{Name: "rank", Value: `back\slash "quote"` + "\nnewline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `esc_total{rank="back\\slash \"quote\"\nnewline"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample missing:\nwant %s\ngot  %s", want, b.String())
	}
	// The cheap path: a clean value must come through verbatim.
	if got := escapeLabelValue("rank-3"); got != "rank-3" {
		t.Fatalf("clean value mangled: %q", got)
	}
}

// TestDebugVarsSnapshot checks /debug/vars carries the registry
// snapshot under the "telemetry" key with live values.
func TestDebugVarsSnapshot(t *testing.T) {
	r := New()
	r.Counter("vars_probe_total").Add(5)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Telemetry Snapshot `json:"telemetry"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	// expvar publishing is process-global and bound to the first registry
	// that served; accept either that registry's counter or ours, but the
	// key itself must decode as a Snapshot.
	if vars.Telemetry.Counters == nil {
		t.Fatalf("/debug/vars %q key missing or not a snapshot:\n%s", "telemetry", body)
	}
}

// TestWriteClusterPrometheus checks the merged exposition: one # TYPE
// line per metric name, every snapshot's sample present under its own
// labels, names in lexical order.
func TestWriteClusterPrometheus(t *testing.T) {
	mk := func(rank string, entries int64) LabeledSnapshot {
		r := New()
		r.Counter("synth_entries_total").Add(entries)
		r.Histogram("round_seconds").Observe(time.Duration(entries) * time.Millisecond)
		return LabeledSnapshot{
			Labels: []Label{{Name: "rank", Value: rank}},
			Snap:   r.Snapshot(),
		}
	}
	var b strings.Builder
	if err := WriteClusterPrometheus(&b, []LabeledSnapshot{mk("0", 10), mk("1", 20)}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# TYPE synth_entries_total counter"); n != 1 {
		t.Fatalf("want exactly one TYPE line per name, got %d:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE round_seconds histogram"); n != 1 {
		t.Fatalf("want exactly one histogram TYPE line, got %d:\n%s", n, out)
	}
	for _, want := range []string{
		`synth_entries_total{rank="0"} 10`,
		`synth_entries_total{rank="1"} 20`,
		`round_seconds_count{rank="0"} 1`,
		`round_seconds_count{rank="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged exposition missing %q:\n%s", want, out)
		}
	}
	// Prometheus rejects interleaved TYPE blocks: both ranks' counter
	// samples must sit inside the counter's own TYPE block.
	block := out[strings.Index(out, "# TYPE synth_entries_total"):]
	if i := strings.Index(block[1:], "# TYPE"); i >= 0 {
		block = block[:i+1]
	}
	if !strings.Contains(block, `{rank="0"}`) || !strings.Contains(block, `{rank="1"}`) {
		t.Fatalf("counter samples interleave across TYPE blocks:\n%s", out)
	}
}
