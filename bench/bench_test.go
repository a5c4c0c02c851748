package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// exactCounts are the per-layer counts that must repeat exactly on two
// runs of the same seed and shape.
var exactCounts = []string{
	"abm.migrations", "eventlog.entries", "eventlog.log_bytes",
	"core.work_units", "core.splits", "core.shards", "core.spilled_bytes",
	"core.peak_buffered", "gstore.snapshot_bytes", "scenario.steps_run",
}

// readDeclaration loads the BENCHMARK.json that declares this benchmark.
func readDeclaration(t *testing.T) declaration {
	t.Helper()
	var d declaration
	if err := readJSON("../BENCHMARK.json", &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesTables holds BENCHMARK.json to the names and
// units the code prints.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q (or their reasons differ)", i, d.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if d.EndToEnd[i].Name != m.Name || d.EndToEnd[i].Unit != m.Unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], code %s [%s]", i, d.EndToEnd[i].Name, d.EndToEnd[i].Unit, m.Name, m.Unit)
		}
	}
	for i, m := range perLayer {
		if d.PerLayer[i].Name != m.Name || d.PerLayer[i].Unit != m.Unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, d.PerLayer[i].Name, d.PerLayer[i].Unit, m.Name, m.Unit)
		}
	}
}

// checkSpanTree asserts the span file is well-formed: ids are positions,
// children lie inside their parents, self times are not negative, and
// under every root the self times add up to the root's wall.
func checkSpanTree(t *testing.T, path string) []span {
	t.Helper()
	var spans []span
	if err := readJSON(path, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	self := selfTimes(spans)
	root := make([]int, len(spans))
	perRoot := map[int]int64{}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start || s.Parent >= i {
			t.Fatalf("%s: span %d malformed: %+v", path, i, s)
		}
		root[i] = i
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %s [%d,%d] outside its parent %s [%d,%d]", path, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			root[i] = root[s.Parent]
		}
		if self[i] < 0 {
			t.Errorf("%s: span %d %s has self time %d", path, i, s.Name, self[i])
		}
		perRoot[root[i]] += self[i]
	}
	for r, sum := range perRoot {
		// Children of one parent overlap only on the serve workload's
		// roots, which have none that do; elsewhere the sum is exact.
		if wall := spans[r].dur(); math.Abs(float64(sum-wall)) > 0.05*float64(wall) {
			t.Errorf("%s: self times under root %d %s add up to %d ns, its wall is %d ns", path, r, spans[r].Name, sum, wall)
		}
	}
	return spans
}

// TestSmoke runs every workload at the tiny shape, untraced and twice
// traced, and checks what BENCHMARK.json promises about the output.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	dir := t.TempDir()
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := options{Workload: w.Name, Seed: 7, Seconds: 0.2, Shape: "tiny",
				Out: filepath.Join(dir, "run.json"), WorkDir: filepath.Join(dir, "work")}
			run := func(trace int) *runRecord {
				o.Trace = trace
				rec, err := runOne(o, false)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
					t.Fatalf("trace %d: attempted %d, failed %d", trace, rec.Attempted, rec.Failed)
				}
				return rec
			}

			rec := run(0)
			if len(rec.Metrics) != len(d.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json declares %d", len(rec.Metrics), len(d.EndToEnd))
			}
			for _, m := range d.EndToEnd {
				v, ok := rec.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s = %+v (present %v): want a finite value above 0 in %s", m.Name, v, ok, m.Unit)
				}
			}

			first, second := run(1), run(1)
			if len(first.Metrics) != len(d.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json declares %d", len(first.Metrics), len(d.PerLayer))
			}
			for _, m := range d.PerLayer {
				v, ok := first.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s = %+v (present %v): want a finite value in %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s: %v on one run, %v on the next", name, a, b)
				}
			}

			spans := checkSpanTree(t, filepath.Join(dir, "trace-"+w.Name+".json"))
			shares := layerShares(spans)
			var sum float64
			for _, s := range shares {
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("layer shares add up to %v: %v", sum, shares)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.synth", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "eventlog.read", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "gstore.bake", Start: 50, End: 90}, // overlaps span 1 by 10
		{ID: 4, Parent: -1, Name: "probe.gstore_index", Start: 100, End: 140},
	}
	want := []int64{20, 40, 10, 40, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d: got %d, want %d", i, got[i], want[i])
		}
	}
	shares := layerShares(spans)
	if shares["probe"] != 0 || math.Abs(shares["core"]-40.0/110) > 1e-12 {
		t.Errorf("shares %v: want no probe share and core = 40/110", shares)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles: got %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two: got %v, %v, want 0.75, 2.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median: got %v, want 2.5", m)
	}
}

// TestCompareVerdicts feeds -compare a steady set, a worse set and a
// scattered set.
func TestCompareVerdicts(t *testing.T) {
	d := readDeclaration(t)
	dir := t.TempDir()
	write := func(name string, scale func(run int) float64, failed int64) string {
		var rs resultSet
		for _, w := range d.Workloads {
			for run := 0; run < 5; run++ {
				rec := runRecord{Workload: w.Name, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
				for _, m := range d.EndToEnd {
					v := 100 * scale(run)
					if m.Better == "higher" {
						v = 100 / scale(run)
					}
					rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				rs.Runs = append(rs.Runs, rec)
			}
		}
		blob, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("steady.json", func(run int) float64 { return 1 + 0.002*float64(run) }, 0)
	slower := write("slower.json", func(run int) float64 { return 1.5 + 0.002*float64(run) }, 0)
	scattered := write("scattered.json", func(run int) float64 { return 0.6 + 0.2*float64(run) }, 0)
	failing := write("failing.json", func(run int) float64 { return 1 + 0.002*float64(run) }, 1)

	if worse, unresolved, err := compare("../BENCHMARK.json", steady, steady); err != nil || worse != 0 || unresolved != 0 {
		t.Errorf("steady against itself: %d worse, %d unresolved, %v", worse, unresolved, err)
	}
	rows := len(d.Workloads) * len(d.EndToEnd)
	if worse, _, err := compare("../BENCHMARK.json", steady, slower); err != nil || worse != rows {
		t.Errorf("steady against slower: %d worse (want %d), %v", worse, rows, err)
	}
	if worse, _, err := compare("../BENCHMARK.json", slower, steady); err != nil || worse != 0 {
		t.Errorf("slower against steady: %d worse (want 0), %v", worse, err)
	}
	if _, unresolved, err := compare("../BENCHMARK.json", steady, scattered); err != nil || unresolved == 0 {
		t.Errorf("steady against scattered: %d unresolved (want some), %v", unresolved, err)
	}
	if worse, _, err := compare("../BENCHMARK.json", steady, failing); err != nil || worse != len(d.Workloads) {
		t.Errorf("steady against failing: %d worse (want %d, one fail_ratio row a workload), %v", worse, len(d.Workloads), err)
	}
}
