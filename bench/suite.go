package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/telemetry"
)

// resultSet is what a run of every workload writes to -out, and what
// -compare reads: provenance, then every run made.
type resultSet struct {
	Meta struct {
		telemetry.BenchMeta
		GitCommit string  `json:"git_commit"`
		GitDirty  bool    `json:"git_dirty"`
		Seed      uint64  `json:"seed"`
		Seconds   float64 `json:"seconds"`
		Shape     shape   `json:"shape"`
		Par       int     `json:"ranks_workers_slots_connections"`
		Repeats   int     `json:"untraced_runs_per_workload"`
	} `json:"meta"`
	Runs []runRecord `json:"runs"`
	// TraceOverhead is, per workload, the traced run's op median over the
	// untraced runs' median of op_p50_ms.
	TraceOverhead map[string]float64 `json:"trace_overhead_ratio"`
}

// gitState asks git which commit the working directory has checked out
// and whether the tree is dirty; telemetry.BenchMeta has no field for it
// yet. Outside a git checkout the commit is "unknown".
func gitState() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(status) > 0
}

// values returns the metric's values over the set's untraced runs of w.
func (rs *resultSet) values(w, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == w && r.Trace == 0 {
			out = append(out, r.Metrics[metric].Value)
		}
	}
	return out
}

// failRatio is failed ÷ attempted over all of w's runs.
func (rs *resultSet) failRatio(w string) float64 {
	var failed, attempted int64
	for _, r := range rs.Runs {
		if r.Workload == w {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// runAll runs every workload, -runs times untraced and once traced, and
// writes the set.
func runAll(o options) error {
	var rs resultSet
	rs.Meta.BenchMeta = telemetry.NewBenchMeta("bench", map[string]string{
		"seed": fmt.Sprint(o.Seed), "seconds": fmt.Sprint(o.Seconds), "shape": o.Shape, "runs": fmt.Sprint(o.Runs),
	})
	rs.Meta.GitCommit, rs.Meta.GitDirty = gitState()
	rs.Meta.Seed, rs.Meta.Seconds, rs.Meta.Shape, rs.Meta.Repeats = o.Seed, o.Seconds, shapes[o.Shape], o.Runs
	rs.Meta.Par = o.env("").par
	rs.TraceOverhead = map[string]float64{}

	for _, w := range workloads {
		one := o
		one.Workload = w.Name
		for run := 0; run <= o.Runs; run++ {
			one.Trace = 0
			if run == o.Runs {
				one.Trace = 1
			}
			rec, err := runOne(one, true)
			if err != nil {
				return err
			}
			rs.Runs = append(rs.Runs, *rec)
		}
		traced := rs.Runs[len(rs.Runs)-1].Metrics["trace.op_p50_ms"].Value
		rs.TraceOverhead[w.Name] = traced / median(rs.values(w.Name, "op_p50_ms"))
		fmt.Printf("  %-34s %16.6g %-6s n=%d\n", "trace_overhead_ratio", rs.TraceOverhead[w.Name], "ratio", o.Runs)
	}

	blob, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.Out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(o.Out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", o.Out)
	for _, w := range workloads {
		if r := rs.failRatio(w.Name); r > 0 {
			return fmt.Errorf("%s: fail_ratio %g", w.Name, r)
		}
	}
	return nil
}

// declaration is the part of BENCHMARK.json that -compare and the smoke
// test read.
type declaration struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareCmd is -compare A.json B.json, judged by the BENCHMARK.json in
// the working directory: it fails on any worse row.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare A.json B.json")
	}
	worse, _, err := compare("BENCHMARK.json", args[0], args[1])
	if err == nil && worse > 0 {
		err = fmt.Errorf("%d rows worse", worse)
	}
	return err
}

// compare prints one row per workload and end-to-end metric: both medians
// and quartiles, B ÷ A, and a verdict against the bound the declaration
// fixes — worse when B's median is worse than A's by more than the bound,
// unresolved when either side's quartiles lie further apart than the
// bound, ok otherwise. A higher fail ratio is a worse row of its own.
func compare(declPath, pathA, pathB string) (worse, unresolved int, err error) {
	var decl declaration
	var a, b resultSet
	if err := errors.Join(readJSON(declPath, &decl), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return 0, 0, err
	}
	fmt.Printf("A = %s (%.8s)  B = %s (%.8s)\n", pathA, a.Meta.GitCommit, pathB, b.Meta.GitCommit)
	fmt.Printf("%-20s %-12s %36s %36s %9s %6s  %s\n", "workload", "metric", "A median [q1,q3] n", "B median [q1,q3] n", "B/A", "bound", "verdict")
	describe := func(xs []float64) (med, spread float64, text string) {
		med = median(xs)
		if len(xs) < 2 {
			return med, 0, fmt.Sprintf("%.5g [n<2] %d", med, len(xs))
		}
		q1, q3 := quartiles(xs)
		return med, (q3 - q1) / med, fmt.Sprintf("%.5g [%.5g,%.5g] %d", med, q1, q3, len(xs))
	}
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			medA, spreadA, textA := describe(a.values(w.Name, m.Name))
			medB, spreadB, textB := describe(b.values(w.Name, m.Name))
			worsening := (medB - medA) / medA
			if m.Better == "higher" {
				worsening = -worsening
			}
			verdict := "ok"
			switch {
			case worsening > m.Bound:
				verdict = "worse"
				worse++
			case max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-20s %-12s %36s %36s %9.4f %6.2f  %s\n", w.Name, m.Name, textA, textB, medB/medA, m.Bound, verdict)
		}
		if fa, fb := a.failRatio(w.Name), b.failRatio(w.Name); fb > fa {
			fmt.Printf("%-20s %-12s %36g %36g %9s %6.2f  %s\n", w.Name, "fail_ratio", fa, fb, "", 0.0, "worse")
			worse++
		}
	}
	return worse, unresolved, nil
}
