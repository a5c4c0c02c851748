// Command bench is the repository's one sim→serve benchmark. It runs one
// workload per process:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// builds it and prints, as the last line of standard output, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) that BENCHMARK.json declares. Without --workload it runs
// every workload both ways and writes the set to -out; -compare A B
// judges two such sets. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command's flags.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    int
	Shape    string
	Out      string
	Runs     int
	Compare  bool
	WorkDir  string
	child    string
}

func parseFlags(args []string) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "run this workload alone and print its result line (default: all of them, into -out)")
	fs.Uint64Var(&o.Seed, "seed", 2017, "seed of the synthetic city and of the query draws")
	fs.Float64Var(&o.Seconds, "seconds", 10, "how long a workload's timed region measures")
	fs.IntVar(&o.Trace, "trace", 0, "1: record spans around every layer call and print the per-layer metrics")
	fs.StringVar(&o.Shape, "shape", "20k", "problem size: 20k, or tiny for the smoke test")
	fs.StringVar(&o.Out, "out", "bench/out/run.json", "result set written when every workload runs; traces go beside it")
	fs.IntVar(&o.Runs, "runs", 1, "untraced runs per workload when every workload runs")
	fs.BoolVar(&o.Compare, "compare", false, "compare two result sets: -compare A.json B.json")
	fs.StringVar(&o.WorkDir, "workdir", ".bench_build/work", "where set-up builds logs and snapshots; removed afterwards")
	fs.StringVar(&o.child, "child", "", "internal: run the timed region over this set-up directory")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if _, ok := shapes[o.Shape]; !ok {
		return o, nil, fmt.Errorf("unknown shape %q", o.Shape)
	}
	if o.Seconds <= 0 || (o.Trace != 0 && o.Trace != 1) || o.Runs < 1 {
		return o, nil, errors.New("want -seconds > 0, -trace 0 or 1, -runs >= 1")
	}
	return o, fs.Args(), nil
}

func main() {
	o, rest, err := parseFlags(os.Args[1:])
	if err == nil {
		switch {
		case o.Compare:
			err = compareCmd(rest)
		case o.child != "":
			err = childMain(o)
		case o.Workload == "":
			err = runAll(o)
		default:
			_, err = runOne(o, true)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) env(dir string) *env {
	return &env{
		ctx: context.Background(), shape: shapes[o.Shape], seed: o.Seed, seconds: o.Seconds,
		par: min(runtime.NumCPU(), 2), dir: dir, rep: newReport(),
	}
}

// timedRegion runs the workload's timed region and checks over what
// set-up left in dir, and writes the spans out when it traced.
func timedRegion(o options, w workload, dir string) (*report, error) {
	e := o.env(dir)
	if o.Trace == 1 {
		e.rec = newRecorder()
	}
	if err := w.run(e); err != nil {
		return nil, err
	}
	if e.rec != nil {
		traceFile := filepath.Join(filepath.Dir(o.Out), "trace-"+w.Name+".json")
		if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
			return nil, err
		}
		if err := e.rec.writeFile(traceFile); err != nil {
			return nil, err
		}
	}
	return e.rep, nil
}

// childMain is the fresh process of a run: its report goes to the parent
// as one JSON document on standard output.
func childMain(o options) error {
	w, _ := findWorkload(o.Workload)
	rep, err := timedRegion(o, w, o.child)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runRecord is one run as the result sets keep it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
}

// runOne runs one workload: set-up in this process (three times on the
// untraced run, whose median is setup_s), then the timed region — in a
// fresh child process when fork is set, so that the peak resident set is
// the timed region's own. It prints every metric by name and, last, the
// result line.
func runOne(o options, fork bool) (*runRecord, error) {
	w, ok := findWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	base, err := filepath.Abs(filepath.Join(o.WorkDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	setups := 3
	if o.Trace == 1 {
		setups = 1 // setup_s is an end-to-end metric
	}
	var setupS []float64
	var dir string
	for i := 0; i < setups; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(base, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(o.env(dir)); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var rep *report
	if fork {
		rep, err = forkChild(o, dir)
	} else {
		rep, err = timedRegion(o, w, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.set("setup_s", median(setupS), len(setupS))

	rec := &runRecord{
		Workload: w.Name, Seed: o.Seed, Trace: o.Trace, Seconds: o.Seconds,
		Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
	}
	defs := endToEnd
	if o.Trace == 1 {
		defs = perLayer
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	fmt.Printf("%s seed=%d trace=%d shape=%s attempted=%d failed=%d fail_ratio=%g\n",
		w.Name, o.Seed, o.Trace, o.Shape, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: rep.Values[d.Name], Unit: d.Unit}
		rec.Samples[d.Name] = rep.Samples[d.Name]
		fmt.Printf("  %-34s %16.6g %-6s n=%d\n", d.Name, rep.Values[d.Name], d.Unit, rep.Samples[d.Name])
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rec, nil
}

func forkChild(o options, dir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", dir, "-workload", o.Workload, "-seed", fmt.Sprint(o.Seed),
		"-seconds", fmt.Sprint(o.Seconds), "-trace", fmt.Sprint(o.Trace), "-shape", o.Shape, "-out", o.Out)
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("timed region: %w", err)
	}
	rep := newReport()
	if err := json.Unmarshal(blob, rep); err != nil {
		return nil, fmt.Errorf("timed region's report: %w", err)
	}
	return rep, nil
}
