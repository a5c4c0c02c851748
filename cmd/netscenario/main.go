// Command netscenario runs scenario sweeps offline — the same
// internal/scenario engine netserve exposes over POST /v1/scenario, but
// driven from the command line against a snapshot file. Because both
// paths execute the identical deterministic runner, a sweep's outcome
// digest must agree between HTTP and CLI execution at any -slots value;
// check.sh asserts exactly that.
//
// Usage:
//
//	netscenario -snapshot net.gsnap -spec sweep.json -slots 8 -out result.json
//	netscenario -snapshot net.gsnap -spec - < sweep.json
//
// The last line on stdout is always "digest <hex>" — the sha256 of the
// aggregated outcome, the handle scripts use to compare runs. A SIGINT
// or SIGTERM cancels the sweep (exit 2).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/cmdrun"
	"repro/internal/gstore"
	"repro/internal/scenario"
)

func main() {
	snapshot := flag.String("snapshot", "", "snapshot (.gsnap) or TSV edge list to run against")
	specPath := flag.String("spec", "", "scenario spec JSON file ('-' = stdin)")
	slots := flag.Int("slots", runtime.NumCPU(), "concurrent replications")
	out := flag.String("out", "", "write the full result JSON here (default stdout summary only)")
	flag.Parse()

	cmdrun.Main("netscenario", func(ctx context.Context) error {
		return run(ctx, *snapshot, *specPath, *slots, *out)
	})
}

func run(ctx context.Context, snapshot, specPath string, slots int, out string) error {
	if snapshot == "" || specPath == "" {
		return errors.New("usage: netscenario -snapshot net.gsnap -spec sweep.json")
	}
	var raw []byte
	var err error
	if specPath == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(specPath)
	}
	if err != nil {
		return err
	}
	var spec scenario.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing spec: %w", err)
	}

	snap, err := gstore.LoadGraphFile(snapshot, 0)
	if err != nil {
		return err
	}
	defer snap.Close()

	res, err := scenario.Run(ctx, snap.Graph(), spec, scenario.Config{Slots: slots})
	if err != nil {
		return err
	}
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%s sweep: %d jobs, %d steps in %.3fs (%.0f steps/s) over %d vertices\n",
		res.Outcome.Process, res.Jobs, res.StepsRun, res.WallSeconds, res.StepsPerSec,
		res.Outcome.Vertices)
	fmt.Printf("digest %s\n", res.Digest)
	return nil
}
