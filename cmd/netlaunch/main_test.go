package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/supervise"
)

// TestRankCommandLines pins what each rank process of both phases is
// started with, with the observe plane and a round timeout on.
func TestRankCommandLines(t *testing.T) {
	obs := newObserver("w", 2, time.Second)
	sim := simArgs{Persons: 2000, Days: 2, Ranks: 2, Seed: 7, RoundTimeout: time.Minute}
	got := map[string][]string{}
	add := func(phase string, specs []supervise.Spec) {
		for r, s := range specs {
			if s.Rank != r {
				t.Errorf("%s spec %d is for rank %d", phase, r, s.Rank)
			}
			got[fmt.Sprintf("%s %s %d", phase, s.Path, r)] = s.Args
		}
	}
	add("first", simSpecs("chisim", "w/logs", "w/sim.addr", sim, obs, 0))
	sim.HourDelay = 20 * time.Millisecond
	add("relaunch", simSpecs("chisim", "w/logs", "w/sim.addr", sim, obs, 1))
	add("synth", synthSpecs("netsynth", "w/synth.addr", []string{"a.h5l", "b.h5l"}, synthArgs{
		T0: 0, T1: 48, Ranks: 2, Out: "w/n.tsv", Snapshot: "w/n.gsnap",
		RoundTimeout: time.Minute, ReportPath: "w/r.json",
	}, obs))
	want := map[string][]string{
		"first chisim 0": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank0.addr
			-dist-host 127.0.0.1:0 -dist-addr-file w/sim.addr -dist-round-timeout 1m0s`),
		"first chisim 1": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank1.addr
			-dist-join @w/sim.addr -dist-rank 1`),
		"relaunch chisim 0": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs -hour-delay 20ms -resume
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank0.addr
			-dist-host 127.0.0.1:0 -dist-addr-file w/sim.addr -dist-round-timeout 1m0s`),
		"relaunch chisim 1": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs -hour-delay 20ms -resume
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank1.addr
			-dist-join @w/sim.addr -dist-rank 1`),
		"synth netsynth 0": strings.Fields(`-t0 0 -t1 48
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank0.addr
			-dist-host 127.0.0.1:0 -dist-addr-file w/synth.addr -dist-round-timeout 1m0s
			-dist-size 2 -o w/n.tsv -snapshot w/n.gsnap -report w/r.json a.h5l b.h5l`),
		"synth netsynth 1": strings.Fields(`-t0 0 -t1 48
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank1.addr
			-dist-join @w/synth.addr -dist-rank 1 a.h5l b.h5l`),
	}
	for k, w := range want {
		if !reflect.DeepEqual(got[k], w) {
			t.Errorf("%s: %q\nwant %q", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d command lines, want %d", len(got), len(want))
	}
}
