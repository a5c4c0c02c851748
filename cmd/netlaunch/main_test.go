package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRankCommandLines pins what each rank process of the one gang is
// started with, on the first launch and on a relaunch, with the observe
// plane, a round timeout and rank 0's run report on.
func TestRankCommandLines(t *testing.T) {
	g := &gang{
		bin: "chisim", persons: 2000, days: 2, ranks: 2, seed: 7,
		roundTimeout: time.Minute, logsDir: "w/logs", addrFile: "w/coord.addr",
		out: "w/n.tsv", snapshot: "w/n.gsnap", report: "w/r.json",
		obs: newObserver("w", 2, time.Second), chaos: &chaosKiller{rank: -1},
	}
	got := map[string][]string{}
	add := func(attempt string, n int) {
		for r, s := range g.specs(n) {
			if s.Rank != r {
				t.Errorf("%s spec %d is for rank %d", attempt, r, s.Rank)
			}
			got[fmt.Sprintf("%s %s %d", attempt, s.Path, r)] = s.Args
		}
	}
	add("first", 0)
	g.hourDelay = 20 * time.Millisecond
	add("relaunch", 1)
	want := map[string][]string{
		"first chisim 0": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank0.addr
			-dist-host 127.0.0.1:0 -dist-addr-file w/coord.addr -dist-round-timeout 1m0s
			-o w/n.tsv -snapshot w/n.gsnap -report w/r.json`),
		"first chisim 1": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank1.addr
			-dist-join @w/coord.addr -dist-rank 1`),
		"relaunch chisim 0": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs -hour-delay 20ms -resume
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank0.addr
			-dist-host 127.0.0.1:0 -dist-addr-file w/coord.addr -dist-round-timeout 1m0s
			-o w/n.tsv -snapshot w/n.gsnap -report w/r.json`),
		"relaunch chisim 1": strings.Fields(`-persons 2000 -days 2 -seed 7 -ranks 2 -logdir w/logs -hour-delay 20ms -resume
			-telemetry-addr 127.0.0.1:0 -telemetry-addr-file w/telemetry-rank1.addr
			-dist-join @w/coord.addr -dist-rank 1`),
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
