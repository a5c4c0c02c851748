package abm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/schedule"
	"repro/internal/synthpop"
)

// goldenDigests are the sha256 of each rank file's ordered entry stream
// (20 little-endian bytes per entry, in file order) for the fixed run
// below: 2 000 persons, 3 days, population and schedule seed 2017, the
// default spatial assignment. They were recorded from the scan-and-sort
// hour loop that predates the stop-hour agenda (commit ab97eaa), so the
// agenda loop is checked against values another implementation produced,
// not only against a second path through itself. Any change to entry
// content, to the within-hour person order, to the close-out order or to
// the default assignment moves them.
var goldenDigests = map[int][]string{
	1: {
		"e49739d84ca7b40b219b3bf9902a22e7493f1ba3f1316e042ecd3377f626b40b",
	},
	2: {
		"e4c448c7880f2cea480b8c06e2b2c6ab2532057635bef28889def950c5656a99",
		"dbb0bfd0cd11087408f0bee275dbeb651218a603699fd0f4f2f0630d3a3c8aef",
	},
	4: {
		"67c5cdd70cafcdf142793740674e58bab5fb70e145626bd3eb22ccf750a6557a",
		"d235be983177f7448750c43851dd71b1bd36a6d89a0ffadbf10add481349680e",
		"bfdf82648d91167b9c153c3df36ad556e4c222bf53157c2876f60d4635ff5474",
		"af0c067a0aa8f446c297771289423e105bbbd3184b45930a10b1bc290615dcd6",
	},
}

func goldenConfig(t *testing.T, ranks int) Config {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: 2000, Seed: 2017})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Pop: pop, Gen: schedule.NewGenerator(pop, 2017), Ranks: ranks, Days: 3,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 512},
	}
}

// streamDigest hashes one log's entries in the order they were written.
func streamDigest(t *testing.T, path string) string {
	t.Helper()
	h := sha256.New()
	for _, le := range readLog(t, path) {
		// Five uint32 fields: 20 little-endian bytes, the on-disk record.
		if err := binary.Write(h, binary.LittleEndian, le.e); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func expectGolden(t *testing.T, ranks int, paths []string) {
	t.Helper()
	want := goldenDigests[ranks]
	if len(paths) != len(want) {
		t.Fatalf("%d log files for %d golden digests", len(paths), len(want))
	}
	for r, p := range paths {
		if got := streamDigest(t, p); got != want[r] {
			t.Errorf("ranks=%d rank %d: ordered entry stream digest %s, golden %s", ranks, r, got, want[r])
		}
	}
}

func TestGoldenEntryStreams(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		res, err := Run(context.Background(), goldenConfig(t, ranks))
		if err != nil {
			t.Fatal(err)
		}
		expectGolden(t, ranks, res.LogPaths)
	}
}

func TestGoldenFlushEvery(t *testing.T) {
	cfg := goldenConfig(t, 2)
	cfg.FlushEvery = 6
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	expectGolden(t, 2, res.LogPaths)
}

func TestGoldenStopThenResume(t *testing.T) {
	cfg := goldenConfig(t, 4)
	stop := make(chan struct{})
	var once sync.Once
	cfg.Stop = stop
	cfg.LogExt = func(_ uint32, stopHour uint32) []uint32 {
		if stopHour >= 30 {
			once.Do(func() { close(stop) })
		}
		return nil
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedAt < 30 || res.StoppedAt >= 72 {
		t.Fatalf("stopped at hour %d, want within [30, 72)", res.StoppedAt)
	}
	cfg.Stop, cfg.LogExt = nil, nil
	res, _, err = Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	expectGolden(t, 4, res.LogPaths)
}

func TestGoldenCancelThenResume(t *testing.T) {
	cfg := goldenConfig(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Interact = func(_ int, hour, _ uint32, _ []uint32) {
		if hour >= 40 {
			cancel()
		}
	}
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run err = %v, want context.Canceled", err)
	}
	cfg.Interact = nil
	res, reports, err := Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].StartHour == 0 || reports[0].StartHour >= 72 {
		t.Fatalf("resume boundary %d, want in (0, 72)", reports[0].StartHour)
	}
	expectGolden(t, 2, res.LogPaths)
}
