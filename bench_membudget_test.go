package repro

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/sparse"
)

// membudgetWorkload writes a log set whose materialized entry volume is
// large (places × persons × sessions entries) while the resulting
// network stays small (each place contributes one fixed clique), so the
// budgeted path's memory advantage is visible: the unbudgeted run must
// hold every entry, the budgeted one only a shard at a time.
func membudgetWorkload(tb testing.TB, dir string, places, persons, sessions int) []string {
	tb.Helper()
	const files = 4
	paths := make([]string, files)
	loggers := make([]*eventlog.Logger, files)
	for f := range paths {
		paths[f] = filepath.Join(dir, fmt.Sprintf("w%d.h5l", f))
		l, err := eventlog.Create(paths[f], eventlog.Config{CacheEntries: 4096})
		if err != nil {
			tb.Fatal(err)
		}
		loggers[f] = l
	}
	person := uint32(0)
	for p := 0; p < places; p++ {
		l := loggers[p%files]
		for q := 0; q < persons; q++ {
			for s := 0; s < sessions; s++ {
				e := eventlog.Entry{
					Start:  uint32(2 * s),
					Stop:   uint32(2*s + 1),
					Person: person,
					Place:  uint32(p),
				}
				if err := l.Log(e); err != nil {
					tb.Fatal(err)
				}
			}
			person++
		}
	}
	for _, l := range loggers {
		if err := l.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	return paths
}

// heapWatcher samples runtime.MemStats.HeapAlloc until stopped and
// reports the high-water mark observed.
type heapWatcher struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapWatcher() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{})}
	w.sample()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *heapWatcher) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		cur := w.peak.Load()
		if ms.HeapAlloc <= cur || w.peak.CompareAndSwap(cur, ms.HeapAlloc) {
			return
		}
	}
}

func (w *heapWatcher) Stop() uint64 {
	close(w.stop)
	w.wg.Wait()
	w.sample()
	return w.peak.Load()
}

// BenchmarkT4MemBudget measures the budgeted (place-sharded spill)
// synthesis against the unbudgeted in-memory path on a workload whose
// entry volume is several times the budget. Reported metrics:
//
//	peak-heap-B   runtime.MemStats HeapAlloc high-water during the run
//	budget-B      the configured MemBudgetBytes (0 = unlimited)
//	shards        place shards the budgeted run spilled into
//
// The acceptance bar is peak-heap-B ≤ 2 × budget-B for the budgeted
// case, and the benchmark fails itself when it is missed.
func BenchmarkT4MemBudget(b *testing.B) {
	dir := b.TempDir()
	// 2000 places × 10 persons × 50 sessions = 1M entries ≈ 20 MB
	// materialized, but only 2000 × C(10,2) = 90k edges.
	paths := membudgetWorkload(b, dir, 2000, 10, 50)
	const budget = int64(8 << 20)

	var ref *sparse.Tri
	for _, bc := range []struct {
		name   string
		budget int64
	}{
		{"unbudgeted", 0},
		{"budgeted", budget},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := core.Config{MemBudgetBytes: bc.budget, SpillDir: dir}
			var shards int
			runtime.GC()
			w := startHeapWatcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tri, stats, err := core.SynthesizeFiles(context.Background(), paths, 0, 100, cfg)
				if err != nil {
					b.Fatal(err)
				}
				shards = stats.Shards
				if ref == nil {
					ref = tri
				} else if !tri.Equal(ref) {
					b.Fatal("budgeted output differs from unbudgeted reference")
				}
			}
			b.StopTimer()
			peak := w.Stop()
			b.ReportMetric(float64(peak), "peak-heap-B")
			b.ReportMetric(float64(bc.budget), "budget-B")
			b.ReportMetric(float64(shards), "shards")
			if bc.budget > 0 {
				if shards < 2 {
					b.Fatalf("budget %d produced %d shards, want >= 2", bc.budget, shards)
				}
				if peak > 2*uint64(bc.budget) {
					b.Fatalf("peak heap %d B exceeds 2x budget (%d B)", peak, 2*bc.budget)
				}
			}
		})
	}
}
