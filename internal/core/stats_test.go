package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestStatsDegenerateRuns pins the edge-case semantics of the imbalance
// metrics: runs with no workers, zero work units, or a single worker
// must report well-defined numbers — never NaN or Inf from a 0/0.
func TestStatsDegenerateRuns(t *testing.T) {
	cases := []struct {
		name  string
		stats Stats
		idle  float64
		imb   float64
	}{
		{
			name:  "zero value (no workers at all)",
			stats: Stats{},
			idle:  0,
			imb:   0,
		},
		{
			name: "workers but zero work units",
			stats: Stats{
				WorkerCost: []int{0, 0, 0},
				WorkerBusy: []time.Duration{0, 0, 0},
			},
			idle: 0,
			imb:  0,
		},
		{
			name: "single worker",
			stats: Stats{
				WorkerCost: []int{40},
				WorkerBusy: []time.Duration{time.Millisecond},
			},
			idle: 0,
			imb:  1,
		},
		{
			name: "perfectly balanced pair",
			stats: Stats{
				WorkerCost: []int{10, 10},
				WorkerBusy: []time.Duration{time.Millisecond, time.Millisecond},
			},
			idle: 0,
			imb:  1,
		},
		{
			name: "skewed pair",
			stats: Stats{
				WorkerCost: []int{30, 10},
				WorkerBusy: []time.Duration{3 * time.Millisecond, time.Millisecond},
			},
			idle: 1.0 / 3.0,
			imb:  1.5,
		},
		{
			name: "one worker idle the whole stage",
			stats: Stats{
				WorkerCost: []int{20, 0},
				WorkerBusy: []time.Duration{2 * time.Millisecond, 0},
			},
			idle: 0.5,
			imb:  2,
		},
	}
	const eps = 1e-12
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.stats.IdleFraction()
			if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-c.idle) > eps {
				t.Errorf("IdleFraction = %v, want %v", got, c.idle)
			}
			got = c.stats.CostImbalance()
			if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-c.imb) > eps {
				t.Errorf("CostImbalance = %v, want %v", got, c.imb)
			}
		})
	}
}

func TestStatsStageReports(t *testing.T) {
	var nilStats *Stats
	if got := nilStats.StageReports(); got != nil {
		t.Fatalf("nil Stats produced stage reports: %+v", got)
	}
	s := &Stats{
		Entries:      42,
		TotalNNZ:     99,
		Pairs:        123,
		WorkUnits:    7,
		Shards:       2,
		SpilledBytes: 4096,
		Load:         time.Millisecond,
		Build:        2 * time.Millisecond,
		Gram:         3 * time.Millisecond,
		Reduce:       4 * time.Millisecond,
		Spill:        5 * time.Millisecond,
	}
	reps := s.StageReports()
	want := []telemetry.StageReport{
		{Name: "synth/load", WallNs: int64(time.Millisecond), Count: 42},
		{Name: "synth/build", WallNs: int64(2 * time.Millisecond), Count: 99},
		{Name: "synth/gram", WallNs: int64(3 * time.Millisecond), Count: 7},
		{Name: "synth/reduce", WallNs: int64(4 * time.Millisecond), Count: 123},
		{Name: "synth/spill", WallNs: int64(5 * time.Millisecond), Count: 2, Bytes: 4096},
	}
	if len(reps) != len(want) {
		t.Fatalf("got %d stage reports, want %d", len(reps), len(want))
	}
	for i := range want {
		if reps[i] != want[i] {
			t.Errorf("stage %d: got %+v, want %+v", i, reps[i], want[i])
		}
	}
}

func TestStatsRankReport(t *testing.T) {
	s := &Stats{
		Entries:   10,
		Places:    3,
		WorkUnits: 4,
		Splits:    1,
		Load:      time.Millisecond,
		Gram:      2 * time.Millisecond,
	}
	rr := s.RankReport(2, 10*time.Millisecond, time.Millisecond)
	if rr.Rank != 2 || rr.Entries != 10 || rr.Places != 3 || rr.WorkUnits != 4 || rr.Splits != 1 {
		t.Fatalf("rank report counters wrong: %+v", rr)
	}
	if rr.BusyNs != int64(3*time.Millisecond) {
		t.Fatalf("BusyNs = %d, want %d", rr.BusyNs, int64(3*time.Millisecond))
	}
	if rr.CommNs != int64(time.Millisecond) {
		t.Fatalf("CommNs = %d", rr.CommNs)
	}
	if rr.IdleNs != int64(6*time.Millisecond) {
		t.Fatalf("IdleNs = %d, want %d", rr.IdleNs, int64(6*time.Millisecond))
	}

	// Busy exceeding wall (parallel stages) clamps idle at zero.
	rr = s.RankReport(0, time.Millisecond, 0)
	if rr.IdleNs != 0 {
		t.Fatalf("clamped IdleNs = %d, want 0", rr.IdleNs)
	}

	// A nil Stats (rank without files) reports pure comm/idle.
	var nilStats *Stats
	rr = nilStats.RankReport(1, 4*time.Millisecond, time.Millisecond)
	if rr.BusyNs != 0 || rr.Entries != 0 {
		t.Fatalf("nil Stats rank report has work: %+v", rr)
	}
	if rr.IdleNs != int64(3*time.Millisecond) {
		t.Fatalf("nil Stats IdleNs = %d", rr.IdleNs)
	}
}
