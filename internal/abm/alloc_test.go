package abm

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/partition"
)

// hourAllocCeiling bounds the heap allocations of one steady-state
// simulated hour summed over the ranks of a 2-rank in-process run. What is
// left per hour is the transport's own bookkeeping (the in-process
// all-to-all boxes and copies a few slices per rank) and the odd agenda
// slot or send buffer growing past its previous high-water mark; nothing
// is allocated per resident or per mover.
const hourAllocCeiling = 20

// TestSteadyStateHourAllocsDoNotScale measures days 8–14 of a run as the
// difference between a 14-day and a 7-day run (by then every agenda slot
// has seen a whole week of its traffic), at two population sizes against
// the same ceiling: the scan-and-sort loop allocated two objects per mover
// (the day's segments and its rng), ≈11 % of residents every hour.
func TestSteadyStateHourAllocsDoNotScale(t *testing.T) {
	for _, persons := range []int{1000, 8000} {
		pop, gen := testWorld(t, persons)
		assign := partition.Random(pop.NumPlaces(), 2) // fixed: keeps TransitionGraph out of the count
		mallocs := func(days int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(context.Background(), Config{Pop: pop, Gen: gen, Ranks: 2, Days: days, Assign: assign}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		week, fortnight := mallocs(7), mallocs(14)
		perHour := (float64(fortnight) - float64(week)) / (7 * 24)
		t.Logf("%d persons: %.1f allocs per simulated hour in steady state", persons, perHour)
		if perHour > hourAllocCeiling {
			t.Errorf("%d persons: %.1f allocs per simulated hour, ceiling %d", persons, perHour, hourAllocCeiling)
		}
	}
}
