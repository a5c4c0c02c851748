package experiments

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestQueueValidation(t *testing.T) {
	if _, err := simulateQueue(context.Background(), 0, nil); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := simulateQueue(context.Background(), 10, []queueJob{{ID: 1, Procs: 11, Duration: 1}}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := simulateQueue(context.Background(), 10, []queueJob{{ID: 1, Procs: 0, Duration: 1}}); err == nil {
		t.Error("zero-proc job accepted")
	}
	if _, err := simulateQueue(context.Background(), 10, []queueJob{{ID: 1, Procs: 1, Duration: -1}}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestSingleJobRunsImmediately(t *testing.T) {
	res, err := simulateQueue(context.Background(), 16, []queueJob{{ID: 1, Procs: 8, Duration: 5, Submit: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Start != 2 || res[0].Finish != 7 {
		t.Fatalf("result = %+v", res[0])
	}
}

func TestJobsShareClusterConcurrently(t *testing.T) {
	jobs := []queueJob{
		{ID: 1, Procs: 8, Duration: 10},
		{ID: 2, Procs: 8, Duration: 10},
	}
	res, err := simulateQueue(context.Background(), 16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Start != 0 || res[1].Start != 0 {
		t.Fatalf("both jobs should start at 0: %+v", res)
	}
}

func TestBackfillFillsIdleSlots(t *testing.T) {
	// A big head waits for slots; backfill lets the tiny job run in the
	// idle ones because it finishes before the head's reservation at
	// t=10.
	jobs := []queueJob{
		{ID: 1, Procs: 12, Duration: 10, Submit: 0},
		{ID: 2, Procs: 16, Duration: 5, Submit: 1},
		{ID: 3, Procs: 2, Duration: 1, Submit: 2},
	}
	res, err := simulateQueue(context.Background(), 16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Start != 2 {
		t.Fatalf("job 3 start = %v, want 2 (backfilled)", res[2].Start)
	}
	// And the head must not be delayed.
	if res[1].Start != 10 {
		t.Fatalf("head delayed by backfill: start = %v", res[1].Start)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// A long backfill candidate that would overlap the head's
	// reservation must NOT start.
	jobs := []queueJob{
		{ID: 1, Procs: 12, Duration: 10, Submit: 0},
		{ID: 2, Procs: 16, Duration: 5, Submit: 1},
		{ID: 3, Procs: 6, Duration: 50, Submit: 2},
	}
	res, err := simulateQueue(context.Background(), 16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Start != 10 {
		t.Fatalf("head start = %v, want 10", res[1].Start)
	}
	if res[2].Start < 15 {
		t.Fatalf("long job backfilled at %v and would delay head", res[2].Start)
	}
}

func TestNoOverlapExceedsSlots(t *testing.T) {
	r := rng.New(9)
	var jobs []queueJob
	for i := 0; i < 60; i++ {
		jobs = append(jobs, queueJob{
			ID:       i,
			Procs:    1 + r.Intn(16),
			Duration: float64(1 + r.Intn(20)),
			Submit:   float64(r.Intn(50)),
		})
	}
	res, err := simulateQueue(context.Background(), 16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Check capacity at every start event.
	for _, probe := range res {
		used := 0
		for _, r2 := range res {
			if r2.Start <= probe.Start && probe.Start < r2.Finish {
				used += r2.Procs
			}
		}
		if used > 16 {
			t.Fatalf("%d slots used at t=%v", used, probe.Start)
		}
	}
}

func TestSmallBatchesBeatOneBigJob(t *testing.T) {
	// The paper's scenario: a busy cluster (steady background of small
	// jobs) plus our workload, submitted either as 16 jobs of 64 procs
	// or one job of 1024 procs. Small jobs thread through the backfill
	// holes; the big job must drain the whole machine.
	r := rng.New(42)
	const slots = 1024
	var background []queueJob
	for i := 0; i < 300; i++ {
		background = append(background, queueJob{
			ID:       1000 + i,
			Procs:    16 * (1 + r.Intn(8)),
			Duration: float64(10 + r.Intn(50)),
			Submit:   float64(r.Intn(400)),
		})
	}
	ours := map[int]bool{}

	// Variant A: 16 × 64 procs, 30 min each.
	var small []queueJob
	for i := 0; i < 16; i++ {
		small = append(small, queueJob{ID: i, Procs: 64, Duration: 30, Submit: 100})
		ours[i] = true
	}
	resA, err := simulateQueue(context.Background(), slots, append(append([]queueJob{}, background...), small...))
	if err != nil {
		t.Fatal(err)
	}
	makespanA := makespan(resA, ours)

	// Variant B: 1 × 1024 procs, 30 min.
	big := []queueJob{{ID: 0, Procs: 1024, Duration: 30, Submit: 100}}
	resB, err := simulateQueue(context.Background(), slots, append(append([]queueJob{}, background...), big...))
	if err != nil {
		t.Fatal(err)
	}
	makespanB := makespan(resB, map[int]bool{0: true})

	if makespanA >= makespanB {
		t.Fatalf("16×64 makespan %v not better than 1×1024 %v", makespanA, makespanB)
	}
}

func TestMakespanHelper(t *testing.T) {
	res := []queueResult{
		{queueJob: queueJob{ID: 1, Submit: 0}, Start: 2, Finish: 10},
		{queueJob: queueJob{ID: 2, Submit: 1}, Start: 5, Finish: 20},
	}
	if makespan(res, nil) != 20 {
		t.Fatal("makespan wrong")
	}
	if makespan(res, map[int]bool{1: true}) != 10 {
		t.Fatal("filtered makespan wrong")
	}
}

// Property: every job eventually runs, starts at/after submission, and
// conservation holds (finish = start + duration).
func TestQuickAllJobsComplete(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var jobs []queueJob
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			jobs = append(jobs, queueJob{
				ID:       i,
				Procs:    1 + r.Intn(32),
				Duration: float64(r.Intn(30)),
				Submit:   float64(r.Intn(100)),
			})
		}
		res, err := simulateQueue(context.Background(), 32, jobs)
		if err != nil || len(res) != n {
			return false
		}
		for i, rr := range res {
			if rr.ID != jobs[i].ID {
				return false
			}
			if rr.Start < rr.Submit {
				return false
			}
			if rr.Finish != rr.Start+rr.Duration {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueCanceled: a canceled context aborts the event loop with an
// error wrapping context.Canceled.
func TestQueueCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := simulateQueue(ctx, 16, []queueJob{{ID: 1, Procs: 8, Duration: 5}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMakespanEdgeCases: empty result sets, empty (non-nil) filters, and
// filters matching nothing.
func TestMakespanEdgeCases(t *testing.T) {
	res := []queueResult{
		{queueJob: queueJob{ID: 1, Submit: 0}, Start: 2, Finish: 10},
		{queueJob: queueJob{ID: 2, Submit: 1}, Start: 5, Finish: 20},
	}
	if makespan(nil, nil) != 0 {
		t.Fatal("makespan of no results should be 0")
	}
	// A non-nil empty filter means "none of them", not "all of them".
	if makespan(res, map[int]bool{}) != 0 {
		t.Fatal("empty filter should select nothing")
	}
	// Filter naming only absent ids.
	if makespan(res, map[int]bool{99: true}) != 0 {
		t.Fatal("filter matching nothing should yield 0")
	}
	// A filter entry explicitly set false is excluded too.
	if makespan(res, map[int]bool{1: false, 2: true}) != 20 {
		t.Fatal("false filter entries must not match")
	}
}

// countdownCtx cancels after its Err method has been consulted n times,
// letting the test abort simulateQueue partway through the event loop
// rather than before it starts.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// TestQueueCanceledMidGrid: cancellation between events aborts with
// context.Canceled.
func TestQueueCanceledMidGrid(t *testing.T) {
	jobs := make([]queueJob, 50)
	for i := range jobs {
		jobs[i] = queueJob{ID: i, Procs: 2, Duration: float64(i%7 + 1), Submit: float64(i)}
	}
	ctx := &countdownCtx{Context: context.Background(), remaining: 10}
	_, err := simulateQueue(ctx, 4, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same workload with an honest context completes.
	res, err := simulateQueue(context.Background(), 4, jobs)
	if err != nil || len(res) != len(jobs) {
		t.Fatalf("uncancelled run failed: %v", err)
	}
}
