package experiments

// The cluster batch queue behind T3's queue rows: the paper's Section V
// split the synthesis into "several smaller jobs of 64 processes",
// because those "are generally processed more quickly in the queue than
// one large job of 1024 processes".
//
// The simulator is event-driven over a fixed pool of process slots and
// schedules with EASY backfill, the standard policy on production
// clusters like the Blues machine used in the paper: jobs start in
// submission order, and a later job may start early only if it cannot
// delay the reservation of the queue head.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Telemetry series for the batch-queue simulator.
var (
	mQueueJobs        = telemetry.C("batch_jobs_total")
	mQueueSimulations = telemetry.C("batch_simulations_total")
	mQueueSimSeconds  = telemetry.H("batch_simulate_seconds")
)

// queueJob is one batch submission.
type queueJob struct {
	// ID identifies the job in results.
	ID int
	// Procs is the number of process slots required.
	Procs int
	// Duration is the run time once started.
	Duration float64
	// Submit is the submission time.
	Submit float64
}

// queueResult records when a job started and finished.
type queueResult struct {
	queueJob
	Start, Finish float64
}

// simulateQueue runs the queue until every job completes and returns
// results in the order of the input jobs. It returns an error if any job
// needs more slots than the cluster has. Cancelling ctx aborts the event
// loop between events with an error wrapping context.Canceled.
func simulateQueue(ctx context.Context, slots int, jobs []queueJob) ([]queueResult, error) {
	sw := telemetry.Clock()
	if slots <= 0 {
		return nil, fmt.Errorf("batch: cluster must have positive slots")
	}
	for _, j := range jobs {
		if j.Procs <= 0 || j.Procs > slots {
			return nil, fmt.Errorf("batch: job %d needs %d of %d slots", j.ID, j.Procs, slots)
		}
		if j.Duration < 0 || j.Submit < 0 {
			return nil, fmt.Errorf("batch: job %d has negative duration or submit time", j.ID)
		}
	}

	// Pending jobs ordered by submission (stable for ties).
	pending := make([]queueJob, len(jobs))
	copy(pending, jobs)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Submit < pending[j].Submit })

	type running struct {
		job    queueJob
		finish float64
	}
	var queue []queueJob // submitted, not yet started, in submission order
	var active []running
	free := slots
	now := 0.0
	results := make(map[int]queueResult, len(jobs))

	finishSmallest := func() float64 {
		min := -1.0
		for _, r := range active {
			if min < 0 || r.finish < min {
				min = r.finish
			}
		}
		return min
	}

	start := func(j queueJob) {
		free -= j.Procs
		active = append(active, running{job: j, finish: now + j.Duration})
		results[j.ID] = queueResult{queueJob: j, Start: now, Finish: now + j.Duration}
	}

	// tryStart launches every queued job EASY backfill allows at `now`.
	tryStart := func() {
		for len(queue) > 0 && queue[0].Procs <= free {
			start(queue[0])
			queue = queue[1:]
		}
		if len(queue) == 0 {
			return
		}
		// Compute the head's reservation.
		head := queue[0]
		fins := make([]running, len(active))
		copy(fins, active)
		sort.Slice(fins, func(i, j int) bool { return fins[i].finish < fins[j].finish })
		avail := free
		shadow := now
		for _, r := range fins {
			if avail >= head.Procs {
				break
			}
			avail += r.job.Procs
			shadow = r.finish
		}
		// Slots left over at the shadow time after the head starts.
		extra := avail - head.Procs
		for i := 1; i < len(queue); {
			j := queue[i]
			if j.Procs <= free && (now+j.Duration <= shadow || j.Procs <= extra) {
				if j.Procs <= extra {
					extra -= j.Procs
				}
				start(j)
				queue = append(queue[:i], queue[i+1:]...)
				continue
			}
			i++
		}
	}

	for len(pending) > 0 || len(queue) > 0 || len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("batch: simulation canceled at t=%g: %w", now, err)
		}
		// Advance to the next event: a submission or a completion.
		next := -1.0
		if len(pending) > 0 {
			next = pending[0].Submit
		}
		if f := finishSmallest(); f >= 0 && (next < 0 || f < next) {
			next = f
		}
		if next < now {
			next = now
		}
		now = next

		// Process completions at `now`.
		kept := active[:0]
		for _, r := range active {
			if r.finish <= now {
				free += r.job.Procs
			} else {
				kept = append(kept, r)
			}
		}
		active = kept

		// Process submissions at `now`.
		for len(pending) > 0 && pending[0].Submit <= now {
			queue = append(queue, pending[0])
			pending = pending[1:]
		}

		tryStart()
	}

	out := make([]queueResult, len(jobs))
	for i, j := range jobs {
		out[i] = results[j.ID]
	}
	sw.Observe(mQueueSimSeconds)
	mQueueSimulations.Inc()
	mQueueJobs.Add(int64(len(jobs)))
	return out, nil
}

// makespan returns the latest finish time among the results with the
// given IDs (all results when ids is nil).
func makespan(results []queueResult, ids map[int]bool) float64 {
	max := 0.0
	for _, r := range results {
		if ids != nil && !ids[r.ID] {
			continue
		}
		if r.Finish > max {
			max = r.Finish
		}
	}
	return max
}
