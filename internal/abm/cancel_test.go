package abm

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/schedule"
)

// TestRunCanceledBeforeStart: a pre-canceled context is rejected before
// any simulation work, with an error wrapping context.Canceled.
func TestRunCanceledBeforeStart(t *testing.T) {
	f := newResumeFixture(t, 61, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{
		Pop: f.pop, Gen: f.gen, Ranks: f.ranks, Days: f.days, Assign: f.assign,
		LogDir: t.TempDir(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCanceledMidRunIsResumable is the tentpole's simulation-side
// acceptance test: cancelling the context mid-run stops every rank at
// the next hour boundary, leaves logs with valid footers, returns an
// error wrapping context.Canceled — and a later Resume finishes the run
// with logs bit-identical to an uninterrupted one.
func TestRunCanceledMidRunIsResumable(t *testing.T) {
	f := newResumeFixture(t, 62, 3, 2)
	ref := f.reference(t)

	// The interaction hook fires during the simulated hours, so
	// cancelling from it is guaranteed to land mid-run: rank 0 pulls
	// the trigger partway through day 1.
	cancelHour := uint32(30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logDir := t.TempDir()
	cfg := Config{
		Pop: f.pop, Gen: f.gen, Ranks: f.ranks, Days: f.days, Assign: f.assign,
		LogDir: logDir,
		Log:    eventlog.Config{CacheEntries: 64},
		Interact: func(rank int, hour, place uint32, occupants []uint32) {
			if hour >= cancelHour {
				cancel()
			}
		},
	}
	_, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run err = %v, want context.Canceled", err)
	}

	// Every rank's log must have a valid footer: an interrupted run is
	// a stopped run, not a corrupted one.
	endHour := uint32(f.days * schedule.HoursPerDay)
	for r := 0; r < f.ranks; r++ {
		path := filepath.Join(logDir, fmt.Sprintf("rank%04d.h5l", r))
		rd, err := eventlog.Open(path)
		if err != nil {
			t.Fatalf("rank %d log after cancel: %v", r, err)
		}
		rd.Close()
	}

	// Resuming with a healthy context completes the run and the logs
	// match the uninterrupted reference bit for bit.
	cfg.Interact = nil
	res, reports, err := Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Restarted {
		t.Fatal("resume restarted from scratch; the canceled run should have left a usable prefix")
	}
	// The boundary is the minimum over ranks of the last completed
	// stay, so it can trail the cancel hour — but it must be strictly
	// inside the run for the cancellation to have preserved progress.
	if reports[0].StartHour == 0 || reports[0].StartHour >= endHour {
		t.Fatalf("resume boundary %d, want in (0, %d)", reports[0].StartHour, endHour)
	}
	for r, rr := range res.PerRank {
		if rr.StoppedAt != endHour {
			t.Fatalf("resumed rank %d stopped at %d, want %d", r, rr.StoppedAt, endHour)
		}
	}
	got := make([]string, f.ranks)
	for r := range got {
		got[r] = filepath.Join(logDir, fmt.Sprintf("rank%04d.h5l", r))
	}
	expectSameLogs(t, ref, got)
}
