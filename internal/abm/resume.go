// Crash recovery for simulation ranks.
//
// A killed run leaves each rank's event log without a footer and with up
// to one cache-worth of entries missing from its tail. Resuming turns
// that wreckage back into a running simulation:
//
//  1. Each rank salvages its own log (eventlog.Inspect) and finds the
//     largest Stop hour it still has on disk.
//  2. The ranks agree on a global resume boundary M — the MINIMUM of the
//     per-rank maxima — with one tiny Exchange. Entries are written in
//     nondecreasing Stop order and salvage recovers a prefix, so every
//     rank provably holds ALL entries with Stop < M.
//  3. Each rank trims its log back to the boundary
//     (eventlog.ResumeBefore with Stop >= M) and re-enters the hourly
//     loop at hour M. Agent state at hour M-1 is reconstructed
//     from the deterministic schedule generator, so the rerun regenerates
//     exactly the trimmed-and-lost entries — no duplicates, no gaps — and
//     the finished logs are bit-equivalent in content to an uninterrupted
//     run.
//
// A canceled run produces logs that end cleanly at an hour boundary;
// resuming continues them with zero dropped entries.
package abm

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

// mRecovered shares the fault_recovered_total series with the other
// recovery paths (core's distributed retry): any successful salvage of
// a crashed rank's log counts as one recovered fault.
var mRecovered = telemetry.C("fault_recovered_total")

// ResumeReport describes what one rank salvaged and where it resumed.
type ResumeReport struct {
	// StartHour is the agreed global resume boundary M: simulation
	// recommenced at this hour on every rank.
	StartHour uint32
	// LocalMaxStop is the largest Stop hour salvaged from THIS rank's
	// log before the cross-rank agreement.
	LocalMaxStop uint32
	// RecoveredEntries and DroppedEntries are this rank's salvage
	// counts after trimming to the boundary.
	RecoveredEntries uint64
	DroppedEntries   uint64
	// Restarted reports that nothing usable was salvaged anywhere (some
	// rank's log was empty or unreadable) and the run restarted from
	// hour 0 with fresh logs.
	Restarted bool
}

// Resume continues a crashed or canceled run previously started by Run
// with the same Config (including LogDir, which must still hold the
// per-rank logs), on cfg.Ranks goroutine ranks. It returns the
// aggregate result of the continued run plus one salvage report per
// rank.
func Resume(ctx context.Context, cfg Config) (*Result, []*ResumeReport, error) {
	return inProcess(ctx, cfg, true)
}

// ResumeOn is RunOn for a crashed or canceled run: every rank of the
// transport calls it with the Config of the original run, and rank 0
// returns the aggregate Result and every rank's salvage report. See the
// comment at the top of this file for the protocol. Cancellation
// semantics match RunOn.
func ResumeOn(ctx context.Context, t mpi.Transport, cfg Config) (*Result, []*ResumeReport, error) {
	return rankProgram(ctx, t, cfg, true)
}

// resumeRank salvages this rank's log, agrees on the resume hour with
// the other ranks and runs the rank from there.
func resumeRank(ctx context.Context, t mpi.Transport, cfg Config) (RankResult, *ResumeReport, error) {
	var rr RankResult
	if err := ctx.Err(); err != nil {
		return rr, nil, fmt.Errorf("abm: resume canceled before start: %w", err)
	}
	logPath := cfg.logPath(t.Rank())
	if logPath == "" {
		return rr, nil, fmt.Errorf("abm: Resume requires a LogDir")
	}
	if cfg.FullStateLog {
		return rr, nil, fmt.Errorf("abm: Resume does not support FullStateLog")
	}
	endHour := uint32(cfg.Days * schedule.HoursPerDay)

	// Step 1: local salvage scan (read-only). Any failure — missing
	// file, torn header, wrong schema — degrades to "nothing salvaged",
	// which forces a global restart rather than an inconsistent resume.
	var localMax uint32
	if info, err := eventlog.Inspect(logPath); err == nil {
		localMax = info.MaxStop
	}
	if localMax > endHour {
		return rr, nil, fmt.Errorf("abm: log %s reaches hour %d, beyond the configured %d-hour run", logPath, localMax, endHour)
	}

	// Step 2: agree on the boundary M = min over ranks.
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], localMax)
	out := make([][]byte, t.Size())
	for i := range out {
		out[i] = word[:]
	}
	// The boundary agreement must complete collectively even if ctx dies
	// between the entry check above and here, or the ranks would desync;
	// runRank observes the cancellation at its first hourly alignment.
	in, err := t.Exchange(context.WithoutCancel(ctx), out)
	if err != nil {
		return rr, nil, fmt.Errorf("abm: resume boundary agreement: %w", err)
	}
	m := localMax
	for r, b := range in {
		if len(b) < 4 {
			return rr, nil, fmt.Errorf("abm: resume boundary from rank %d: short blob", r)
		}
		if v := binary.LittleEndian.Uint32(b); v < m {
			m = v
		}
	}

	report := &ResumeReport{StartHour: m, LocalMaxStop: localMax}

	// Step 3: trim to the boundary and rerun from there.
	var logger *eventlog.Logger
	if m == 0 {
		// Nothing salvageable somewhere: restart everywhere, truncating
		// whatever partial logs exist.
		report.Restarted = true
		logger, err = eventlog.Create(logPath, cfg.Log)
		if err != nil {
			return rr, report, err
		}
	} else {
		lg, info, err := eventlog.ResumeBefore(logPath, cfg.Log, func(e eventlog.Entry, _ []uint32) bool {
			return e.Stop >= m
		})
		if err != nil {
			return rr, report, err
		}
		logger = lg
		report.RecoveredEntries = info.RecoveredEntries
		report.DroppedEntries = info.DroppedEntries
	}

	rr, err = runRank(ctx, t, cfg, m, logger)
	if err == nil && !report.Restarted {
		mRecovered.Inc()
	}
	return rr, report, err
}
