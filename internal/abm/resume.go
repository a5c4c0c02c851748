// Crash recovery for simulation ranks.
//
// A killed run leaves each rank's event log without a footer and with up
// to one cache-worth of entries missing from its tail. ResumeRank turns
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
//     loop at StartHour = M. Agent state at hour M-1 is reconstructed
//     from the deterministic schedule generator, so the rerun regenerates
//     exactly the trimmed-and-lost entries — no duplicates, no gaps — and
//     the finished logs are bit-equivalent in content to an uninterrupted
//     run.
//
// A canceled run produces logs that end cleanly at an hour boundary;
// ResumeRank continues them with zero dropped entries.
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

// ResumeReport describes what ResumeRank salvaged and where it resumed.
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

// Resume continues a crashed or canceled multi-goroutine run
// previously started by Run with the same Config (including LogDir,
// which must still hold the per-rank logs). It returns the aggregate
// result of the continued run plus one salvage report per rank.
func Resume(ctx context.Context, cfg Config) (*Result, []*ResumeReport, error) {
	return run(ctx, cfg, true)
}

// ResumeRank continues a crashed or canceled simulation rank.
// It must be called collectively: every rank of the transport enters
// ResumeRank with identical Pop/Gen/Days/Assign (as for RunRank) and its
// own LogPath. See the package comment of this file for the protocol.
// Cancellation semantics match RunRank: a canceled ctx stops the rerun
// at the next hour boundary with resumable logs.
func ResumeRank(ctx context.Context, t mpi.Transport, cfg RankConfig) (RankResult, *ResumeReport, error) {
	var rr RankResult
	if err := ctx.Err(); err != nil {
		return rr, nil, fmt.Errorf("abm: resume canceled before start: %w", err)
	}
	if cfg.LogPath == "" {
		return rr, nil, fmt.Errorf("abm: ResumeRank requires a LogPath")
	}
	if cfg.FullStateLog {
		return rr, nil, fmt.Errorf("abm: ResumeRank does not support FullStateLog")
	}
	if cfg.Logger != nil || cfg.StartHour != 0 {
		return rr, nil, fmt.Errorf("abm: ResumeRank computes Logger and StartHour itself")
	}
	if cfg.Days <= 0 {
		return rr, nil, fmt.Errorf("abm: Days must be positive")
	}
	endHour := uint32(cfg.Days * schedule.HoursPerDay)

	// Step 1: local salvage scan (read-only). Any failure — missing
	// file, torn header, wrong schema — degrades to "nothing salvaged",
	// which forces a global restart rather than an inconsistent resume.
	var localMax uint32
	if info, err := eventlog.Inspect(cfg.LogPath); err == nil {
		localMax = info.MaxStop
	}
	if localMax > endHour {
		return rr, nil, fmt.Errorf("abm: log %s reaches hour %d, beyond the configured %d-hour run", cfg.LogPath, localMax, endHour)
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
	// RunRank observes the cancellation at its first hourly alignment.
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
		logger, err = eventlog.Create(cfg.LogPath, cfg.Log)
		if err != nil {
			return rr, report, err
		}
	} else {
		lg, info, err := eventlog.ResumeBefore(cfg.LogPath, cfg.Log, func(e eventlog.Entry, _ []uint32) bool {
			return e.Stop >= m
		})
		if err != nil {
			return rr, report, err
		}
		logger = lg
		report.RecoveredEntries = info.RecoveredEntries
		report.DroppedEntries = info.DroppedEntries
	}

	cfg.Logger = logger
	cfg.StartHour = m
	rr, err = RunRank(ctx, t, cfg)
	if err == nil && !report.Restarted {
		mRecovered.Inc()
	}
	return rr, report, err
}
