// Package supervise runs a set of rank processes as a supervision tree:
// it spawns each rank of the distributed pipeline as an external OS
// process, watches their exits, and applies a restart policy with
// bounded exponential backoff — the glue that turns mpinet's
// failure-tolerant transport and the eventlog's resumable logs into a
// run that survives kill -9.
//
// Two supervision modes match the two phases of the pipeline:
//
//   - Gang (RunGang): the simulation phase. abm.RunRank is not
//     failure-tolerant — any rank death aborts every survivor promptly
//     with a typed error — but every rank's eventlog keeps a valid
//     footer (or salvageable prefix), so the recovery unit is the whole
//     gang: kill the stragglers, back off, and relaunch every rank with
//     -resume. abm.ResumeRank replays to the canonical per-hour order,
//     making the finished logs bit-identical to an uninterrupted run.
//
//   - Per-rank (RunPerRank): the synthesis phase.
//     core.SynthesizeDistributed re-stripes work over survivors on a
//     rank death and absorbs rejoins, so the recovery unit is the
//     single rank: restart just the dead process, which reclaims its
//     slot via its mpinet claim token. When a rank exhausts its restart
//     budget — or restarts storm — the supervisor stops restarting and
//     lets the cluster degrade gracefully through re-striping; the
//     output is bit-identical either way.
//
// Exit codes are the contract between the supervisor and the rank
// binaries: ExitOK for success, ExitCanceled for a cooperative
// SIGINT/SIGTERM drain (not a failure, never restarted), ExitFailure
// for real failures (restart candidates).
package supervise

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// Exit codes shared by the rank binaries (cmd/chisim, cmd/netsynth) and
// the supervisor's restart policy.
const (
	// ExitOK: the rank completed its work.
	ExitOK = 0
	// ExitFailure: a real failure (I/O error, lost coordinator, bad
	// input). The supervisor may restart the rank.
	ExitFailure = 1
	// ExitCanceled: the rank drained cleanly after SIGINT/SIGTERM.
	// Deliberate, so never restarted.
	ExitCanceled = 2
)

// Telemetry series for the supervision layer.
var (
	mRestarts  = telemetry.C("supervise_restarts_total")
	mStorms    = telemetry.C("supervise_storms_total")
	mDegraded  = telemetry.G("supervise_degraded_ranks")
	mBackoffNs = telemetry.H("supervise_backoff_seconds")
)

// Spec describes one rank process to supervise.
type Spec struct {
	// Rank is the mpinet rank this process claims.
	Rank int
	// Token is the rank claim token (per-rank supervision passes it to
	// the process so a restart reclaims the same slot).
	Token uint64
	// Path is the binary to execute.
	Path string
	// Args are the process arguments (argv[1:]).
	Args []string
	// Stdout/Stderr receive the process output; nil discards. The
	// supervisor wraps them with a "[rank N]" line prefix.
	Stdout, Stderr io.Writer
}

// Policy tunes the restart machinery. Zero values select defaults.
type Policy struct {
	// MaxRestartsPerRank bounds restarts per rank (per-rank mode) or
	// gang relaunches (gang mode). Default 3; negative disables
	// restarts entirely.
	MaxRestartsPerRank int
	// BackoffBase is the first restart delay; each subsequent restart
	// of the same rank doubles it, with full jitter. Default 250ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. Default 5s.
	BackoffCap time.Duration
	// StormWindow and StormThreshold detect restart storms: when
	// StormThreshold restarts (across all ranks) land within
	// StormWindow, the supervisor stops restarting and degrades.
	// Defaults: 30s window, 2×ranks threshold.
	StormWindow    time.Duration
	StormThreshold int
	// Grace is how long a terminated process gets between SIGTERM and
	// SIGKILL. Default 5s.
	Grace time.Duration
	// DrainTimeout bounds how long the supervisor waits for the rest of
	// the gang to exit on its own after a failure (gang mode) or for
	// worker ranks to finish after rank 0 succeeded (per-rank mode)
	// before terminating them. Default 10s.
	DrainTimeout time.Duration
	// Logf receives human-readable supervision events; nil discards.
	Logf func(format string, args ...any)
	// OnStart, when non-nil, is called with (rank, pid) each time a
	// rank process (re)starts — the hook chaos tests use to aim kills.
	OnStart func(rank, pid int)
}

func (p Policy) withDefaults(ranks int) Policy {
	if p.MaxRestartsPerRank == 0 {
		p.MaxRestartsPerRank = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 250 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 5 * time.Second
	}
	if p.StormWindow <= 0 {
		p.StormWindow = 30 * time.Second
	}
	if p.StormThreshold <= 0 {
		p.StormThreshold = 2 * ranks
		if p.StormThreshold < 4 {
			p.StormThreshold = 4
		}
	}
	if p.Grace <= 0 {
		p.Grace = 5 * time.Second
	}
	if p.DrainTimeout <= 0 {
		p.DrainTimeout = 10 * time.Second
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
	return p
}

// backoff returns the delay before restart attempt n (1-based) of one
// rank: exponential from Base, capped at Cap, with full jitter so
// simultaneous restarts don't reconnect in lockstep.
func (p Policy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.BackoffBase
	for i := 1; i < attempt && d < p.BackoffCap; i++ {
		d *= 2
	}
	if d > p.BackoffCap {
		d = p.BackoffCap
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// newReport starts a phase's supervision record — one entry per spec,
// exit code -1 until that rank's first exit — and indexes it by rank.
func (s *Supervisor) newReport(mode string) (*telemetry.SupervisionReport, map[int]*telemetry.SupervisionRank) {
	rep := &telemetry.SupervisionReport{Mode: mode, Ranks: make([]telemetry.SupervisionRank, len(s.specs))}
	byRank := map[int]*telemetry.SupervisionRank{}
	for i, sp := range s.specs {
		rep.Ranks[i] = telemetry.SupervisionRank{Rank: sp.Rank, ExitCode: -1}
		byRank[sp.Rank] = &rep.Ranks[i]
	}
	return rep, byRank
}

// record folds one incarnation's exit into its rank's entry: the peak
// RSS over every incarnation and the latest exit code.
func record(byRank map[int]*telemetry.SupervisionRank, ev exitEvent) *telemetry.SupervisionRank {
	st := byRank[ev.rank]
	if st != nil {
		st.PeakRSSKiB = max(st.PeakRSSKiB, ev.rssKiB)
		st.ExitCode = ev.code
	}
	return st
}

// proc is one running incarnation.
type proc struct {
	cmd  *exec.Cmd
	rank int
}

// exitEvent reports one incarnation's end.
type exitEvent struct {
	rank     int
	code     int // ExitCode(); -1 when signaled
	rssKiB   int64
	signaled bool
}

// Supervisor drives one phase of supervised rank processes.
type Supervisor struct {
	specs []Spec
	pol   Policy
	rng   *rand.Rand

	mu       sync.Mutex
	procs    map[int]*proc // rank → current incarnation
	stopping bool
}

// New builds a Supervisor for the given rank specs.
func New(specs []Spec, pol Policy) *Supervisor {
	return &Supervisor{
		specs: specs,
		pol:   pol.withDefaults(len(specs)),
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
		procs: map[int]*proc{},
	}
}

// lineWriter prefixes each line of a rank's output.
type lineWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	buf    bytes.Buffer
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf.Write(p)
	for {
		line, err := lw.buf.ReadString('\n')
		if err != nil {
			lw.buf.WriteString(line) // incomplete line; keep buffered
			break
		}
		fmt.Fprintf(lw.w, "%s%s", lw.prefix, line)
	}
	return len(p), nil
}

// start launches one incarnation of spec and watches it.
func (s *Supervisor) start(spec Spec, events chan<- exitEvent) error {
	cmd := exec.Command(spec.Path, spec.Args...)
	if spec.Stdout != nil {
		cmd.Stdout = &lineWriter{w: spec.Stdout, prefix: fmt.Sprintf("[rank %d] ", spec.Rank)}
	}
	if spec.Stderr != nil {
		cmd.Stderr = &lineWriter{w: spec.Stderr, prefix: fmt.Sprintf("[rank %d] ", spec.Rank)}
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	s.mu.Lock()
	s.procs[spec.Rank] = &proc{cmd: cmd, rank: spec.Rank}
	s.mu.Unlock()
	if s.pol.OnStart != nil {
		s.pol.OnStart(spec.Rank, cmd.Process.Pid)
	}
	go func() {
		err := cmd.Wait()
		ev := exitEvent{rank: spec.Rank, code: ExitFailure}
		if st := cmd.ProcessState; st != nil {
			ev.code = st.ExitCode()
			ev.signaled = ev.code < 0
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok && ru != nil {
				ev.rssKiB = ru.Maxrss
			}
		} else if err == nil {
			ev.code = ExitOK
		}
		events <- ev
	}()
	return nil
}

// terminate stops a single rank's current incarnation: SIGTERM, then
// SIGKILL after the grace period. Already-exited processes are a no-op.
func (s *Supervisor) terminate(rank int) {
	s.mu.Lock()
	p := s.procs[rank]
	s.mu.Unlock()
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	time.AfterFunc(s.pol.Grace, func() {
		p.cmd.Process.Kill()
	})
}

// terminateAll signals every live incarnation.
func (s *Supervisor) terminateAll() {
	s.mu.Lock()
	ranks := make([]int, 0, len(s.procs))
	for r := range s.procs {
		ranks = append(ranks, r)
	}
	s.mu.Unlock()
	for _, r := range ranks {
		s.terminate(r)
	}
}

// storm reports whether one more restart would exceed the storm
// threshold within the window, recording the restart time.
type stormDetector struct {
	window    time.Duration
	threshold int
	times     []time.Time
}

func (sd *stormDetector) add(now time.Time) bool {
	cutoff := now.Add(-sd.window)
	kept := sd.times[:0]
	for _, t := range sd.times {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	sd.times = append(kept, now)
	return len(sd.times) >= sd.threshold
}

// RunPerRank supervises the specs with per-rank restarts: a worker rank
// (rank > 0) exiting ExitFailure is relaunched with backoff while its
// budget lasts — its claim token makes it rejoin the running cluster —
// and is left dead (graceful degradation via the synthesis layer's
// re-striping) once the budget or the storm detector trips. The phase
// succeeds when rank 0 exits ExitOK; rank 0 failing fails the phase
// (the coordinator cannot be revived into its own cluster).
func (s *Supervisor) RunPerRank(ctx context.Context) (*telemetry.SupervisionReport, error) {
	start := time.Now()
	res, byRank := s.newReport("per-rank")
	degraded := 0
	finish := func(err error) (*telemetry.SupervisionReport, error) {
		res.WallNs = int64(time.Since(start))
		mDegraded.Set(int64(degraded))
		return res, err
	}

	events := make(chan exitEvent, len(s.specs)*4)
	specByRank := map[int]Spec{}
	for _, sp := range s.specs {
		specByRank[sp.Rank] = sp
	}
	liveOrPending := 0
	for _, sp := range s.specs {
		if err := s.start(sp, events); err != nil {
			s.abort(events, &liveOrPending, byRank)
			return finish(fmt.Errorf("supervise: starting rank %d: %w", sp.Rank, err))
		}
		liveOrPending++
	}

	sd := &stormDetector{window: s.pol.StormWindow, threshold: s.pol.StormThreshold}
	for {
		select {
		case <-ctx.Done():
			s.abort(events, &liveOrPending, byRank)
			return finish(ctx.Err())
		case ev := <-events:
			liveOrPending--
			st := record(byRank, ev)

			if ev.rank == 0 {
				// The coordinator decides the phase.
				s.setStopping()
				switch ev.code {
				case ExitOK:
					s.pol.Logf("supervise: rank 0 completed; draining %d workers", liveOrPending)
					s.drainThenTerminate(events, &liveOrPending, byRank)
					return finish(nil)
				case ExitCanceled:
					s.abort(events, &liveOrPending, byRank)
					return finish(context.Canceled)
				default:
					s.abort(events, &liveOrPending, byRank)
					return finish(fmt.Errorf("supervise: rank 0 exited %d", ev.code))
				}
			}

			switch {
			case ev.code == ExitOK || ev.code == ExitCanceled:
				s.pol.Logf("supervise: rank %d finished (exit %d)", ev.rank, ev.code)
				continue // worker done; nothing to restart
			case s.isStopping():
				continue
			}
			// A real worker failure: restart within policy or degrade.
			if s.pol.MaxRestartsPerRank < 0 || st.Restarts >= s.pol.MaxRestartsPerRank {
				st.Degraded = true
				degraded++
				mDegraded.Set(int64(degraded))
				s.pol.Logf("supervise: rank %d exit %d; restart budget exhausted (%d) — degrading via re-striping",
					ev.rank, ev.code, st.Restarts)
				continue
			}
			if sd.add(time.Now()) {
				if !res.Storm {
					res.Storm = true
					mStorms.Inc()
				}
				st.Degraded = true
				degraded++
				mDegraded.Set(int64(degraded))
				s.pol.Logf("supervise: restart storm (%d in %s); leaving rank %d dead",
					s.pol.StormThreshold, s.pol.StormWindow, ev.rank)
				continue
			}
			st.Restarts++
			mRestarts.Inc()
			delay := s.pol.backoff(st.Restarts, s.rng)
			mBackoffNs.Observe(delay)
			s.pol.Logf("supervise: rank %d exit %d (signaled=%v); restart %d/%d in %s",
				ev.rank, ev.code, ev.signaled, st.Restarts, s.pol.MaxRestartsPerRank, delay.Round(time.Millisecond))
			liveOrPending++
			sp := specByRank[ev.rank]
			go func() {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					events <- exitEvent{rank: sp.Rank, code: ExitCanceled}
					return
				}
				if s.isStopping() {
					events <- exitEvent{rank: sp.Rank, code: ExitCanceled}
					return
				}
				if err := s.start(sp, events); err != nil {
					s.pol.Logf("supervise: relaunching rank %d: %v", sp.Rank, err)
					events <- exitEvent{rank: sp.Rank, code: ExitFailure}
				}
			}()
		}
	}
}

// abort ends the phase early: no more restarts, every live incarnation
// terminated, and their exits collected by drain.
func (s *Supervisor) abort(events chan exitEvent, pending *int, byRank map[int]*telemetry.SupervisionRank) {
	s.setStopping()
	s.terminateAll()
	s.drain(events, pending, byRank)
}

// drainThenTerminate waits DrainTimeout for the remaining processes to
// exit on their own (they should: the collective that completed the
// phase has released them), then escalates.
func (s *Supervisor) drainThenTerminate(events chan exitEvent, pending *int, byRank map[int]*telemetry.SupervisionRank) {
	deadline := time.After(s.pol.DrainTimeout)
	for *pending > 0 {
		select {
		case ev := <-events:
			*pending--
			record(byRank, ev)
		case <-deadline:
			s.terminateAll()
			s.drain(events, pending, byRank)
			return
		}
	}
}

// drain collects exits after terminateAll, bounded by grace + drain
// timeout so a wedged child cannot hang the supervisor.
func (s *Supervisor) drain(events chan exitEvent, pending *int, byRank map[int]*telemetry.SupervisionRank) {
	deadline := time.After(s.pol.Grace + s.pol.DrainTimeout)
	for *pending > 0 {
		select {
		case ev := <-events:
			*pending--
			record(byRank, ev)
		case <-deadline:
			return
		}
	}
}

func (s *Supervisor) setStopping() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
}

func (s *Supervisor) isStopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// RunGang supervises a phase whose recovery unit is the whole gang:
// build(attempt) produces the specs for launch attempt N (attempt 0 is
// the initial launch; restarts typically add a -resume flag), every
// rank must exit ExitOK for success, and any ExitFailure triggers a
// full relaunch after terminating the stragglers and backing off.
// A rank exiting ExitCanceled (cooperative drain) fails the attempt
// without consuming the restart budget — the caller interrupted the
// run, the supervisor reports context.Canceled. A rank that cannot be
// started fails the phase: the ranks already started are terminated.
func (s *Supervisor) RunGang(ctx context.Context, build func(attempt int) []Spec) (*telemetry.SupervisionReport, error) {
	start := time.Now()
	res, byRank := s.newReport("gang")
	finish := func(err error) (*telemetry.SupervisionReport, error) {
		res.WallNs = int64(time.Since(start))
		return res, err
	}

	for attempt := 0; ; attempt++ {
		specs := build(attempt)
		events := make(chan exitEvent, len(specs)*2)
		s.mu.Lock()
		s.stopping = false
		s.procs = map[int]*proc{}
		s.mu.Unlock()
		pending := 0
		for _, sp := range specs {
			if err := s.start(sp, events); err != nil {
				s.abort(events, &pending, byRank)
				return finish(fmt.Errorf("supervise: starting rank %d: %w", sp.Rank, err))
			}
			pending++
		}
		sawFailure, sawCancel := false, false
		var deadline <-chan time.Time
		for pending > 0 {
			select {
			case <-ctx.Done():
				s.abort(events, &pending, byRank)
				return finish(ctx.Err())
			case ev := <-events:
				pending--
				record(byRank, ev)
				switch ev.code {
				case ExitOK:
				case ExitCanceled:
					sawCancel = true
				default:
					if !sawFailure {
						sawFailure = true
						s.pol.Logf("supervise: rank %d exit %d (signaled=%v); gang will relaunch after stragglers drain",
							ev.rank, ev.code, ev.signaled)
						// Survivors abort their collectives promptly; give
						// them the drain window, then escalate.
						deadline = time.After(s.pol.DrainTimeout)
					}
				}
			case <-deadline:
				deadline = nil
				s.terminateAll()
			}
		}
		if sawCancel && !sawFailure {
			return finish(context.Canceled)
		}
		if !sawFailure {
			return finish(nil)
		}
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if s.pol.MaxRestartsPerRank < 0 || res.GangRestarts >= s.pol.MaxRestartsPerRank {
			return finish(fmt.Errorf("supervise: gang failed after %d relaunches", res.GangRestarts))
		}
		res.GangRestarts++
		mRestarts.Inc()
		delay := s.pol.backoff(res.GangRestarts, s.rng)
		mBackoffNs.Observe(delay)
		s.pol.Logf("supervise: gang relaunch %d/%d in %s",
			res.GangRestarts, s.pol.MaxRestartsPerRank, delay.Round(time.Millisecond))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return finish(ctx.Err())
		}
	}
}
