// Package supervise runs a set of rank processes as a supervision tree:
// it spawns each rank of the distributed pipeline as an external OS
// process, watches their exits, and applies the recovery each phase
// needs — the glue that turns mpinet's failure-tolerant transport and
// the eventlog's resumable logs into a run that survives kill -9.
//
// Two supervision modes match the two phases of the pipeline:
//
//   - Gang (RunGang): the simulation phase, one chisim process per
//     rank running abm.RunOn. The simulation is not failure-tolerant —
//     any rank death aborts every survivor promptly with a typed error
//     — but every rank's eventlog keeps a valid footer (or salvageable
//     prefix), so the recovery unit is the whole gang: kill the
//     stragglers, back off, and relaunch every rank with -resume.
//     abm.ResumeOn replays to the canonical per-hour order, making the
//     finished logs bit-identical to an uninterrupted run.
//
//   - Per-rank (RunPerRank): the synthesis phase.
//     core.SynthesizeDistributed re-stripes a dead rank's files over
//     the survivors and produces the same network, so nothing is
//     restarted: a failed worker is recorded as degraded at once and
//     the phase goes on without it. Rank 0 decides the phase.
//
// Exit codes are the contract between the supervisor and the rank
// binaries: ExitOK for success, ExitCanceled for a cooperative
// SIGINT/SIGTERM drain (not a failure), ExitFailure for real failures
// (a gang relaunch, or a degraded synthesis worker).
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
// the supervisor.
const (
	// ExitOK: the rank completed its work.
	ExitOK = 0
	// ExitFailure: a real failure (I/O error, lost coordinator, bad
	// input). RunGang relaunches the gang; RunPerRank degrades a
	// worker.
	ExitFailure = 1
	// ExitCanceled: the rank drained cleanly after SIGINT/SIGTERM.
	// Deliberate, so never a failure.
	ExitCanceled = 2
)

// Telemetry series for the supervision layer.
var (
	mRestarts  = telemetry.C("supervise_restarts_total")
	mDegraded  = telemetry.G("supervise_degraded_ranks")
	mBackoffNs = telemetry.H("supervise_backoff_seconds")
)

// Spec describes one rank process to supervise.
type Spec struct {
	// Rank is the mpinet rank this process claims.
	Rank int
	// Path is the binary to execute.
	Path string
	// Args are the process arguments (argv[1:]).
	Args []string
	// Stdout/Stderr receive the process output; nil discards. The
	// supervisor wraps them with a "[rank N]" line prefix.
	Stdout, Stderr io.Writer
}

// Policy tunes the supervisor. Zero values select defaults.
type Policy struct {
	// MaxRelaunches is the gang relaunch budget of RunGang.
	// Default 3; negative disables relaunches. RunPerRank never
	// restarts a process.
	MaxRelaunches int
	// BackoffBase is the first relaunch delay; each subsequent relaunch
	// doubles it, with full jitter. Default 250ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. Default 5s.
	BackoffCap time.Duration
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
	// rank process starts — the hook chaos tests use to aim kills.
	OnStart func(rank, pid int)
}

func (p Policy) withDefaults() Policy {
	if p.MaxRelaunches == 0 {
		p.MaxRelaunches = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 250 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 5 * time.Second
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

// backoff returns the delay before gang relaunch n (1-based):
// exponential from Base, capped at Cap, with full jitter.
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

// record folds one process's exit into its rank's entry: the peak RSS
// over every gang attempt and the latest exit code.
func record(byRank map[int]*telemetry.SupervisionRank, ev exitEvent) *telemetry.SupervisionRank {
	st := byRank[ev.rank]
	if st != nil {
		st.PeakRSSKiB = max(st.PeakRSSKiB, ev.rssKiB)
		st.ExitCode = ev.code
	}
	return st
}

// proc is one running process.
type proc struct {
	cmd  *exec.Cmd
	rank int
}

// exitEvent reports one process's end.
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

	mu    sync.Mutex
	procs map[int]*proc // rank → current process
}

// New builds a Supervisor for the given rank specs.
func New(specs []Spec, pol Policy) *Supervisor {
	return &Supervisor{
		specs: specs,
		pol:   pol.withDefaults(),
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

// start launches one process for spec and watches it.
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

// terminate stops a single rank's current process: SIGTERM, then
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

// terminateAll signals every live process.
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

// RunPerRank supervises the specs as one process per rank and never
// restarts one. A worker (rank > 0) that fails is recorded Degraded at
// once: the synthesis survivors re-stripe its files and produce the
// same network without it. Rank 0 decides the phase: it succeeds when
// rank 0 exits ExitOK, and rank 0 failing fails it.
func (s *Supervisor) RunPerRank(ctx context.Context) (*telemetry.SupervisionReport, error) {
	start := time.Now()
	res, byRank := s.newReport("per-rank")
	degraded := 0
	finish := func(err error) (*telemetry.SupervisionReport, error) {
		res.WallNs = int64(time.Since(start))
		mDegraded.Set(int64(degraded))
		return res, err
	}

	events := make(chan exitEvent, len(s.specs)) // one exit per process
	pending := 0
	for _, sp := range s.specs {
		if err := s.start(sp, events); err != nil {
			s.abort(events, &pending, byRank)
			return finish(fmt.Errorf("supervise: starting rank %d: %w", sp.Rank, err))
		}
		pending++
	}

	for {
		select {
		case <-ctx.Done():
			s.abort(events, &pending, byRank)
			return finish(ctx.Err())
		case ev := <-events:
			pending--
			st := record(byRank, ev)
			if ev.rank == 0 {
				switch ev.code {
				case ExitOK:
					s.pol.Logf("supervise: rank 0 completed; draining %d workers", pending)
					s.drainThenTerminate(events, &pending, byRank)
					return finish(nil)
				case ExitCanceled:
					s.abort(events, &pending, byRank)
					return finish(context.Canceled)
				default:
					s.abort(events, &pending, byRank)
					return finish(fmt.Errorf("supervise: rank 0 exited %d", ev.code))
				}
			}
			if ev.code == ExitOK || ev.code == ExitCanceled {
				s.pol.Logf("supervise: rank %d finished (exit %d)", ev.rank, ev.code)
				continue
			}
			st.Degraded = true
			degraded++
			mDegraded.Set(int64(degraded))
			s.pol.Logf("supervise: rank %d exit %d (signaled=%v); degraded — the survivors re-stripe its files",
				ev.rank, ev.code, ev.signaled)
		}
	}
}

// abort ends the phase early: every live process terminated, and their
// exits collected by drain.
func (s *Supervisor) abort(events chan exitEvent, pending *int, byRank map[int]*telemetry.SupervisionRank) {
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
		if s.pol.MaxRelaunches < 0 || res.GangRestarts >= s.pol.MaxRelaunches {
			return finish(fmt.Errorf("supervise: gang failed after %d relaunches", res.GangRestarts))
		}
		res.GangRestarts++
		mRestarts.Inc()
		delay := s.pol.backoff(res.GangRestarts, s.rng)
		mBackoffNs.Observe(delay)
		s.pol.Logf("supervise: gang relaunch %d/%d in %s",
			res.GangRestarts, s.pol.MaxRelaunches, delay.Round(time.Millisecond))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return finish(ctx.Err())
		}
	}
}
