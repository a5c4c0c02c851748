// Package supervise runs a set of rank processes as a supervision tree:
// it spawns each rank of the distributed pipeline as an external OS
// process, watches their exits, and applies one recovery rule — the
// glue that turns mpinet's failure-tolerant transport and the
// eventlog's resumable logs into a run that survives kill -9.
//
// Every rank is one chisim process that simulates (abm.RunOn) and then
// synthesizes (core.SynthesizeDistributed) on the same transport, so
// one gang covers the whole run and rank 0 decides it (RunGang). If
// rank 0 succeeds, the run succeeds, and a worker that failed is
// recorded degraded: it died in the synthesis, where the survivors
// re-striped its files. If rank 0 fails — which a worker dying in the
// simulation causes through the transport — every rank is relaunched
// with -resume: each eventlog keeps a valid footer or a salvageable
// prefix, abm.ResumeOn replays to the canonical per-hour order, and a
// complete simulation resumes straight into the synthesis.
//
// Exit codes are the contract between the supervisor and the rank
// binaries: ExitOK for success, ExitCanceled for a cooperative
// SIGINT/SIGTERM drain (not a failure), ExitFailure for real failures.
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

// Exit codes shared by the binaries (cmd/chisim, cmd/netsynth, ...) and
// the supervisor.
const (
	// ExitOK: the rank completed its work.
	ExitOK = 0
	// ExitFailure: a real failure (I/O error, lost coordinator, bad
	// input). From rank 0 it relaunches the gang; from a worker of a
	// run rank 0 completes, it marks the worker degraded.
	ExitFailure = 1
	// ExitCanceled: the rank drained cleanly after SIGINT/SIGTERM.
	// Deliberate, so never a failure.
	ExitCanceled = 2
)

// SynthesisLine is what a rank prints on stdout as its synthesis begins,
// after its simulation: the one event of a run a supervisor reads from
// a rank's output (netlaunch's /cluster phase and its synthesis kill).
const SynthesisLine = "synthesis begins"

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
	// Default 3; negative disables relaunches.
	MaxRelaunches int
	// BackoffBase is the first relaunch delay; each subsequent relaunch
	// doubles it, with full jitter. Default 250ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. Default 5s.
	BackoffCap time.Duration
	// Grace is how long a terminated process gets between SIGTERM and
	// SIGKILL. Default 5s.
	Grace time.Duration
	// DrainTimeout bounds how long the supervisor waits for the workers
	// to exit on their own after rank 0 succeeded before terminating
	// them. Default 10s.
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

// newReport starts the run's supervision record — one entry per spec,
// exit code -1 until that rank's first exit — and indexes it by rank.
func newReport(specs []Spec) (*telemetry.SupervisionReport, map[int]*telemetry.SupervisionRank) {
	rep := &telemetry.SupervisionReport{Mode: "gang", Ranks: make([]telemetry.SupervisionRank, len(specs))}
	byRank := map[int]*telemetry.SupervisionRank{}
	for i, sp := range specs {
		rep.Ranks[i] = telemetry.SupervisionRank{Rank: sp.Rank, ExitCode: -1}
		byRank[sp.Rank] = &rep.Ranks[i]
	}
	return rep, byRank
}

// record folds one process's exit into its rank's entry: the peak RSS
// over every gang attempt and the latest exit code.
func record(byRank map[int]*telemetry.SupervisionRank, ev exitEvent) {
	if st := byRank[ev.rank]; st != nil {
		st.PeakRSSKiB = max(st.PeakRSSKiB, ev.rssKiB)
		st.ExitCode = ev.code
	}
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

// Supervisor drives one gang of supervised rank processes.
type Supervisor struct {
	pol Policy
	rng *rand.Rand

	mu    sync.Mutex
	procs map[int]*proc // rank → current process
}

// New builds a Supervisor under pol.
func New(pol Policy) *Supervisor {
	return &Supervisor{
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

// abort ends an attempt early: every live process terminated, and their
// exits collected by drain.
func (s *Supervisor) abort(events chan exitEvent, pending *int, byRank map[int]*telemetry.SupervisionRank) {
	s.terminateAll()
	s.drain(events, pending, byRank)
}

// drainThenTerminate waits DrainTimeout for the remaining processes to
// exit on their own (they should: the collective that completed the
// run has released them), then escalates.
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

// RunGang supervises the gang under one rule: rank 0 decides the run.
// build(attempt) produces the specs for launch attempt N (attempt 0 is
// the initial launch; a relaunch adds -resume).
//
//   - Rank 0 exits ExitOK: the run succeeds. The workers still running
//     get DrainTimeout to exit before they are terminated, and every
//     worker of the attempt that exited with a failure is recorded
//     Degraded.
//   - Rank 0 fails: the rest are terminated and, after a backoff, the
//     whole gang is relaunched, at most MaxRelaunches times.
//   - Rank 0 exits ExitCanceled (a cooperative drain): the run ends
//     with context.Canceled and consumes no budget.
//
// A worker's exit alone never acts: a worker that dies in the
// simulation makes rank 0 fail through the transport, and one that
// dies in the synthesis is re-striped over by the survivors. A rank
// that cannot be started fails the run: the ranks already started are
// terminated.
func (s *Supervisor) RunGang(ctx context.Context, build func(attempt int) []Spec) (*telemetry.SupervisionReport, error) {
	start := time.Now()
	specs := build(0)
	res, byRank := newReport(specs)
	finish := func(err error) (*telemetry.SupervisionReport, error) {
		res.WallNs = int64(time.Since(start))
		return res, err
	}

	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			specs = build(attempt)
		}
		events := make(chan exitEvent, len(specs)) // one exit per process
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
		var lead exitEvent // rank 0's exit
		for waiting := true; waiting; {
			select {
			case <-ctx.Done():
				s.abort(events, &pending, byRank)
				return finish(ctx.Err())
			case ev := <-events:
				pending--
				record(byRank, ev)
				if ev.rank == 0 {
					lead, waiting = ev, false
				} else if ev.code != ExitOK && ev.code != ExitCanceled {
					s.pol.Logf("supervise: rank %d exit %d (signaled=%v); rank 0 decides the run",
						ev.rank, ev.code, ev.signaled)
				}
			}
		}
		switch lead.code {
		case ExitOK:
			s.pol.Logf("supervise: rank 0 completed; draining %d worker(s)", pending)
			s.drainThenTerminate(events, &pending, byRank)
			degraded := 0
			for i := range res.Ranks {
				r := &res.Ranks[i]
				r.Degraded = r.Rank != 0 && r.ExitCode != ExitOK && r.ExitCode != ExitCanceled
				if r.Degraded {
					degraded++
				}
			}
			mDegraded.Set(int64(degraded))
			return finish(nil)
		case ExitCanceled:
			s.abort(events, &pending, byRank)
			return finish(context.Canceled)
		}
		s.pol.Logf("supervise: rank 0 exit %d (signaled=%v); terminating the gang", lead.code, lead.signaled)
		s.abort(events, &pending, byRank)
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
