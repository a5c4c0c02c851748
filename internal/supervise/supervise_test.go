package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sh builds a Spec running a short shell script — the cheapest portable
// stand-in for a rank binary with a scriptable exit code.
func sh(rank int, script string) Spec {
	return Spec{Rank: rank, Path: "/bin/sh", Args: []string{"-c", script}}
}

// fastPolicy keeps test relaunches quick.
func fastPolicy() Policy {
	return Policy{
		MaxRelaunches: 2,
		BackoffBase:   10 * time.Millisecond,
		BackoffCap:    50 * time.Millisecond,
		Grace:         500 * time.Millisecond,
		DrainTimeout:  2 * time.Second,
	}
}

// once returns build for a gang that runs specs on every attempt.
func once(specs ...Spec) func(int) []Spec {
	return func(int) []Spec { return specs }
}

// TestRunPerRankSuccess: a healthy gang records every rank's own
// outcome — exit 0, not degraded — and costs no relaunch.
func TestRunPerRankSuccess(t *testing.T) {
	build := once(
		sh(0, "sleep 0.2; exit 0"),
		sh(1, "exit 0"),
		sh(2, "exit 0"),
	)
	s := New(fastPolicy())
	res, err := s.RunGang(context.Background(), build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "gang" || res.GangRestarts != 0 {
		t.Fatalf("mode %q, %d gang restarts; want gang, 0", res.Mode, res.GangRestarts)
	}
	if len(res.Ranks) != 3 {
		t.Fatalf("%d rank records, want 3", len(res.Ranks))
	}
	for _, rs := range res.Ranks {
		if rs.Degraded {
			t.Fatalf("healthy run: rank %d degraded", rs.Rank)
		}
		if rs.ExitCode != ExitOK {
			t.Fatalf("rank %d exit %d", rs.Rank, rs.ExitCode)
		}
	}
}

// TestRunPerRankCoordinatorFailureFailsPhase: with relaunches disabled,
// rank 0 failing fails the run, and the straggler is terminated rather
// than waited out.
func TestRunPerRankCoordinatorFailureFailsPhase(t *testing.T) {
	build := once(
		sh(0, "exit 1"),
		sh(1, "sleep 5; exit 0"), // would linger; must be terminated
	)
	pol := fastPolicy()
	pol.MaxRelaunches = -1
	s := New(pol)
	start := time.Now()
	res, err := s.RunGang(context.Background(), build)
	if err == nil {
		t.Fatal("run succeeded despite rank 0 failing")
	}
	if wall := time.Since(start); wall > pol.Grace+pol.DrainTimeout {
		t.Fatalf("straggler termination took %v", wall)
	}
	if res.GangRestarts != 0 {
		t.Fatalf("gang restarts = %d with relaunches disabled", res.GangRestarts)
	}
	if res.Ranks[0].ExitCode != ExitFailure {
		t.Fatalf("rank 0 recorded exit %d, want %d", res.Ranks[0].ExitCode, ExitFailure)
	}
}

func TestRunPerRankPeakRSSRecorded(t *testing.T) {
	s := New(fastPolicy())
	res, err := s.RunGang(context.Background(), once(sh(0, "exit 0")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].PeakRSSKiB <= 0 {
		t.Fatalf("peak RSS not captured: %d KiB", res.Ranks[0].PeakRSSKiB)
	}
}

// TestRunGangWorkerFailureDegrades: a worker that fails while rank 0
// goes on to exit 0 — a death in the synthesis, which the survivors
// re-stripe — is recorded degraded, started once, and costs no
// relaunch.
func TestRunGangWorkerFailureDegrades(t *testing.T) {
	starts := filepath.Join(t.TempDir(), "starts")
	build := once(
		sh(0, "sleep 1.0; exit 0"),
		sh(1, fmt.Sprintf("echo start >> %s; exit 1", starts)),
		sh(2, "exit 0"),
	)
	s := New(fastPolicy())
	res, err := s.RunGang(context.Background(), build)
	if err != nil {
		t.Fatal(err)
	}
	if res.GangRestarts != 0 {
		t.Fatalf("gang restarts = %d, want 0", res.GangRestarts)
	}
	if !res.Ranks[1].Degraded {
		t.Fatal("failed worker not marked degraded")
	}
	if res.Ranks[1].ExitCode != ExitFailure {
		t.Fatalf("worker exit %d, want %d", res.Ranks[1].ExitCode, ExitFailure)
	}
	if res.Ranks[0].Degraded || res.Ranks[2].Degraded {
		t.Fatal("a rank that exited 0 is marked degraded")
	}
	blob, err := os.ReadFile(starts)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(blob), "start"); n != 1 {
		t.Fatalf("worker started %d times, want 1", n)
	}
}

// TestRunGangCanceledWorkerNotDegraded: a worker that drained after a
// signal is neither degraded nor relaunched.
func TestRunGangCanceledWorkerNotDegraded(t *testing.T) {
	build := once(
		sh(0, "sleep 0.4; exit 0"),
		sh(1, "exit 2"),
	)
	s := New(fastPolicy())
	res, err := s.RunGang(context.Background(), build)
	if err != nil {
		t.Fatal(err)
	}
	if res.GangRestarts != 0 {
		t.Fatalf("gang restarts = %d, want 0", res.GangRestarts)
	}
	if res.Ranks[1].Degraded {
		t.Fatal("canceled worker marked degraded")
	}
	if res.Ranks[1].ExitCode != ExitCanceled {
		t.Fatalf("worker exit %d, want %d", res.Ranks[1].ExitCode, ExitCanceled)
	}
}

// TestRunGangRelaunchesWholeGang: rank 0 failing terminates the
// straggler at once and relaunches every rank.
func TestRunGangRelaunchesWholeGang(t *testing.T) {
	dir := t.TempDir()
	marker := filepath.Join(dir, "attempt1")
	build := func(attempt int) []Spec {
		if attempt == 0 {
			return []Spec{
				sh(0, "sleep 0.1; exit 1"),
				sh(1, "sleep 5; exit 0"), // would linger; must be terminated
			}
		}
		return []Spec{
			sh(0, fmt.Sprintf("touch %s; exit 0", marker)),
			sh(1, "exit 0"),
		}
	}
	pol := fastPolicy()
	s := New(pol)
	start := time.Now()
	res, err := s.RunGang(context.Background(), build)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > pol.Grace+pol.DrainTimeout {
		t.Fatalf("RunGang returned after %v: the straggler was waited out", wall)
	}
	if res.GangRestarts != 1 {
		t.Fatalf("gang restarts = %d, want 1", res.GangRestarts)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("second attempt never ran: %v", err)
	}
	// Every rank's final exit must be recorded in the stats — a stale
	// pointer into a reallocated Ranks slice once left these at -1.
	for _, rs := range res.Ranks {
		if rs.ExitCode != ExitOK {
			t.Fatalf("rank %d recorded exit %d, want %d", rs.Rank, rs.ExitCode, ExitOK)
		}
		if rs.PeakRSSKiB <= 0 {
			t.Fatalf("rank %d peak RSS not recorded", rs.Rank)
		}
		if rs.Degraded {
			t.Fatalf("rank %d degraded by an earlier attempt", rs.Rank)
		}
	}
}

// TestRunGangStartErrorTerminatesStarted: when a rank cannot be started,
// the ranks already running are terminated and drained, not waited out.
func TestRunGangStartErrorTerminatesStarted(t *testing.T) {
	build := func(int) []Spec {
		return []Spec{
			sh(0, "sleep 30"),
			{Rank: 1, Path: filepath.Join(t.TempDir(), "missing")},
		}
	}
	pol := fastPolicy()
	s := New(pol)
	start := time.Now()
	res, err := s.RunGang(context.Background(), build)
	if err == nil {
		t.Fatal("gang succeeded with a rank that cannot start")
	}
	if wall := time.Since(start); wall > pol.Grace+pol.DrainTimeout {
		t.Fatalf("RunGang returned after %v, want within Grace+DrainTimeout %v", wall, pol.Grace+pol.DrainTimeout)
	}
	if res.GangRestarts != 0 {
		t.Fatalf("start error consumed %d restarts", res.GangRestarts)
	}
	if res.Ranks[0].PeakRSSKiB <= 0 {
		t.Fatal("terminated rank 0's exit was not collected")
	}
}

func TestRunGangBudgetExhausted(t *testing.T) {
	build := once(sh(0, "exit 1"), sh(1, "exit 0"))
	pol := fastPolicy()
	pol.MaxRelaunches = 1
	s := New(pol)
	res, err := s.RunGang(context.Background(), build)
	if err == nil {
		t.Fatal("gang succeeded despite a permanently failing rank")
	}
	if res.GangRestarts != 1 {
		t.Fatalf("gang restarts = %d, want 1 (the budget)", res.GangRestarts)
	}
}

func TestRunGangCancellationIsNotFailure(t *testing.T) {
	// Ranks exiting ExitCanceled (cooperative SIGTERM drain) must not
	// consume the restart budget; the caller interrupted the run.
	build := once(sh(0, "exit 2"), sh(1, "exit 2"))
	s := New(fastPolicy())
	res, err := s.RunGang(context.Background(), build)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.GangRestarts != 0 {
		t.Fatalf("canceled gang consumed %d restarts", res.GangRestarts)
	}
}

func TestBackoffBoundedWithJitter(t *testing.T) {
	pol := Policy{}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 10; attempt++ {
		d := pol.backoff(attempt, rng)
		if d < pol.BackoffBase/2 {
			t.Fatalf("attempt %d: delay %v below base/2", attempt, d)
		}
		if d > pol.BackoffCap {
			t.Fatalf("attempt %d: delay %v above cap %v", attempt, d, pol.BackoffCap)
		}
	}
	// The exponential actually grows: attempt 4's floor exceeds attempt
	// 1's ceiling.
	if floor, ceil := pol.BackoffBase*8/2, pol.BackoffBase; floor <= ceil {
		t.Fatalf("backoff schedule does not grow: floor(4)=%v ceil(1)=%v", floor, ceil)
	}
}

func TestAddrFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.addr")
	if _, err := ResolveAddr("@"+path, 100*time.Millisecond); err == nil {
		t.Fatal("resolve succeeded with no file")
	}
	if err := WriteAddrFile(path, "127.0.0.1:7946"); err != nil {
		t.Fatal(err)
	}
	got, err := ResolveAddr("@"+path, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != "127.0.0.1:7946" {
		t.Fatalf("resolved %q", got)
	}
	// Plain addresses pass through without touching the filesystem.
	if got, err := ResolveAddr("10.0.0.1:1234", 0); err != nil || got != "10.0.0.1:1234" {
		t.Fatalf("passthrough: %q, %v", got, err)
	}
}

// TestResolveAddrWaitsForLatePublish: the file appears while a joiner
// is already polling — the gang-restart window.
func TestResolveAddrWaitsForLatePublish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.addr")
	go func() {
		time.Sleep(150 * time.Millisecond)
		WriteAddrFile(path, "127.0.0.1:1")
	}()
	got, err := ResolveAddr("@"+path, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != "127.0.0.1:1" {
		t.Fatalf("resolved %q", got)
	}
}
