package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sh builds a Spec running a short shell script — the cheapest portable
// stand-in for a rank binary with a scriptable exit code.
func sh(rank int, script string) Spec {
	return Spec{Rank: rank, Path: "/bin/sh", Args: []string{"-c", script}}
}

// fastPolicy keeps test restarts quick.
func fastPolicy() Policy {
	return Policy{
		MaxRestartsPerRank: 2,
		BackoffBase:        10 * time.Millisecond,
		BackoffCap:         50 * time.Millisecond,
		Grace:              500 * time.Millisecond,
		DrainTimeout:       2 * time.Second,
	}
}

func TestRunPerRankSuccess(t *testing.T) {
	specs := []Spec{
		sh(0, "sleep 0.2; exit 0"),
		sh(1, "exit 0"),
		sh(2, "exit 0"),
	}
	s := New(specs, fastPolicy())
	res, err := s.RunPerRank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res.Ranks {
		if rs.Restarts != 0 || rs.Degraded {
			t.Fatalf("healthy run: rank %d restarts=%d degraded=%v", rs.Rank, rs.Restarts, rs.Degraded)
		}
		if rs.ExitCode != ExitOK {
			t.Fatalf("rank %d exit %d", rs.Rank, rs.ExitCode)
		}
	}
}

func TestRunPerRankRestartsFailedWorker(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "restarted")
	specs := []Spec{
		sh(0, "sleep 1.0; exit 0"),
		// First incarnation fails; the restarted one succeeds.
		sh(1, fmt.Sprintf("if [ -f %s ]; then exit 0; else touch %s; exit 1; fi", marker, marker)),
	}
	s := New(specs, fastPolicy())
	res, err := s.RunPerRank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].Restarts != 1 {
		t.Fatalf("worker restarts = %d, want 1", res.Ranks[1].Restarts)
	}
	if res.Ranks[1].Degraded {
		t.Fatal("recovered worker marked degraded")
	}
	if res.Ranks[1].ExitCode != ExitOK {
		t.Fatalf("worker final exit %d", res.Ranks[1].ExitCode)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("restart never happened: %v", err)
	}
}

func TestRunPerRankDegradesAfterBudget(t *testing.T) {
	specs := []Spec{
		sh(0, "sleep 1.0; exit 0"),
		sh(1, "exit 1"), // always fails
	}
	pol := fastPolicy()
	pol.MaxRestartsPerRank = 2
	s := New(specs, pol)
	res, err := s.RunPerRank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].Restarts != 2 {
		t.Fatalf("worker restarts = %d, want 2 (the budget)", res.Ranks[1].Restarts)
	}
	if !res.Ranks[1].Degraded {
		t.Fatal("budget-exhausted worker not marked degraded")
	}
	if res.Ranks[0].Degraded {
		t.Fatal("coordinator marked degraded")
	}
}

func TestRunPerRankCanceledWorkerNotRestarted(t *testing.T) {
	specs := []Spec{
		sh(0, "sleep 0.4; exit 0"),
		sh(1, "exit 2"), // cooperative drain: deliberate, never restarted
	}
	s := New(specs, fastPolicy())
	res, err := s.RunPerRank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].Restarts != 0 {
		t.Fatalf("canceled worker restarted %d times", res.Ranks[1].Restarts)
	}
	if res.Ranks[1].ExitCode != ExitCanceled {
		t.Fatalf("worker exit %d, want %d", res.Ranks[1].ExitCode, ExitCanceled)
	}
}

func TestRunPerRankCoordinatorFailureFailsPhase(t *testing.T) {
	specs := []Spec{
		sh(0, "exit 1"),
		sh(1, "sleep 5; exit 0"), // would linger; must be terminated
	}
	s := New(specs, fastPolicy())
	start := time.Now()
	_, err := s.RunPerRank(context.Background())
	if err == nil {
		t.Fatal("phase succeeded despite rank 0 failing")
	}
	if time.Since(start) > 4*time.Second {
		t.Fatalf("straggler termination took %v", time.Since(start))
	}
}

func TestRunPerRankPeakRSSRecorded(t *testing.T) {
	specs := []Spec{sh(0, "exit 0")}
	s := New(specs, fastPolicy())
	res, err := s.RunPerRank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].PeakRSSKiB <= 0 {
		t.Fatalf("peak RSS not captured: %d KiB", res.Ranks[0].PeakRSSKiB)
	}
}

func TestRunGangRelaunchesWholeGang(t *testing.T) {
	dir := t.TempDir()
	marker := filepath.Join(dir, "attempt1")
	build := func(attempt int) []Spec {
		if attempt == 0 {
			return []Spec{
				sh(0, "sleep 0.1; exit 0"),
				sh(1, fmt.Sprintf("touch %s.first; exit 1", marker)),
			}
		}
		return []Spec{
			sh(0, fmt.Sprintf("touch %s; exit 0", marker)),
			sh(1, "exit 0"),
		}
	}
	s := New(build(0), fastPolicy())
	res, err := s.RunGang(context.Background(), build)
	if err != nil {
		t.Fatal(err)
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
	s := New(build(0), pol)
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
	build := func(int) []Spec {
		return []Spec{sh(0, "exit 0"), sh(1, "exit 1")}
	}
	pol := fastPolicy()
	pol.MaxRestartsPerRank = 1
	s := New(build(0), pol)
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
	build := func(int) []Spec {
		return []Spec{sh(0, "exit 2"), sh(1, "exit 2")}
	}
	s := New(build(0), fastPolicy())
	res, err := s.RunGang(context.Background(), build)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.GangRestarts != 0 {
		t.Fatalf("canceled gang consumed %d restarts", res.GangRestarts)
	}
}

func TestBackoffBoundedWithJitter(t *testing.T) {
	pol := Policy{}.withDefaults(4)
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

func TestStormDetector(t *testing.T) {
	sd := &stormDetector{window: time.Minute, threshold: 3}
	now := time.Now()
	if sd.add(now) || sd.add(now.Add(time.Second)) {
		t.Fatal("storm before threshold")
	}
	if !sd.add(now.Add(2 * time.Second)) {
		t.Fatal("no storm at threshold")
	}
	// Old restarts age out of the window.
	sd2 := &stormDetector{window: time.Minute, threshold: 3}
	sd2.add(now.Add(-2 * time.Minute))
	sd2.add(now.Add(-90 * time.Second))
	if sd2.add(now) {
		t.Fatal("aged-out restarts still counted")
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
