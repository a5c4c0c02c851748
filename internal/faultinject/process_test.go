package faultinject_test

// The chaos proxy is tested against a real mpinet cluster (an external
// test package avoids the import cycle): each fault mode must surface
// as a typed rank failure at the survivors, never as a hang or a
// corrupted round.

import (
	"context"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/mpinet"
)

func fastOpts() mpinet.Options {
	return mpinet.Options{
		DialTimeout:       5 * time.Second,
		IOTimeout:         5 * time.Second,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
	}
}

// proxiedPair starts a 3-rank cluster where rank `victim`'s link runs
// through a chaos proxy; returns host, direct bystander, proxied victim.
func proxiedCluster(t *testing.T, toServer, toClient faultinject.LinkFaults) (host, bystander, victim *mpinet.Node, proxy *faultinject.Proxy) {
	t.Helper()
	opts := fastOpts()
	h, err := mpinet.Host("127.0.0.1:0", 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := faultinject.NewProxy("127.0.0.1:0", h.Addr(), toServer, toClient)
	if err != nil {
		h.Close()
		t.Fatal(err)
	}
	v, err := mpinet.Join(p.Addr(), opts)
	if err != nil {
		h.Close()
		p.Close()
		t.Fatal(err)
	}
	b, err := mpinet.Join(h.Addr(), opts)
	if err != nil {
		h.Close()
		p.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close(); b.Close(); v.Close(); p.Close() })
	return h, b, v, p
}

// barrier is an Exchange of nil blobs: it returns once every live rank
// has entered it.
func barrier(ctx context.Context, n *mpinet.Node) error {
	_, err := n.Exchange(ctx, make([][]byte, n.Size()))
	return err
}

func barrier3(host, bystander, victim *mpinet.Node, withVictim bool) (hostErr, byErr, vicErr error) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); hostErr = barrier(context.Background(), host) }()
	go func() { defer wg.Done(); byErr = barrier(context.Background(), bystander) }()
	if withVictim {
		wg.Add(1)
		go func() { defer wg.Done(); vicErr = barrier(context.Background(), victim) }()
	}
	wg.Wait()
	return
}

func wantFailedRank(t *testing.T, err error, rank int) {
	t.Helper()
	rf, ok := mpi.AsRankFailed(err)
	if !ok {
		t.Fatalf("want RankFailedError, got %v", err)
	}
	if rf.Rank != rank {
		t.Fatalf("want failed rank %d, got %d (%v)", rank, rf.Rank, err)
	}
}

// TestProxyPassthrough: with no faults armed the proxied link is
// transparent — handshake and collectives work normally.
func TestProxyPassthrough(t *testing.T) {
	host, bystander, victim, proxy := proxiedCluster(t, faultinject.LinkFaults{}, faultinject.LinkFaults{})
	for i := 0; i < 3; i++ {
		hostErr, byErr, vicErr := barrier3(host, bystander, victim, true)
		if hostErr != nil || byErr != nil || vicErr != nil {
			t.Fatalf("round %d: %v / %v / %v", i, hostErr, byErr, vicErr)
		}
	}
	if proxy.Faulted() {
		t.Fatal("passthrough proxy reported a fault")
	}
}

// TestProxyCutAfterFrames: cutting the link after the victim's first
// collective frame resets the connection; survivors get the typed
// failure promptly.
func TestProxyCutAfterFrames(t *testing.T) {
	// The victim's heartbeats are frames too, so frame 1 in the
	// client→server direction fires on whichever the victim sends first;
	// if that was its barrier contribution, the cut surfaces one round
	// later, when the closed link is noticed.
	host, bystander, victim, proxy := proxiedCluster(t,
		faultinject.LinkFaults{CutAfterFrames: 1}, faultinject.LinkFaults{})
	go barrier(context.Background(), victim) // errors once the cut fires
	var hostErr, byErr error
	for i := 0; i < 10; i++ {
		hostErr, byErr, _ = barrier3(host, bystander, nil, false)
		if hostErr != nil || byErr != nil {
			break
		}
	}
	wantFailedRank(t, hostErr, victim.Rank())
	wantFailedRank(t, byErr, victim.Rank())
	if !proxy.Faulted() {
		t.Fatal("cut never fired")
	}
	// Survivors keep working.
	hostErr, byErr, _ = barrier3(host, bystander, nil, false)
	if hostErr != nil || byErr != nil {
		t.Fatalf("survivors: %v / %v", hostErr, byErr)
	}
}

// TestProxyBlackholeDetectedByHeartbeat: a silently hung link (frames
// swallowed, nothing closed) is exactly what connection errors cannot
// catch — only the heartbeat timeout detects it, within its window.
func TestProxyBlackholeDetectedByHeartbeat(t *testing.T) {
	host, bystander, victim, proxy := proxiedCluster(t,
		faultinject.LinkFaults{BlackholeAfterFrames: 1}, faultinject.LinkFaults{})
	start := time.Now()
	go barrier(context.Background(), victim) // hangs in the blackhole until declared dead
	var hostErr, byErr error
	for i := 0; i < 10; i++ {
		hostErr, byErr, _ = barrier3(host, bystander, nil, false)
		if hostErr != nil || byErr != nil {
			break
		}
	}
	elapsed := time.Since(start)
	wantFailedRank(t, hostErr, victim.Rank())
	wantFailedRank(t, byErr, victim.Rank())
	if !proxy.Faulted() {
		t.Fatal("blackhole never fired")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("detection took %v, want within a few heartbeat windows", elapsed)
	}
}

// TestProxyCorruptHeartbeat: a corrupted opcode on the wire must be
// rejected by the receiver and converted into a rank death, not enter a
// collective round.
func TestProxyCorruptHeartbeat(t *testing.T) {
	host, bystander, victim, proxy := proxiedCluster(t,
		faultinject.LinkFaults{CorruptFrame: 1}, faultinject.LinkFaults{})
	hostErr, byErr, _ := barrier3(host, bystander, victim, true)
	wantFailedRank(t, hostErr, victim.Rank())
	wantFailedRank(t, byErr, victim.Rank())
	if !proxy.Faulted() {
		t.Fatal("corruption never fired")
	}
	hostErr, byErr, _ = barrier3(host, bystander, nil, false)
	if hostErr != nil || byErr != nil {
		t.Fatalf("survivors: %v / %v", hostErr, byErr)
	}
}

// TestProxyDelaySlowsButDelivers: a delayed link is slow, not dead —
// collectives still complete as long as heartbeats keep the detector
// fed.
func TestProxyDelaySlowsButDelivers(t *testing.T) {
	host, bystander, victim, _ := proxiedCluster(t,
		faultinject.LinkFaults{Delay: 50 * time.Millisecond},
		faultinject.LinkFaults{Delay: 50 * time.Millisecond})
	hostErr, byErr, vicErr := barrier3(host, bystander, victim, true)
	if hostErr != nil || byErr != nil || vicErr != nil {
		t.Fatalf("delayed barrier: %v / %v / %v", hostErr, byErr, vicErr)
	}
}

// TestKill9 really kills a child process with an uncatchable signal.
func TestKill9(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperSleep", "-test.v")
	cmd.Env = append(os.Environ(), "FAULTINJECT_HELPER_SLEEP=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Kill9(cmd.Process.Pid); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatal("killed child exited cleanly")
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.Exited() {
		t.Fatalf("child ran to completion: %v", err)
	}
}

// TestKillAfterCancel: a canceled kill timer must not fire.
func TestKillAfterCancel(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperSleep", "-test.v")
	cmd.Env = append(os.Environ(), "FAULTINJECT_HELPER_SLEEP=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cancel := faultinject.KillAfter(cmd.Process.Pid, 10*time.Second)
	cancel()
	// The helper sleeps briefly and exits 0; if the timer fired early the
	// wait would report a signal death.
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child should have exited cleanly: %v", err)
	}
}

// TestHelperSleep is not a real test: it is the body of the child
// process the kill tests spawn.
func TestHelperSleep(t *testing.T) {
	if os.Getenv("FAULTINJECT_HELPER_SLEEP") == "" {
		t.Skip("helper body; only runs in a spawned child")
	}
	time.Sleep(300 * time.Millisecond)
}
