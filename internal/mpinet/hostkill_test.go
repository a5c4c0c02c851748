package mpinet

// Coordinator-death chaos test: the Host lives in a real child OS
// process and is killed with SIGKILL while the clients sit inside a
// collective. Every client must surface a typed *mpi.RankFailedError
// promptly — within the heartbeat window — rather than hanging on the
// half-open connection.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/supervise"
)

const helperHostEnv = "MPINET_HELPER_HOST"

// TestHelperHost is not a test: it is the child-process body for
// TestCoordinatorKilledMidCollective. It hosts a 3-rank cluster on an
// ephemeral port, publishes the address, and barriers forever — until
// its parent kills it.
func TestHelperHost(t *testing.T) {
	addrFile := os.Getenv(helperHostEnv)
	if addrFile == "" {
		t.Skip("helper process body; set " + helperHostEnv + " to run")
	}
	host, err := Host("127.0.0.1:0", 3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	if err := supervise.WriteAddrFile(addrFile, host.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for {
		if err := barrier(ctx, host); err != nil {
			return
		}
	}
}

func TestCoordinatorKilledMidCollective(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "host.addr")
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperHost", "-test.v")
	cmd.Env = append(os.Environ(), helperHostEnv+"="+addrFile)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
		}
		cmd.Wait()
	}()

	addr, err := supervise.ResolveAddr("@"+addrFile, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	a, err := Join(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Join(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// One healthy round proves the cluster is up.
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, n := range []*Node{a, b} {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := barrier(ctx, n); err != nil {
				t.Errorf("healthy barrier: %v", err)
			}
		}(n)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Enter the next collective, then kill -9 the coordinator while the
	// clients are blocked in it. (The helper's own barrier loop means
	// the round cannot complete without the coordinator's contribution
	// from a process that no longer exists.)
	type res struct {
		err     error
		elapsed time.Duration
	}
	results := make(chan res, 2)
	start := time.Now()
	for _, n := range []*Node{a, b} {
		go func(n *Node) {
			err := barrier(ctx, n)
			// One barrier may complete (the helper contributed before
			// dying); the next one cannot.
			for err == nil {
				err = barrier(ctx, n)
			}
			results <- res{err, time.Since(start)}
		}(n)
	}
	time.Sleep(50 * time.Millisecond) // let both clients block in the round
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	killed = true

	// Every client gets a typed error well within the heartbeat window
	// (plus scheduling slack) — no hang on the half-open connection.
	budget := opts.HeartbeatTimeout + 3*time.Second
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			rf, ok := mpi.AsRankFailed(r.err)
			if !ok {
				t.Fatalf("client error not typed: %v", r.err)
			}
			if rf.Rank != -1 && rf.Rank != 0 {
				t.Fatalf("blamed rank %d, want coordinator (-1 or 0)", rf.Rank)
			}
			if r.elapsed > budget {
				t.Fatalf("detection took %v, budget %v", r.elapsed, budget)
			}
		case <-time.After(budget + 2*time.Second):
			t.Fatal("client still hanging after coordinator kill")
		}
	}
}
