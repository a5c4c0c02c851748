package mpinet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

func wantRankRevived(t *testing.T, err error, rank int) {
	t.Helper()
	rr, ok := mpi.AsRankRevived(err)
	if !ok {
		t.Fatalf("want RankRevivedError, got %v", err)
	}
	if rr.Rank != rank {
		t.Fatalf("want revived rank %d, got %d (%v)", rank, rr.Rank, err)
	}
}

// claimOpts returns fastOpts pinning a rank claim.
func claimOpts(rank int, token uint64) Options {
	o := fastOpts()
	o.ClaimRank = rank
	o.ClaimToken = token
	return o
}

// startClaimedCluster hosts a cluster whose clients each pin their rank
// with a distinct token (tokens[r] = base+r), the way netlaunch wires
// supervised rank processes.
func startClaimedCluster(t *testing.T, size int, base uint64) []*Node {
	t.Helper()
	host, err := Host("127.0.0.1:0", size, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, size)
	nodes[0] = host
	var wg sync.WaitGroup
	var mu sync.Mutex
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n, err := Join(host.Addr(), claimOpts(r, base+uint64(r)))
			if err != nil {
				t.Errorf("join rank %d: %v", r, err)
				return
			}
			if n.Rank() != r {
				t.Errorf("claimed rank %d, got %d", r, n.Rank())
			}
			mu.Lock()
			nodes[r] = n
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return nodes
}

// convergeBarrier drives every node's Barrier through retries until a
// common round succeeds, returning the first revival error each rank
// observed along the way. After a rejoin, survivors each hold exactly
// one pending opRevive abort (delivered to their blocked collective or
// buffered for their next one); retrying past it re-aligns the cluster.
func convergeBarrier(t *testing.T, nodes []*Node) []error {
	t.Helper()
	seen := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for tries := 0; tries < 20; tries++ {
				err := barrier(context.Background(), n)
				if err == nil {
					return
				}
				if _, ok := mpi.AsRankRevived(err); ok {
					if seen[i] == nil {
						seen[i] = err
					}
					continue
				}
				t.Errorf("rank %d: unexpected barrier error: %v", n.Rank(), err)
				return
			}
			t.Errorf("rank %d: barrier never converged", n.Rank())
		}(i, n)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return seen
}

// TestRejoinReclaimsDeadSlot is the supervised-restart happy path: a
// rank dies, survivors observe the death, a new process claims the dead
// slot with the matching token, survivors observe the revival, and the
// full cluster completes collectives again.
func TestRejoinReclaimsDeadSlot(t *testing.T) {
	const size, base = 3, uint64(7000)
	nodes := startClaimedCluster(t, size, base)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	// Round 0: everyone up.
	for r, err := range barrierAll(nodes) {
		if err != nil {
			t.Fatalf("rank %d initial barrier: %v", r, err)
		}
	}

	// Rank 2 crashes.
	nodes[2].conn.Close()
	survivors := []*Node{nodes[0], nodes[1], nil}
	errs := barrierAll(survivors)
	wantRankFailed(t, errs[0], 2)
	wantRankFailed(t, errs[1], 2)

	// A survivors-only round succeeds (the cluster runs degraded).
	for r, err := range barrierAll(survivors) {
		if survivors[r] != nil && err != nil {
			t.Fatalf("rank %d degraded barrier: %v", r, err)
		}
	}

	// The supervised restart claims the slot back; each survivor's next
	// collective aborts with the typed revival error.
	rejoined, joinErr := Join(nodes[0].Addr(), claimOpts(2, base+2))
	if joinErr != nil {
		t.Fatalf("rejoin: %v", joinErr)
	}
	defer rejoined.Close()
	if rejoined.Rank() != 2 {
		t.Fatalf("rejoined as rank %d, want 2", rejoined.Rank())
	}
	if got := rejoined.InitialDead(); len(got) != 0 {
		t.Fatalf("rejoined InitialDead = %v, want empty", got)
	}

	nodes[2] = rejoined
	seen := convergeBarrier(t, nodes)
	wantRankRevived(t, seen[0], 2)
	wantRankRevived(t, seen[1], 2)
	if seen[2] != nil {
		t.Fatalf("rejoined rank saw a revival abort for itself: %v", seen[2])
	}

	// Full-strength rounds work again and stay round-aligned.
	for round := 0; round < 3; round++ {
		for r, err := range barrierAll(nodes) {
			if err != nil {
				t.Fatalf("round %d rank %d after rejoin: %v", round, r, err)
			}
		}
	}
}

// TestRejoinWrongTokenRejected: a claim on an owned slot with the wrong
// token must fail with the typed sentinel, without disturbing the
// cluster.
func TestRejoinWrongTokenRejected(t *testing.T) {
	const size, base = 3, uint64(9000)
	nodes := startClaimedCluster(t, size, base)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	nodes[1].conn.Close()
	errs := barrierAll([]*Node{nodes[0], nil, nodes[2]})
	wantRankFailed(t, errs[0], 1)
	wantRankFailed(t, errs[2], 1)

	if _, err := Join(nodes[0].Addr(), claimOpts(1, base+999)); !errors.Is(err, ErrClaimRejected) {
		t.Fatalf("wrong token: want ErrClaimRejected, got %v", err)
	}
	// Out-of-range claims are rejected too.
	if _, err := Join(nodes[0].Addr(), claimOpts(size+5, base+1)); !errors.Is(err, ErrClaimRejected) {
		t.Fatalf("out-of-range claim: want ErrClaimRejected, got %v", err)
	}

	// The cluster is unaffected: survivors still complete rounds.
	for r, err := range barrierAll([]*Node{nodes[0], nil, nodes[2]}) {
		if r != 1 && err != nil {
			t.Fatalf("rank %d after rejected claims: %v", r, err)
		}
	}
}

// TestRejoinHandshakeCarriesDeadSet: a rank rejoining a cluster that
// has OTHER dead ranks learns them from the handshake, so its view of
// the survivor set matches the incumbents'.
func TestRejoinHandshakeCarriesDeadSet(t *testing.T) {
	const size, base = 4, uint64(11000)
	nodes := startClaimedCluster(t, size, base)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	// Kill ranks 1 and 3; drive rounds until both deaths are delivered.
	nodes[1].conn.Close()
	nodes[3].conn.Close()
	dead := map[int]bool{}
	for tries := 0; len(dead) < 2 && tries < 10; tries++ {
		errs := barrierAll([]*Node{nodes[0], nil, nodes[2], nil})
		for _, err := range errs {
			if rf, ok := mpi.AsRankFailed(err); ok {
				dead[rf.Rank] = true
			}
		}
	}
	if !dead[1] || !dead[3] {
		t.Fatalf("deaths not observed: %v", dead)
	}

	rejoined, joinErr := Join(nodes[0].Addr(), claimOpts(1, base+1))
	if joinErr != nil {
		t.Fatalf("rejoin: %v", joinErr)
	}
	defer rejoined.Close()

	got := rejoined.InitialDead()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("InitialDead = %v, want [3]", got)
	}

	// Survivors absorb the revival abort, then the three live ranks
	// complete a round together.
	nodes[1] = rejoined
	live := []*Node{nodes[0], nodes[1], nodes[2], nil}
	seen := convergeBarrier(t, live)
	wantRankRevived(t, seen[0], 1)
	wantRankRevived(t, seen[2], 1)
	for r, err := range barrierAll(live) {
		if r != 3 && err != nil {
			t.Fatalf("rank %d after rejoin: %v", r, err)
		}
	}
}

// TestRejoinSupersedesSilentConn: a rank whose process was killed
// silently (its TCP conn looks half-open) restarts and reclaims its
// slot while the old connection is still installed. The claim supersedes
// it: survivors see the death then the revival, and the cluster runs at
// full strength again.
func TestRejoinSupersedesSilentConn(t *testing.T) {
	const size, base = 3, uint64(13000)
	nodes := startClaimedCluster(t, size, base)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	for r, err := range barrierAll(nodes) {
		if err != nil {
			t.Fatalf("rank %d initial barrier: %v", r, err)
		}
	}

	// Restart rank 2 without the coordinator ever seeing its old conn
	// die: the replacement claim itself is the death signal.
	var rejoined *Node
	var joinErr error
	var jwg sync.WaitGroup
	jwg.Add(1)
	go func() {
		defer jwg.Done()
		rejoined, joinErr = Join(nodes[0].Addr(), claimOpts(2, base+2))
	}()
	// Survivors first absorb the supersession death, then the revival.
	sawFailed, sawRevived := false, false
	for tries := 0; !(sawFailed && sawRevived) && tries < 10; tries++ {
		errs := barrierAll([]*Node{nodes[0], nodes[1], nil})
		for _, err := range errs[:2] {
			if rf, ok := mpi.AsRankFailed(err); ok && rf.Rank == 2 {
				sawFailed = true
			}
			if rr, ok := mpi.AsRankRevived(err); ok && rr.Rank == 2 {
				sawRevived = true
			}
		}
	}
	jwg.Wait()
	if joinErr != nil {
		t.Fatalf("superseding rejoin: %v", joinErr)
	}
	if !sawFailed || !sawRevived {
		t.Fatalf("supersession not observed: failed=%v revived=%v", sawFailed, sawRevived)
	}
	nodes[2].conn.Close() // the half-open original; already superseded
	nodes[2] = rejoined

	for round := 0; round < 3; round++ {
		for r, err := range barrierAll(nodes) {
			if err != nil {
				t.Fatalf("round %d rank %d after supersession: %v", round, r, err)
			}
		}
	}
}

// TestRoundTimeoutDeclaresLaggardDead: with Options.RoundTimeout set, a
// rank that keeps heartbeating but never enters the collective is
// declared failed once the deadline passes, so a wedged-but-alive
// process cannot stall the cluster.
func TestRoundTimeoutDeclaresLaggardDead(t *testing.T) {
	opts := fastOpts()
	opts.RoundTimeout = 300 * time.Millisecond
	nodes := startCluster(t, 3, opts)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	// Rank 2 never calls Barrier; its heartbeat loop keeps it "alive".
	laggard := nodes[2].Rank()
	start := time.Now()
	errs := barrierAll([]*Node{nodes[0], nodes[1], nil})
	elapsed := time.Since(start)
	wantRankFailed(t, errs[0], laggard)
	wantRankFailed(t, errs[1], laggard)
	if elapsed > 5*time.Second {
		t.Fatalf("round timeout took %v, want ≈ RoundTimeout", elapsed)
	}

	// Survivors complete rounds afterwards.
	for r, err := range barrierAll([]*Node{nodes[0], nodes[1], nil}) {
		if r != 2 && err != nil {
			t.Fatalf("rank %d after laggard death: %v", r, err)
		}
	}
}

// TestRejoinDuringExchangeRestripes exercises the app-level contract:
// an Exchange aborted by a revival can be retried with the revived rank
// back in the stripe, and payloads route correctly afterwards.
func TestRejoinDuringExchangeRestripes(t *testing.T) {
	const size, base = 3, uint64(15000)
	nodes := startClaimedCluster(t, size, base)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	nodes[1].conn.Close()
	errs := barrierAll([]*Node{nodes[0], nil, nodes[2]})
	wantRankFailed(t, errs[0], 1)
	wantRankFailed(t, errs[2], 1)

	rejoined, joinErr := Join(nodes[0].Addr(), claimOpts(1, base+1))
	if joinErr != nil {
		t.Fatalf("rejoin: %v", joinErr)
	}
	defer rejoined.Close()
	nodes[1] = rejoined
	seen := convergeBarrier(t, nodes)
	wantRankRevived(t, seen[0], 1)
	wantRankRevived(t, seen[2], 1)

	// Personalized all-to-all across the restored membership.
	payload := func(src, dst int) []byte { return []byte{byte(src)<<4 | byte(dst)} }
	type res struct {
		in  [][]byte
		err error
	}
	results := make([]res, size)
	var wg sync.WaitGroup
	for r, n := range nodes {
		wg.Add(1)
		go func(r int, n *Node) {
			defer wg.Done()
			out := make([][]byte, size)
			for dst := 0; dst < size; dst++ {
				out[dst] = payload(r, dst)
			}
			in, err := n.Exchange(context.Background(), out)
			results[r] = res{in, err}
		}(r, n)
	}
	wg.Wait()
	for dst := 0; dst < size; dst++ {
		if results[dst].err != nil {
			t.Fatalf("rank %d exchange: %v", dst, results[dst].err)
		}
		for src := 0; src < size; src++ {
			got := results[dst].in[src]
			want := payload(src, dst)
			if len(got) != 1 || got[0] != want[0] {
				t.Fatalf("rank %d from %d: got %v want %v", dst, src, got, want)
			}
		}
	}
}
