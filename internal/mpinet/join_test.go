package mpinet

import (
	"errors"
	"testing"
	"time"
)

// claimOpts returns fastOpts pinning a rank claim.
func claimOpts(rank int) Options {
	o := fastOpts()
	o.ClaimRank = rank
	return o
}

// joinRank joins the cluster at addr claiming rank, failing the test on
// error or a different assignment.
func joinRank(t *testing.T, addr string, rank int) *Node {
	t.Helper()
	n, err := Join(addr, claimOpts(rank))
	if err != nil {
		t.Fatalf("join rank %d: %v", rank, err)
	}
	if n.Rank() != rank {
		t.Fatalf("claimed rank %d, got %d", rank, n.Rank())
	}
	return n
}

// TestRejoinHandshakeCarriesDeadSet: a worker that joins for the first
// time after another rank has died learns the dead set from its
// handshake, so its view of the survivors matches the incumbents'.
func TestRejoinHandshakeCarriesDeadSet(t *testing.T) {
	const size = 4
	host, err := Host("127.0.0.1:0", size, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	one := joinRank(t, host.Addr(), 1)
	defer one.Close()
	two := joinRank(t, host.Addr(), 2)
	defer two.Close()

	// Rank 1 dies while rank 3 has not joined yet; the round in progress
	// aborts for both survivors.
	one.conn.Close()
	errs := barrierAll([]*Node{host, nil, two, nil})
	wantRankFailed(t, errs[0], 1)
	wantRankFailed(t, errs[2], 1)

	three := joinRank(t, host.Addr(), 3)
	defer three.Close()
	if got := three.InitialDead(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("InitialDead = %v, want [1]", got)
	}
	if got := two.InitialDead(); len(got) != 0 {
		t.Fatalf("incumbent InitialDead = %v, want empty", got)
	}
	for r, err := range barrierAll([]*Node{host, nil, two, three}) {
		if r != 1 && err != nil {
			t.Fatalf("rank %d after the late join: %v", r, err)
		}
	}
}

// TestClaimRejected: a slot is claimed once. A taken, out-of-range or
// dead slot is refused with ErrClaimRejected without disturbing the
// cluster, an anonymous join skips the dead slot, and once every slot
// has joined the listener is gone.
func TestClaimRejected(t *testing.T) {
	const size = 3
	host, err := Host("127.0.0.1:0", size, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	addr := host.Addr()
	one := joinRank(t, addr, 1)
	defer one.Close()

	if _, err := Join(addr, claimOpts(1)); !errors.Is(err, ErrClaimRejected) {
		t.Fatalf("taken slot: want ErrClaimRejected, got %v", err)
	}
	if _, err := Join(addr, claimOpts(size+5)); !errors.Is(err, ErrClaimRejected) {
		t.Fatalf("out-of-range claim: want ErrClaimRejected, got %v", err)
	}

	one.conn.Close()
	wantRankFailed(t, barrierAll([]*Node{host})[0], 1)
	if _, err := Join(addr, claimOpts(1)); !errors.Is(err, ErrClaimRejected) {
		t.Fatalf("dead slot: want ErrClaimRejected, got %v", err)
	}

	anon, err := Join(addr, fastOpts())
	if err != nil {
		t.Fatalf("anonymous join: %v", err)
	}
	defer anon.Close()
	if anon.Rank() != 2 {
		t.Fatalf("anonymous join got rank %d, want 2", anon.Rank())
	}
	for r, err := range barrierAll([]*Node{host, nil, anon}) {
		if r != 1 && err != nil {
			t.Fatalf("rank %d after rejected claims: %v", r, err)
		}
	}

	late := fastOpts()
	late.DialTimeout = 200 * time.Millisecond
	if _, err := Join(addr, late); err == nil || errors.Is(err, ErrClaimRejected) {
		t.Fatalf("join after every slot joined: want a dial error, got %v", err)
	}
}

// TestUnjoinedSlotFailsWhenJoinWindowCloses: a slot that never joins is
// declared failed once DialTimeout passes, exactly like a silent peer,
// and the survivors carry on without it.
func TestUnjoinedSlotFailsWhenJoinWindowCloses(t *testing.T) {
	opts := fastOpts()
	opts.DialTimeout = 300 * time.Millisecond
	host, err := Host("127.0.0.1:0", 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	one, err := Join(host.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()

	start := time.Now()
	errs := barrierAll([]*Node{host, one})
	wantRankFailed(t, errs[0], 2)
	wantRankFailed(t, errs[1], 2)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("unjoined slot failed after %v, want ≈ DialTimeout", wall)
	}
	for r, err := range barrierAll([]*Node{host, one}) {
		if err != nil {
			t.Fatalf("rank %d after the join window: %v", r, err)
		}
	}
}
