package mpinet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
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

// TestEarlyDeathReachesLastJoiner: rank 1 joins and dies before rank 3
// joins. No round runs before membership settles, so rank 3 starts at
// round 0 like everyone else and learns of the death from the same
// aborted round as ranks 0 and 2; the next round completes.
func TestEarlyDeathReachesLastJoiner(t *testing.T) {
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
	one.conn.Close()
	time.Sleep(50 * time.Millisecond) // the coordinator sees the death first
	three := joinRank(t, host.Addr(), 3)
	defer three.Close()

	// A bounded first round: a rank that missed the abort would wait for
	// a round nobody else enters.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nodes := []*Node{host, two, three}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = barrier(ctx, n)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if rf, ok := mpi.AsRankFailed(err); !ok || rf.Rank != 1 {
			t.Fatalf("rank %d's first round: %v, want rank 1 failed", nodes[i].Rank(), err)
		}
	}
	for r, err := range barrierAll(nodes) {
		if err != nil {
			t.Fatalf("rank %d after the abort: %v", r, err)
		}
	}
}

// TestSlowJoinerDeclaresNobodyDead: a slot that joins after twice
// HeartbeatTimeout, while rank 1 is blocked in its first collective,
// costs only time: heartbeats flow during the join phase, nobody is
// declared dead and the round completes.
func TestSlowJoinerDeclaresNobodyDead(t *testing.T) {
	opts := fastOpts()
	host, err := Host("127.0.0.1:0", 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	one := joinRank(t, host.Addr(), 1)
	defer one.Close()
	failures := mRankFailures.Value()

	errs := make(chan error, 3)
	enter := func(n *Node) { errs <- barrier(context.Background(), n) }
	go enter(host)
	go enter(one)
	time.Sleep(2 * opts.HeartbeatTimeout)
	select {
	case err := <-errs:
		t.Fatalf("first round ended before the last slot joined: %v", err)
	default:
	}
	two := joinRank(t, host.Addr(), 2)
	defer two.Close()
	go enter(two)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("first round: %v", err)
		}
	}
	if n := mRankFailures.Value() - failures; n != 0 {
		t.Fatalf("%d ranks declared dead during the join phase", n)
	}
}

// TestClaimRejected: a slot is claimed once. A taken or out-of-range
// slot is refused with ErrClaimRejected without disturbing the cluster,
// an anonymous join takes the lowest free slot, and once every slot has
// joined the listener is gone.
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

	anon, err := Join(addr, fastOpts())
	if err != nil {
		t.Fatalf("anonymous join: %v", err)
	}
	defer anon.Close()
	if anon.Rank() != 2 {
		t.Fatalf("anonymous join got rank %d, want 2", anon.Rank())
	}
	for r, err := range barrierAll([]*Node{host, one, anon}) {
		if err != nil {
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

// TestHelloAfterJoinWindowRejected: a connection accepted during the
// join window whose hello arrives after it closed is refused at once
// with the reject magic, not left waiting for a join phase that is over.
func TestHelloAfterJoinWindowRejected(t *testing.T) {
	opts := fastOpts()
	opts.DialTimeout = 200 * time.Millisecond
	host, err := Host("127.0.0.1:0", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	conn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wantRankFailed(t, barrier(context.Background(), host), 1)

	var hello [helloSize]byte
	copy(hello[:4], handshakeMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(1))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var reply [replyHdrSize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatalf("no reply to a late hello: %v", err)
	}
	if string(reply[:4]) != rejectMagic {
		t.Fatalf("late hello answered %q, want %q", reply[:4], rejectMagic)
	}
}
