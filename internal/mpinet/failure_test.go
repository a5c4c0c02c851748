package mpinet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mpi"
)

// fastOpts makes failure detection quick enough for tests.
func fastOpts() Options {
	return Options{
		DialTimeout:       5 * time.Second,
		IOTimeout:         5 * time.Second,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
	}
}

// startCluster hosts a size-rank cluster and joins size-1 clients,
// returning nodes indexed by rank.
func startCluster(t *testing.T, size int, opts Options) []*Node {
	t.Helper()
	host, err := Host("127.0.0.1:0", size, opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, size)
	nodes[0] = host
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := Join(host.Addr(), opts)
			if err != nil {
				t.Errorf("join: %v", err)
				return
			}
			mu.Lock()
			nodes[n.Rank()] = n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return nodes
}

// barrierAll runs Barrier concurrently on the given nodes and returns
// the per-node errors.
func barrierAll(nodes []*Node) []error {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = barrier(context.Background(), n)
		}(i, n)
	}
	wg.Wait()
	return errs
}

func wantRankFailed(t *testing.T, err error, rank int) {
	t.Helper()
	rf, ok := mpi.AsRankFailed(err)
	if !ok {
		t.Fatalf("error %v is not a RankFailedError", err)
	}
	if rf.Rank != rank {
		t.Fatalf("RankFailedError.Rank = %d, want %d", rf.Rank, rank)
	}
}

// TestRankDeathAbortAndRetry is the core failure-tolerance contract:
// when a rank dies, every survivor's pending collective returns a typed
// RankFailedError naming the same dead rank, and a retried collective
// completes among the survivors with nil blobs in the dead slots.
func TestRankDeathAbortAndRetry(t *testing.T) {
	const size = 3
	nodes := startCluster(t, size, fastOpts())
	defer func() {
		for i := size - 1; i >= 0; i-- {
			if nodes[i] != nil {
				nodes[i].Close()
			}
		}
	}()

	// Healthy round first.
	for i, err := range barrierAll(nodes) {
		if err != nil {
			t.Fatalf("healthy barrier rank %d: %v", i, err)
		}
	}

	// Kill rank 2.
	const victim = 2
	nodes[victim].Close()
	nodes[victim] = nil

	// Survivors' next collective fails, all naming rank 2.
	errs := barrierAll(nodes)
	for _, i := range []int{0, 1} {
		if errs[i] == nil {
			t.Fatalf("rank %d barrier succeeded after peer death", i)
		}
		wantRankFailed(t, errs[i], victim)
	}

	// Retry: succeeds among survivors.
	for i, err := range barrierAll(nodes) {
		if err != nil {
			t.Fatalf("retry barrier rank %d: %v", i, err)
		}
	}

	// Exchange delivers nil from the dead rank.
	exErrs := make([]error, size)
	ins := make([][][]byte, size)
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			out := make([][]byte, size)
			for dst := range out {
				out[dst] = []byte{byte(i), byte(dst)}
			}
			ins[i], exErrs[i] = n.Exchange(context.Background(), out)
		}(i, n)
	}
	wg.Wait()
	for _, i := range []int{0, 1} {
		if exErrs[i] != nil {
			t.Fatalf("exchange rank %d: %v", i, exErrs[i])
		}
		if len(ins[i][victim]) != 0 {
			t.Errorf("rank %d received %v from dead rank", i, ins[i][victim])
		}
		for _, src := range []int{0, 1} {
			want := []byte{byte(src), byte(i)}
			if string(ins[i][src]) != string(want) {
				t.Errorf("rank %d from %d = %v, want %v", i, src, ins[i][src], want)
			}
		}
	}

	// Gather leaves the dead slot nil on rank 0.
	gaErrs := make([]error, size)
	var gathered [][]byte
	for i, n := range nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			var g [][]byte
			g, gaErrs[i] = mpi.Gather(context.Background(), n, []byte{byte(100 + i)})
			if i == 0 {
				gathered = g
			}
		}(i, n)
	}
	wg.Wait()
	for _, i := range []int{0, 1} {
		if gaErrs[i] != nil {
			t.Fatalf("gather rank %d: %v", i, gaErrs[i])
		}
	}
	if len(gathered) != size {
		t.Fatalf("gather result has %d slots", len(gathered))
	}
	if len(gathered[victim]) != 0 {
		t.Errorf("gather slot for dead rank = %v", gathered[victim])
	}
	for _, i := range []int{0, 1} {
		if len(gathered[i]) != 1 || gathered[i][0] != byte(100+i) {
			t.Errorf("gather[%d] = %v", i, gathered[i])
		}
	}
}

// TestTwoDeathsNearSimultaneous kills two ranks at once; survivors keep
// retrying and must observe exactly the two dead ranks (in any order)
// before the barrier completes again.
func TestTwoDeathsNearSimultaneous(t *testing.T) {
	const size = 4
	nodes := startCluster(t, size, fastOpts())
	defer func() {
		for i := size - 1; i >= 0; i-- {
			if nodes[i] != nil {
				nodes[i].Close()
			}
		}
	}()
	for i, err := range barrierAll(nodes) {
		if err != nil {
			t.Fatalf("healthy barrier rank %d: %v", i, err)
		}
	}
	nodes[1].Close()
	nodes[1] = nil
	nodes[3].Close()
	nodes[3] = nil

	seen := map[int]map[int]bool{0: {}, 2: {}}
	for attempt := 0; attempt < 10; attempt++ {
		errs := barrierAll(nodes)
		if errs[0] == nil && errs[2] == nil {
			break
		}
		for _, i := range []int{0, 2} {
			if errs[i] == nil {
				continue
			}
			rf, ok := mpi.AsRankFailed(errs[i])
			if !ok {
				t.Fatalf("rank %d: non-typed error %v", i, errs[i])
			}
			seen[i][rf.Rank] = true
		}
		if attempt == 9 {
			t.Fatal("barrier never recovered after two deaths")
		}
	}
	for _, i := range []int{0, 2} {
		if !seen[i][1] || !seen[i][3] || len(seen[i]) != 2 {
			t.Errorf("rank %d observed dead ranks %v, want {1,3}", i, seen[i])
		}
	}
}

// TestSilentRankDetectedByHeartbeat joins a rank that never sends
// anything (its heartbeat interval is an hour) and verifies the
// coordinator's failure detector declares it dead rather than letting
// the survivors hang.
func TestSilentRankDetectedByHeartbeat(t *testing.T) {
	opts := fastOpts()
	host, err := Host("127.0.0.1:0", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	silent := opts
	silent.HeartbeatInterval = time.Hour
	client, err := Join(host.Addr(), silent)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() { done <- barrier(context.Background(), host) }()
	select {
	case err := <-done:
		wantRankFailed(t, err, 1)
	case <-time.After(10 * time.Second):
		t.Fatal("barrier hung: failure detector never fired")
	}
}

// TestFlakyConnTornFrame severs a client's connection mid-frame using
// the deterministic fault injector: the victim's own collective fails,
// and the survivors see a typed abort naming the victim.
func TestFlakyConnTornFrame(t *testing.T) {
	const size = 3
	opts := fastOpts()
	host, err := Host("127.0.0.1:0", size, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	victimOpts := opts
	victimOpts.HeartbeatInterval = time.Hour // all written bytes budget to the torn frame
	var flaky *faultinject.FlakyConn
	victimOpts.WrapConn = func(c net.Conn) net.Conn {
		// The 16-byte join hello goes through intact; the cut lands 6
		// bytes into the first collective frame.
		flaky = faultinject.NewFlakyConn(c, faultinject.ConnFaults{CutAfterWriteBytes: helloSize + 6})
		return flaky
	}
	victim, err := Join(host.Addr(), victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	bystander, err := Join(host.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	var wg sync.WaitGroup
	var hostErr, byErr, vicErr error
	wg.Add(3)
	go func() { defer wg.Done(); hostErr = barrier(context.Background(), host) }()
	go func() { defer wg.Done(); byErr = barrier(context.Background(), bystander) }()
	go func() { defer wg.Done(); vicErr = barrier(context.Background(), victim) }()
	wg.Wait()

	if vicErr == nil {
		t.Fatal("victim's barrier succeeded through a severed conn")
	}
	if !flaky.Severed() {
		t.Fatal("fault never fired")
	}
	wantRankFailed(t, hostErr, victim.Rank())
	wantRankFailed(t, byErr, victim.Rank())

	// Survivors recover.
	survivors := []*Node{host, bystander}
	var wg2 sync.WaitGroup
	errs := make([]error, 2)
	for i, n := range survivors {
		wg2.Add(1)
		go func(i int, n *Node) { defer wg2.Done(); errs[i] = barrier(context.Background(), n) }(i, n)
	}
	wg2.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("survivor %d retry: %v", i, err)
		}
	}
}

// TestJoinFailsFastWhenRefused bounds Join's retry loop by DialTimeout.
func TestJoinFailsFastWhenRefused(t *testing.T) {
	opts := Options{DialTimeout: 300 * time.Millisecond}
	start := time.Now()
	_, err := Join("127.0.0.1:1", opts) // nothing listens on port 1
	if err == nil {
		t.Fatal("Join to dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Join took %v, want ~%v", elapsed, opts.DialTimeout)
	}
}

// TestJoinRetriesUntilHostAppears starts the coordinator after a delay;
// Join's backoff loop must ride it out.
func TestJoinRetriesUntilHostAppears(t *testing.T) {
	// Reserve a port, free it, and host there shortly after.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	hostCh := make(chan *Node, 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		h, err := Host(addr, 2, fastOpts())
		if err != nil {
			t.Errorf("late host: %v", err)
			hostCh <- nil
			return
		}
		hostCh <- h
	}()
	n, err := Join(addr, fastOpts())
	if err != nil {
		t.Fatalf("Join did not ride out the late host: %v", err)
	}
	defer n.Close()
	host := <-hostCh
	if host == nil {
		t.FailNow()
	}
	defer host.Close()
	for i, err := range barrierAll([]*Node{host, n}) {
		if err != nil {
			t.Fatalf("rank %d barrier: %v", i, err)
		}
	}
}

// TestJoinFlakyConnDuringHandshake severs the joiner's connection
// mid-handshake (after 4 of the 12 handshake bytes): Join must return
// an error promptly instead of hanging on the half-read handshake.
func TestJoinFlakyConnDuringHandshake(t *testing.T) {
	opts := fastOpts()
	opts.IOTimeout = 500 * time.Millisecond
	host, err := Host("127.0.0.1:0", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	joinOpts := opts
	joinOpts.WrapConn = func(c net.Conn) net.Conn {
		return faultinject.NewFlakyConn(c, faultinject.ConnFaults{CutAfterReadBytes: 4})
	}
	start := time.Now()
	n, err := Join(host.Addr(), joinOpts)
	if err == nil {
		n.Close()
		t.Fatal("Join succeeded through a connection severed mid-handshake")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Join took %v to fail; the torn handshake should bound it by IOTimeout", elapsed)
	}
}

// TestCollectivesAfterAllClientsDead degenerates the cluster to rank 0
// alone; collectives must still complete locally.
func TestCollectivesAfterAllClientsDead(t *testing.T) {
	const size = 3
	nodes := startCluster(t, size, fastOpts())
	defer nodes[0].Close()
	nodes[1].Close()
	nodes[2].Close()
	host := nodes[0]

	deadline := time.Now().Add(10 * time.Second)
	for {
		err := barrier(context.Background(), host)
		if err == nil {
			break
		}
		if _, ok := mpi.AsRankFailed(err); !ok {
			t.Fatalf("non-typed error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("barrier never recovered with rank 0 alone")
		}
	}
	got, err := mpi.Gather(context.Background(), host, []byte{42})
	if err != nil {
		t.Fatalf("solo gather: %v", err)
	}
	if len(got) != size || got[0][0] != 42 || got[1] != nil || got[2] != nil {
		t.Fatalf("solo gather = %v", got)
	}
}

func TestRankFailedErrorMessage(t *testing.T) {
	e := &mpi.RankFailedError{Rank: 3, Op: "Exchange", Err: fmt.Errorf("boom")}
	if e.Error() == "" || e.Unwrap() == nil {
		t.Fatal("degenerate error formatting")
	}
	coord := &mpi.RankFailedError{Rank: -1, Op: "Exchange"}
	if coord.Error() == "" {
		t.Fatal("empty coordinator-failure message")
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
