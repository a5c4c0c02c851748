package core

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/synthpop"
)

// buildLogs runs a small ABM and returns its per-rank log paths plus the
// reference network synthesized serially.
func buildLogs(t *testing.T, seed int64) ([]string, *sparse.Tri) {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: 400, Seed: uint64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, uint64(seed))
	res, err := abm.Run(context.Background(), abm.Config{Pop: pop, Gen: gen, Ranks: 5, Days: 2, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := SynthesizeFiles(context.Background(), res.LogPaths, 0, 48, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.LogPaths, serial
}

// TestSynthesizeDistributedSurvivesRankDeath kills one rank before it
// contributes anything; the survivors must re-stripe its files and
// produce the bit-identical network.
func TestSynthesizeDistributedSurvivesRankDeath(t *testing.T) {
	paths, serial := buildLogs(t, 91)

	opts := mpinet.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	const size = 3
	host, err := mpinet.Host("127.0.0.1:0", size, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	survivor, err := mpinet.Join(host.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	victim, err := mpinet.Join(host.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	victimRank := victim.Rank()
	// The victim dies before participating in any collective.
	victim.Close()

	var wg sync.WaitGroup
	var hostTri, survTri *sparse.Tri
	var hostErr, survErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		hostTri, _, hostErr = SynthesizeDistributed(context.Background(), host, paths, 0, 48, Config{Workers: 1})
	}()
	go func() {
		defer wg.Done()
		survTri, _, survErr = SynthesizeDistributed(context.Background(), survivor, paths, 0, 48, Config{Workers: 1})
	}()
	wg.Wait()

	if hostErr != nil {
		t.Fatalf("rank 0: %v", hostErr)
	}
	if survErr != nil {
		t.Fatalf("rank %d: %v", survivor.Rank(), survErr)
	}
	if survTri != nil {
		t.Error("non-root rank received a network")
	}
	if hostTri == nil || !hostTri.Equal(serial) {
		t.Fatalf("network after rank %d death differs from healthy reference", victimRank)
	}
}

// TestSynthesizeDistributedSurvivesInProcessRankDeath is the same
// contract without sockets: under mpi.Run, rank 1 returns before the
// result gather, the survivors re-stripe its files, and mpi.Run reports
// rank 1's own error.
func TestSynthesizeDistributedSurvivesInProcessRankDeath(t *testing.T) {
	paths, serial := buildLogs(t, 93)

	const size, victim = 3, 1
	lost := errors.New("rank 1 lost")
	results := make([]*sparse.Tri, size)
	err := mpi.Run(size, func(tr mpi.Transport) error {
		if tr.Rank() == victim {
			return lost
		}
		tri, _, err := SynthesizeDistributed(context.Background(), tr, paths, 0, 48, Config{Workers: 1})
		results[tr.Rank()] = tri
		return err
	})
	if err != lost {
		t.Fatalf("mpi.Run error = %v, want the victim's own error", err)
	}
	if results[2] != nil {
		t.Error("non-root rank received a network")
	}
	if results[0] == nil || !results[0].Equal(serial) {
		t.Fatal("network after in-process rank death differs from SynthesizeFiles")
	}
}

// TestSynthesizeDistributedSurvivesMidGatherDeath severs the victim's
// connection mid-frame during its Gather contribution (a deterministic
// torn frame via the fault injector): the survivors see the abort, retry
// with the victim's files re-assigned, and still produce the
// bit-identical network.
func TestSynthesizeDistributedSurvivesMidGatherDeath(t *testing.T) {
	paths, serial := buildLogs(t, 92)

	opts := mpinet.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
	}
	const size = 3
	host, err := mpinet.Host("127.0.0.1:0", size, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	survivor, err := mpinet.Join(host.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	victimOpts := opts
	victimOpts.HeartbeatInterval = time.Hour // all written bytes budget to the torn frame
	victimOpts.WrapConn = func(c net.Conn) net.Conn {
		// The Gather frame (header + marshaled partial matrix) is far
		// larger than 64 bytes, so the cut tears it mid-frame.
		return faultinject.NewFlakyConn(c, faultinject.ConnFaults{CutAfterWriteBytes: 64})
	}
	victim, err := mpinet.Join(host.Addr(), victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	var wg sync.WaitGroup
	var hostTri *sparse.Tri
	var hostErr, survErr, vicErr error
	wg.Add(3)
	go func() {
		defer wg.Done()
		hostTri, _, hostErr = SynthesizeDistributed(context.Background(), host, paths, 0, 48, Config{Workers: 1})
	}()
	go func() {
		defer wg.Done()
		_, _, survErr = SynthesizeDistributed(context.Background(), survivor, paths, 0, 48, Config{Workers: 1})
	}()
	go func() {
		defer wg.Done()
		_, _, vicErr = SynthesizeDistributed(context.Background(), victim, paths, 0, 48, Config{Workers: 1})
	}()
	wg.Wait()

	if vicErr == nil {
		t.Fatal("victim's synthesis succeeded through a severed conn")
	}
	if hostErr != nil {
		t.Fatalf("rank 0: %v", hostErr)
	}
	if survErr != nil {
		t.Fatalf("survivor: %v", survErr)
	}
	if hostTri == nil || !hostTri.Equal(serial) {
		t.Fatal("network after mid-gather death differs from healthy reference")
	}
}

// TestSynthesizeDistributedSurvivesUnjoinedRank: rank 2 never joins.
// When the join window closes the coordinator declares it failed like a
// silent peer, and ranks 0 and 1 re-stripe its files and produce the
// SynthesizeFiles network.
func TestSynthesizeDistributedSurvivesUnjoinedRank(t *testing.T) {
	paths, serial := buildLogs(t, 94)

	opts := mpinet.Options{
		DialTimeout:       300 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	host, err := mpinet.Host("127.0.0.1:0", 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	survivor, err := mpinet.Join(host.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	var wg sync.WaitGroup
	var hostTri, survTri *sparse.Tri
	var hostErr, survErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		hostTri, _, hostErr = SynthesizeDistributed(context.Background(), host, paths, 0, 48, Config{Workers: 1})
	}()
	go func() {
		defer wg.Done()
		survTri, _, survErr = SynthesizeDistributed(context.Background(), survivor, paths, 0, 48, Config{Workers: 1})
	}()
	wg.Wait()

	if hostErr != nil {
		t.Fatalf("rank 0: %v", hostErr)
	}
	if survErr != nil {
		t.Fatalf("rank 1: %v", survErr)
	}
	if survTri != nil {
		t.Error("non-root rank received a network")
	}
	if hostTri == nil || !hostTri.Equal(serial) {
		t.Fatal("network without the unjoined rank differs from SynthesizeFiles")
	}
}
