package mpinet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/abm"
	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/synthpop"
)

var _ mpi.Transport = (*Node)(nil)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := frame{op: opExchange, blobs: [][]byte{{1, 2, 3}, nil, {}, {9}}}
	if err := writeFrame(w, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.op != in.op || len(out.blobs) != len(in.blobs) {
		t.Fatalf("frame = %+v", out)
	}
	if !bytes.Equal(out.blobs[0], []byte{1, 2, 3}) || !bytes.Equal(out.blobs[3], []byte{9}) {
		t.Fatalf("blobs = %v", out.blobs)
	}
	if len(out.blobs[1]) != 0 || len(out.blobs[2]) != 0 {
		t.Fatal("empty blobs not preserved as empty")
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Absurd length prefix.
	data := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
		t.Fatal("garbage length accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, frame{op: opBarrier}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// cluster starts a size-rank TCP cluster on loopback and runs fn on
// every rank concurrently.
func cluster(t *testing.T, size int, fn func(n *Node) error) {
	t.Helper()
	host, err := Host("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	addr := host.Addr()
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n, err := Join(addr)
			if err != nil {
				errs[r] = err
				return
			}
			defer n.Close()
			errs[r] = fn(n)
		}(r)
	}
	errs[0] = fn(host)
	wg.Wait()
	host.Close()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestHostValidation(t *testing.T) {
	if _, err := Host("127.0.0.1:0", 0); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestSingleRankLocalOnly(t *testing.T) {
	n, err := Host("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Rank() != 0 || n.Size() != 1 {
		t.Fatal("identity wrong")
	}
	if err := n.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := n.Exchange(context.Background(), [][]byte{{7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], []byte{7}) {
		t.Fatalf("self-exchange = %v", got)
	}
}

func TestRanksAssignedUniquely(t *testing.T) {
	const size = 5
	var mu sync.Mutex
	seen := map[int]bool{}
	cluster(t, size, func(n *Node) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[n.Rank()] {
			return fmt.Errorf("duplicate rank %d", n.Rank())
		}
		seen[n.Rank()] = true
		if n.Size() != size {
			return fmt.Errorf("size %d", n.Size())
		}
		return nil
	})
	if len(seen) != size {
		t.Fatalf("ranks = %v", seen)
	}
}

func TestBarrierRounds(t *testing.T) {
	cluster(t, 4, func(n *Node) error {
		for i := 0; i < 50; i++ {
			if err := n.Barrier(context.Background()); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestExchangeRouting(t *testing.T) {
	const size = 4
	cluster(t, size, func(n *Node) error {
		// Rank r sends byte [r, dst] to each dst.
		out := make([][]byte, size)
		for dst := 0; dst < size; dst++ {
			out[dst] = []byte{byte(n.Rank()), byte(dst)}
		}
		in, err := n.Exchange(context.Background(), out)
		if err != nil {
			return err
		}
		for src := 0; src < size; src++ {
			want := []byte{byte(src), byte(n.Rank())}
			if !bytes.Equal(in[src], want) {
				return fmt.Errorf("rank %d: from %d got %v, want %v", n.Rank(), src, in[src], want)
			}
		}
		return nil
	})
}

func TestExchangeRepeatedRounds(t *testing.T) {
	const size = 3
	cluster(t, size, func(n *Node) error {
		for round := 0; round < 30; round++ {
			out := make([][]byte, size)
			for dst := 0; dst < size; dst++ {
				out[dst] = []byte{byte(round), byte(n.Rank()), byte(dst)}
			}
			in, err := n.Exchange(context.Background(), out)
			if err != nil {
				return err
			}
			for src := 0; src < size; src++ {
				if len(in[src]) != 3 || in[src][0] != byte(round) || in[src][1] != byte(src) {
					return fmt.Errorf("round %d rank %d: bad blob %v", round, n.Rank(), in[src])
				}
			}
		}
		return nil
	})
}

func TestExchangeArityError(t *testing.T) {
	n, err := Host("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Exchange(context.Background(), make([][]byte, 3)); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestGather(t *testing.T) {
	const size = 4
	cluster(t, size, func(n *Node) error {
		got, err := n.Gather(context.Background(), []byte{byte(10 + n.Rank())})
		if err != nil {
			return err
		}
		if n.Rank() != 0 {
			if got != nil {
				return fmt.Errorf("non-root received gather data")
			}
			return nil
		}
		for r := 0; r < size; r++ {
			if len(got[r]) != 1 || got[r][0] != byte(10+r) {
				return fmt.Errorf("gather[%d] = %v", r, got[r])
			}
		}
		return nil
	})
}

// TestCloseAfterLastCollective is the shape of chisim's and netsynth's
// distributed exit: rank 0 closes its node the moment its last Gather
// returns. Every worker's reply must already be on its way by then, or
// the teardown races it and the worker sees the coordinator vanish.
func TestCloseAfterLastCollective(t *testing.T) {
	const size = 4
	for round := 0; round < 200; round++ {
		host, err := Host("127.0.0.1:0", size)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, size)
		var wg sync.WaitGroup
		for r := 1; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				n, err := Join(host.Addr())
				if err != nil {
					errs[r] = err
					return
				}
				defer n.Close()
				_, errs[r] = n.Gather(context.Background(), []byte{byte(r)})
			}(r)
		}
		_, errs[0] = host.Gather(context.Background(), []byte{0})
		host.Close()
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("round %d: rank %d: %v", round, r, err)
			}
		}
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	cluster(t, 3, func(n *Node) error {
		if err := n.Barrier(context.Background()); err != nil {
			return err
		}
		if _, err := n.Exchange(context.Background(), make([][]byte, 3)); err != nil {
			return err
		}
		if _, err := n.Gather(context.Background(), []byte{1}); err != nil {
			return err
		}
		return n.Barrier(context.Background())
	})
}

// TestABMOverTCPMatchesInProcess runs the same simulation through the
// in-process transport and through real TCP loopback connections, and
// requires bit-identical event logs.
func TestABMOverTCPMatchesInProcess(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 800, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 77)
	const ranks = 4
	const days = 2
	edges, loads := partition.TransitionGraph(pop, gen, days, pop.NumPersons())
	assign := partition.Spatial(pop, edges, loads, ranks)

	// Reference: in-process run.
	ref, err := abm.Run(context.Background(), abm.Config{
		Pop: pop, Gen: gen, Ranks: ranks, Days: days, Assign: assign,
		LogDir: t.TempDir(), Log: eventlog.Config{CacheEntries: 64},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: each rank a goroutine with its own TCP connection.
	dir := t.TempDir()
	host, err := Host("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	addr := host.Addr()
	results := make([]abm.RankResult, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	runRank := func(n *Node) (abm.RankResult, error) {
		return abm.RunRank(context.Background(), n, abm.RankConfig{
			Pop: pop, Gen: gen, Days: days, Assign: assign,
			LogPath: filepath.Join(dir, fmt.Sprintf("rank%04d.h5l", n.Rank())),
			Log:     eventlog.Config{CacheEntries: 64},
		})
	}
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n, err := Join(addr)
			if err != nil {
				errs[r] = err
				return
			}
			defer n.Close()
			results[n.Rank()], errs[r] = runRank(n)
		}(r)
	}
	results[0], errs[0] = runRank(host)
	wg.Wait()
	host.Close()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Compare event multisets.
	read := func(paths []string) map[eventlog.Entry]int {
		got := map[eventlog.Entry]int{}
		for _, p := range paths {
			rd, err := eventlog.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := rd.ForEach(func(e eventlog.Entry, _ []uint32) error {
				got[e]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			rd.Close()
		}
		return got
	}
	var tcpPaths []string
	var totalMig uint64
	for _, rr := range results {
		tcpPaths = append(tcpPaths, rr.LogPath)
		totalMig += rr.Migrations
	}
	a := read(ref.LogPaths)
	b := read(tcpPaths)
	if len(a) != len(b) {
		t.Fatalf("distinct entries differ: %d vs %d", len(a), len(b))
	}
	for e, nExpect := range a {
		if b[e] != nExpect {
			t.Fatalf("entry %+v: in-process %d, TCP %d", e, nExpect, b[e])
		}
	}
	if totalMig != ref.Migrations {
		t.Fatalf("migrations differ: TCP %d, in-process %d", totalMig, ref.Migrations)
	}
}

func TestClientDisconnectSurfacesError(t *testing.T) {
	host, err := Host("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	n, err := Join(host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Client leaves without completing any collective.
	n.Close()
	if err := host.Barrier(context.Background()); err == nil {
		t.Fatal("barrier succeeded after peer disconnect")
	}
}
