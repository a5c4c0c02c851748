package mpinet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/abm"
	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/schedule"
	"repro/internal/synthpop"
)

var _ mpi.Transport = (*Node)(nil)

// barrier is an Exchange of nil blobs: it returns once every live rank
// has entered it.
func barrier(ctx context.Context, t mpi.Transport) error {
	_, err := t.Exchange(ctx, make([][]byte, t.Size()))
	return err
}

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
	if err := writeFrame(w, frame{op: opExchange}); err != nil {
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
	if err := barrier(context.Background(), n); err != nil {
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
			if err := barrier(context.Background(), n); err != nil {
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
		got, err := mpi.Gather(context.Background(), n, []byte{byte(10 + n.Rank())})
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
				_, errs[r] = mpi.Gather(context.Background(), n, []byte{byte(r)})
			}(r)
		}
		_, errs[0] = mpi.Gather(context.Background(), host, []byte{0})
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
		if err := barrier(context.Background(), n); err != nil {
			return err
		}
		if _, err := n.Exchange(context.Background(), make([][]byte, 3)); err != nil {
			return err
		}
		if _, err := mpi.Gather(context.Background(), n, []byte{1}); err != nil {
			return err
		}
		return barrier(context.Background(), n)
	})
}

// TestABMOverTCPMatchesInProcess runs the simulation's rank program on
// the same config through the in-process transport and through real TCP
// loopback connections, each rank deriving the default partition on its
// own as a chisim process does. The logs must be byte-identical and
// rank 0's Result must carry the same counters; only walls and log
// directories differ.
func TestABMOverTCPMatchesInProcess(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 800, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	config := func(dir string) abm.Config {
		return abm.Config{
			Pop: pop, Gen: schedule.NewGenerator(pop, 77), Ranks: ranks, Days: 2,
			LogDir: dir, Log: eventlog.Config{CacheEntries: 64},
		}
	}

	// Reference: in-process run.
	ref, err := abm.Run(context.Background(), config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Entries == 0 || ref.Migrations == 0 {
		t.Fatalf("reference run logged %d entries and %d migrations; the comparison needs both", ref.Entries, ref.Migrations)
	}

	// Distributed: each rank a goroutine with its own TCP connection.
	host, err := Host("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(t.TempDir())
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n, err := Join(host.Addr())
			if err != nil {
				errs[r] = err
				return
			}
			defer n.Close()
			var res *abm.Result
			if res, errs[r] = abm.RunOn(context.Background(), n, cfg); res != nil {
				errs[r] = fmt.Errorf("rank %d got a Result; only rank 0 should", n.Rank())
			}
		}(r)
	}
	got, err := abm.RunOn(context.Background(), host, cfg)
	errs[0] = err
	wg.Wait()
	host.Close()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	if len(got.LogPaths) != ranks {
		t.Fatalf("TCP run names %d logs, want %d", len(got.LogPaths), ranks)
	}
	for r := range ranks {
		a, err := os.ReadFile(ref.LogPaths[r])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(got.LogPaths[r])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("rank %d: TCP log (%d bytes) differs from in-process log (%d bytes)", r, len(b), len(a))
		}
	}
	counters := func(res *abm.Result) abm.Result {
		c := *res
		c.LogPaths = nil
		c.PerRank = append([]abm.RankResult(nil), res.PerRank...)
		for r := range c.PerRank {
			c.PerRank[r].WallNs, c.PerRank[r].LogPath = 0, ""
		}
		return c
	}
	if a, b := counters(ref), counters(got); !reflect.DeepEqual(a, b) {
		t.Fatalf("TCP result %+v, in-process %+v", b, a)
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
	if err := barrier(context.Background(), host); err == nil {
		t.Fatal("barrier succeeded after peer disconnect")
	}
}
