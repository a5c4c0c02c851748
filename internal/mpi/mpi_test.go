package mpi

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

var bg = context.Background()

func TestRunRejectsNonPositiveSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		if err := Run(size, func(Transport) error { return nil }); err == nil {
			t.Errorf("Run(%d) accepted", size)
		}
	}
}

func TestWorldSize(t *testing.T) {
	err := Run(4, func(tr Transport) error {
		if tr.Size() != 4 {
			t.Errorf("rank %d: Size = %d", tr.Rank(), tr.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAllRanksExecute(t *testing.T) {
	ran := make([]bool, 8)
	err := Run(8, func(tr Transport) error {
		ran[tr.Rank()] = true
		if tr.Size() != 8 {
			t.Errorf("rank %d sees size %d", tr.Rank(), tr.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(ran, false) {
		t.Fatalf("ranks run = %v, want all", ran)
	}
}

func TestRunReturnsFirstErrorByRank(t *testing.T) {
	sentinel := errors.New("rank 1 failed")
	err := Run(4, func(tr Transport) error {
		if tr.Rank() == 1 {
			return sentinel
		}
		if tr.Rank() == 3 {
			return errors.New("rank 3 failed")
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want rank 1's error", err)
	}
}

// A survivor that reports the failure with a lower rank than the failed
// rank must not mask the root cause.
func TestRunReturnsRootCauseNotSurvivorReport(t *testing.T) {
	sentinel := errors.New("rank 2 failed")
	err := Run(3, func(tr Transport) error {
		if tr.Rank() == 2 {
			return sentinel
		}
		return tr.Barrier(bg)
	})
	if err != sentinel {
		t.Fatalf("err = %v, want rank 2's error", err)
	}
}

func TestPanicInRankSurfacesAsError(t *testing.T) {
	var survivor error
	err := Run(2, func(tr Transport) error {
		if tr.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 waits on a barrier rank 0 never enters; the panic must
		// release it with a typed failure naming rank 0.
		survivor = tr.Barrier(bg)
		return survivor
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: boom") {
		t.Fatalf("Run error = %v, want rank 0's panic", err)
	}
	if rf, ok := AsRankFailed(survivor); !ok || rf.Rank != 0 || rf.Op != "barrier" {
		t.Fatalf("survivor error = %v, want RankFailedError{Rank: 0, Op: barrier}", survivor)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after atomic.Int64
	err := Run(6, func(tr Transport) error {
		before.Add(1)
		if err := tr.Barrier(bg); err != nil {
			return err
		}
		// After the barrier, every rank must have incremented before.
		if n := before.Load(); n != 6 {
			t.Errorf("rank %d passed barrier with before=%d", tr.Rank(), n)
		}
		after.Add(1)
		if err := tr.Barrier(bg); err != nil {
			return err
		}
		if n := after.Load(); n != 6 {
			t.Errorf("rank %d passed second barrier with after=%d", tr.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusableManyTimes(t *testing.T) {
	err := Run(3, func(tr Transport) error {
		for range 500 {
			if err := tr.Barrier(bg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exchangeRound sends {round, src, dst} to every rank and checks what
// arrives, so a blob read from the wrong round or slot is caught.
func exchangeRound(tr Transport, round int) error {
	out := make([][]byte, tr.Size())
	for d := range out {
		out[d] = []byte{byte(round), byte(tr.Rank()), byte(d)}
	}
	in, err := tr.Exchange(bg, out)
	if err != nil {
		return err
	}
	for src, b := range in {
		if want := []byte{byte(round), byte(src), byte(tr.Rank())}; !slices.Equal(b, want) {
			return fmt.Errorf("round %d rank %d: from %d got %v, want %v", round, tr.Rank(), src, b, want)
		}
	}
	return nil
}

// Exchange is MPI's personalized Alltoall.
func TestAlltoall(t *testing.T) {
	err := Run(4, func(tr Transport) error {
		for round := range 50 {
			if err := exchangeRound(tr, round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// allgather sends v to every rank in one Exchange — MPI's Allgather, and
// the shape of the ABM's hourly stop/cancel flag alignment.
func allgather(tr Transport, v byte) ([]byte, error) {
	out := make([][]byte, tr.Size())
	for d := range out {
		out[d] = []byte{v}
	}
	in, err := tr.Exchange(bg, out)
	if err != nil {
		return nil, err
	}
	got := make([]byte, len(in))
	for j, b := range in {
		if len(b) != 1 {
			return nil, fmt.Errorf("rank %d: blob from %d is %v", tr.Rank(), j, b)
		}
		got[j] = b[0]
	}
	return got, nil
}

func TestAllgather(t *testing.T) {
	err := Run(5, func(tr Transport) error {
		got, err := allgather(tr, byte(tr.Rank()*10))
		if err != nil {
			return err
		}
		for i, v := range got {
			if int(v) != i*10 {
				t.Errorf("rank %d: Allgather[%d] = %d", tr.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherRepeated(t *testing.T) {
	err := Run(4, func(tr Transport) error {
		for round := range 50 {
			got, err := allgather(tr, byte(tr.Rank()+round*4))
			if err != nil {
				return err
			}
			for i, v := range got {
				if int(v) != i+round*4 {
					return fmt.Errorf("round %d rank %d: slot %d = %d", round, tr.Rank(), i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func sum(vs []byte) int {
	n := 0
	for _, v := range vs {
		n += int(v)
	}
	return n
}

func TestAllreduceSum(t *testing.T) {
	err := Run(7, func(tr Transport) error {
		got, err := allgather(tr, byte(tr.Rank()+1))
		if err != nil {
			return err
		}
		if n := sum(got); n != 28 { // 1+2+...+7
			t.Errorf("rank %d: sum = %d, want 28", tr.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The ABM's flag alignment: every rank must agree on the largest flag.
func TestAllreduceMax(t *testing.T) {
	err := Run(4, func(tr Transport) error {
		got, err := allgather(tr, byte(tr.Rank()*tr.Rank()))
		if err != nil {
			return err
		}
		if m := slices.Max(got); m != 9 {
			t.Errorf("rank %d: max = %d, want 9", tr.Rank(), m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: for any world size in [1, 12], Exchange routes every blob to
// its destination and a sum over it equals the arithmetic series.
func TestQuickAllreduceSum(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%12) + 1
		return Run(size, func(tr Transport) error {
			if err := exchangeRound(tr, int(n)); err != nil {
				return err
			}
			got, err := allgather(tr, byte(tr.Rank()))
			if err == nil && sum(got) != size*(size-1)/2 {
				err = fmt.Errorf("rank %d: sum = %d", tr.Rank(), sum(got))
			}
			return err
		}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvPairwise(t *testing.T) {
	msgs := []string{"hello", "world"}
	err := Run(2, func(tr Transport) error {
		me, peer := tr.Rank(), 1-tr.Rank()
		out := make([][]byte, 2)
		out[peer] = []byte(msgs[me])
		in, err := tr.Exchange(bg, out)
		if err != nil {
			return err
		}
		if string(in[peer]) != msgs[peer] || in[me] != nil {
			t.Errorf("rank %d got %q", me, in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Blobs between a pair of ranks arrive in the order they were sent.
func TestSendRecvOrderPreservedPerPair(t *testing.T) {
	err := Run(2, func(tr Transport) error {
		for i := range 100 {
			out := make([][]byte, 2)
			if tr.Rank() == 0 {
				out[1] = []byte{byte(i)}
			}
			in, err := tr.Exchange(bg, out)
			if err != nil {
				return err
			}
			if tr.Rank() == 1 && !slices.Equal(in[0], []byte{byte(i)}) {
				return fmt.Errorf("message %d arrived out of order: %v", i, in[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Each Run is a fresh world: nothing of one run leaks into the next.
func TestWorldReusableAcrossRuns(t *testing.T) {
	for run := range 5 {
		err := Run(3, func(tr Transport) error {
			got, err := allgather(tr, 1)
			if err == nil && sum(got) != 3 {
				err = fmt.Errorf("run %d: sum = %d", run, sum(got))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendToSelf(t *testing.T) {
	err := Run(1, func(tr Transport) error {
		in, err := tr.Exchange(bg, [][]byte{{42}})
		if err != nil {
			return err
		}
		if len(in) != 1 || !slices.Equal(in[0], []byte{42}) {
			t.Errorf("self-exchange got %v", in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeArity(t *testing.T) {
	err := Run(2, func(tr Transport) error {
		if _, err := tr.Exchange(bg, make([][]byte, 3)); err == nil {
			t.Errorf("rank %d: 3 blobs for 2 ranks accepted", tr.Rank())
		}
		// The rejected call consumed no round: the ranks still agree.
		return exchangeRound(tr, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The in-process hand-off is zero-copy: a peer receives the sender's own
// slice, not a copy of it.
func TestExchangeIsZeroCopy(t *testing.T) {
	blobs := [][]byte{{0}, {1}}
	err := Run(2, func(tr Transport) error {
		out := make([][]byte, 2)
		out[1-tr.Rank()] = blobs[tr.Rank()]
		in, err := tr.Exchange(bg, out)
		if err != nil {
			return err
		}
		if peer := 1 - tr.Rank(); &in[peer][0] != &blobs[peer][0] {
			t.Errorf("rank %d received a copy of rank %d's blob", tr.Rank(), peer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Allocation guard: at steady state an Exchange allocates only its
// result slice — one allocation per call per rank.
func TestExchangeAllocsAtMostOnePerCall(t *testing.T) {
	const size, runs = 2, 200
	err := Run(size, func(tr Transport) error {
		out := make([][]byte, size)
		for d := range out {
			out[d] = []byte{byte(d)}
		}
		exchange := func() {
			if _, err := tr.Exchange(bg, out); err != nil {
				t.Error(err)
			}
		}
		exchange() // warm up
		if tr.Rank() != 0 {
			// AllocsPerRun calls its function runs+1 times.
			for range runs + 1 {
				exchange()
			}
			return nil
		}
		// AllocsPerRun counts the whole process, so rank 1's calls in
		// the same rounds are included.
		if allocs := testing.AllocsPerRun(runs, exchange); allocs > size {
			t.Errorf("%.1f allocations per round across %d ranks, want ≤ 1 per rank", allocs, size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(5, func(tr Transport) error {
		got, err := tr.Gather(bg, []byte{byte(tr.Rank() * 10)})
		if err != nil {
			return err
		}
		if tr.Rank() != 0 {
			if got != nil {
				t.Errorf("rank %d received %v", tr.Rank(), got)
			}
			return nil
		}
		for i, b := range got {
			if !slices.Equal(b, []byte{byte(i * 10)}) {
				t.Errorf("Gather[%d] = %v", i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Gathers interleaved with exchanges never read another round's slot.
func TestGatherRepeated(t *testing.T) {
	err := Run(4, func(tr Transport) error {
		for round := range 50 {
			got, err := tr.Gather(bg, []byte{byte(round), byte(tr.Rank())})
			if err != nil {
				return err
			}
			for i, b := range got {
				if !slices.Equal(b, []byte{byte(round), byte(i)}) {
					return fmt.Errorf("round %d: slot %d = %v", round, i, b)
				}
			}
			if err := exchangeRound(tr, round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two ranks leave while the survivors are between collectives. Each
// departure aborts one round, and both survivors see the same dead ranks
// in the same order before their barriers complete again.
func TestDeparturesSeenInSameOrder(t *testing.T) {
	var mu sync.Mutex
	seen := map[int][]int{}
	sentinel := errors.New("gone")
	err := Run(4, func(tr Transport) error {
		if err := tr.Barrier(bg); err != nil {
			return err
		}
		if tr.Rank()%2 == 1 {
			return sentinel
		}
		for attempt := 0; ; attempt++ {
			err := tr.Barrier(bg)
			if err == nil {
				break
			}
			rf, ok := AsRankFailed(err)
			if !ok || attempt == 2 {
				return fmt.Errorf("rank %d attempt %d: %v", tr.Rank(), attempt, err)
			}
			mu.Lock()
			seen[tr.Rank()] = append(seen[tr.Rank()], rf.Rank)
			mu.Unlock()
		}
		// Later rounds run among the survivors with nil dead slots.
		in, err := tr.Exchange(bg, [][]byte{{0}, {1}, {2}, {3}})
		if err != nil {
			return err
		}
		if in[1] != nil || in[3] != nil || in[2-tr.Rank()] == nil {
			return fmt.Errorf("rank %d: exchange after departures got %v", tr.Rank(), in)
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("Run error = %v, want the departed ranks' error", err)
	}
	a, b := seen[0], seen[2]
	if !slices.Equal(a, b) || len(a) != 2 || !slices.Contains(a, 1) || !slices.Contains(a, 3) {
		t.Fatalf("survivors saw departures %v and %v, want the same order of {1, 3}", a, b)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	err := Run(8, func(tr Transport) error {
		for range b.N {
			if err := tr.Barrier(bg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkExchange8(b *testing.B) {
	b.ReportAllocs()
	err := Run(8, func(tr Transport) error {
		out := make([][]byte, 8)
		for range b.N {
			if _, err := tr.Exchange(bg, out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
