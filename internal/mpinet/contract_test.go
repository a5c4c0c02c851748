package mpinet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// runTCP is mpi.Run's shape over a loopback mpinet cluster: one
// goroutine per rank, each closing its node when fn returns, the host
// last. It returns the first error by rank.
func runTCP(size int, fn func(mpi.Transport) error) error {
	host, err := Host("127.0.0.1:0", size, fastOpts())
	if err != nil {
		return err
	}
	errs := make([]error, size)
	joinErrs := make([]error, size)
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := Join(host.Addr(), fastOpts())
			if err != nil {
				joinErrs[i] = err
				return
			}
			defer n.Close()
			errs[n.Rank()] = fn(n)
		}()
	}
	errs[0] = fn(host)
	wg.Wait()
	host.Close()
	for _, err := range append(joinErrs, errs...) {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestTransportContract holds the in-process and the TCP transport to
// one contract: Exchange routing (nil blobs included), Gather delivering
// on rank 0 only, a rank's death failing every survivor's next
// collective with the same typed rank, and later rounds delivering nil
// for the dead slot.
func TestTransportContract(t *testing.T) {
	const size, victim = 3, 2
	for _, tc := range []struct {
		name string
		run  func(int, func(mpi.Transport) error) error
	}{
		{"mpi.Run", mpi.Run},
		{"mpinet", runTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			gone := errors.New("victim gone")
			var mu sync.Mutex
			failedAs := map[int]int{}
			err := tc.run(size, func(tr mpi.Transport) error {
				me := tr.Rank()
				// Every rank sends {src, dst}, except nil to its right
				// neighbour.
				out := make([][]byte, size)
				for d := range out {
					if d != (me+1)%size {
						out[d] = []byte{byte(me), byte(d)}
					}
				}
				in, err := tr.Exchange(ctx, out)
				if err != nil {
					return err
				}
				for src, b := range in {
					var want []byte
					if me != (src+1)%size {
						want = []byte{byte(src), byte(me)}
					}
					if !slices.Equal(b, want) {
						return fmt.Errorf("rank %d: from %d got %v, want %v", me, src, b, want)
					}
				}

				got, err := tr.Gather(ctx, []byte{byte(10 + me)})
				if err != nil {
					return err
				}
				if me != 0 && got != nil {
					return fmt.Errorf("rank %d: Gather delivered %v off rank 0", me, got)
				}
				if me == 0 {
					for r, b := range got {
						if !slices.Equal(b, []byte{byte(10 + r)}) {
							return fmt.Errorf("Gather[%d] = %v", r, b)
						}
					}
				}

				if me == victim {
					return gone
				}
				err = tr.Barrier(ctx)
				rf, ok := mpi.AsRankFailed(err)
				if !ok {
					return fmt.Errorf("rank %d: collective after death returned %v, want RankFailedError", me, err)
				}
				mu.Lock()
				failedAs[me] = rf.Rank
				mu.Unlock()

				in, err = tr.Exchange(ctx, [][]byte{{0}, {1}, {2}})
				if err != nil {
					return fmt.Errorf("rank %d: exchange among survivors: %v", me, err)
				}
				if len(in[victim]) != 0 || !slices.Equal(in[1-me], []byte{byte(me)}) {
					return fmt.Errorf("rank %d: exchange among survivors got %v", me, in)
				}
				got, err = tr.Gather(ctx, []byte{byte(me)})
				if err != nil {
					return fmt.Errorf("rank %d: gather among survivors: %v", me, err)
				}
				if me == 0 && (len(got) != size || len(got[victim]) != 0 || !slices.Equal(got[1], []byte{1})) {
					return fmt.Errorf("gather among survivors got %v", got)
				}
				return nil
			})
			if err != gone {
				t.Fatalf("run error = %v, want only the victim's own error", err)
			}
			if failedAs[0] != victim || failedAs[1] != victim {
				t.Fatalf("survivors saw failed ranks %v, want %d for both", failedAs, victim)
			}
		})
	}
}
