package mpinet

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestCollectivesCanceledBeforeStart: a pre-canceled context makes
// every collective return promptly with an error wrapping
// context.Canceled — and NOT a rank-failure, so distributed retry
// logic treats cancellation as fatal rather than as a dead peer.
func TestCollectivesCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cluster(t, 2, func(n *Node) error {
		for name, call := range map[string]func() error{
			"Barrier": func() error { return barrier(ctx, n) },
			"Gather": func() error {
				_, err := mpi.Gather(ctx, n, []byte("x"))
				return err
			},
			"Exchange": func() error {
				_, err := n.Exchange(ctx, make([][]byte, n.Size()))
				return err
			},
		} {
			err := call()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
			var rf *mpi.RankFailedError
			if errors.As(err, &rf) {
				t.Errorf("%s: cancellation misreported as rank failure: %v", name, err)
			}
		}
		return nil
	})
}

// TestBarrierCanceledMidCollective: rank 1 never enters the barrier;
// rank 0, blocked inside it, must be released by its context rather
// than hanging until the failure detector trips.
func TestBarrierCanceledMidCollective(t *testing.T) {
	// A long suspect timeout ensures the context, not the heartbeat
	// detector, is what unblocks the stuck rank.
	cluster(t, 2, func(n *Node) error {
		if n.Rank() != 0 {
			// Rank 1 sits out; its only job is to keep the cluster
			// alive while rank 0 blocks.
			time.Sleep(300 * time.Millisecond)
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err := barrier(ctx, n)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("stuck barrier err = %v, want context.Canceled", err)
		}
		if wall := time.Since(start); wall > 5*time.Second {
			t.Errorf("cancellation took %s; should release the collective promptly", wall)
		}
		return nil
	})
}
