// Package mpi defines the rank transport that stands in for the MPI
// layer beneath Repast HPC in the paper's chiSIM deployment, and runs
// ranks in-process over it.
//
// Transport is the contract: one collective, a personalized all-to-all
// Exchange of byte blobs (Gather to rank 0 is a function over it). Two
// implementations satisfy it — Run here, one goroutine per rank inside
// one process, and mpinet's TCP star for ranks as separate OS
// processes — with the same blob-lifetime and failure semantics, so the
// simulation and the distributed synthesis run unchanged over either.
//
// Run keeps the in-process hand-off zero-copy: a rank publishes its
// outgoing blob vector in a shared slot and peers read the sender's own
// slices after one generation-counted barrier. Slots alternate between
// two buffers by completed round, so a fast rank's next contribution
// never overwrites one a slow peer is still reading.
//
// A rank whose function returns (with or without an error) or panics
// leaves the world, exactly like a closed mpinet connection: the round
// in progress — or, if none is, the next one — aborts, and every
// survivor's Exchange for it returns a *RankFailedError naming that
// rank. Later rounds run among the survivors with nil blobs in the
// departed rank's slots.
package mpi

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// world is the state the ranks of one Run share.
type world struct {
	mu      sync.Mutex
	cond    sync.Cond
	size    int
	live    int            // ranks that have not left
	arrived int            // live ranks inside the open round
	round   uint64         // index of the open round
	done    uint64         // completed rounds; selects the slot buffer
	aborted map[uint64]int // aborted round → the rank whose departure aborted it
	slots   [2][]slot
}

// slot is one rank's contribution: its blob vector, stamped with the
// round it belongs to so a stale or departed rank reads as nil.
type slot struct {
	round uint64
	v     [][]byte
}

// rank is one participant's Transport handle.
type rank struct {
	w     *world
	rank  int
	round uint64 // collectives this rank has entered
}

// Run executes fn once per rank concurrently, each with its own
// Transport, and waits for every rank to return. It returns the first
// error by rank order that is not a *RankFailedError — the root cause,
// not a survivor's report of it — or, failing that, the first error by
// rank order. A panicking rank is reported as an error.
//
// In-process exchanges complete in microseconds among sibling
// goroutines, so they ignore ctx once entered; callers check their
// context between exchanges, where every rank sees the same decision
// point.
func Run(size int, fn func(t Transport) error) error {
	if size <= 0 {
		return fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &world{size: size, live: size, aborted: make(map[uint64]int)}
	w.cond.L = &w.mu
	w.slots = [2][]slot{make([]slot, size), make([]slot, size)}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := range size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.leave(r)
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			errs[r] = fn(&rank{w: w, rank: r})
		}()
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if _, derived := AsRankFailed(err); err != nil && !derived {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// leave removes rank r from the world and aborts the open round.
func (w *world) leave(r int) {
	w.mu.Lock()
	w.live--
	w.aborted[w.round] = r
	w.round++
	w.arrived = 0
	w.mu.Unlock()
	w.cond.Broadcast()
}

func (t *rank) Rank() int { return t.rank }
func (t *rank) Size() int { return t.w.size }

// Exchange runs one round: it publishes out, waits for every live rank,
// and returns v_j[t.rank] from each rank j that took part (nil for ranks
// that did not).
func (t *rank) Exchange(ctx context.Context, out [][]byte) ([][]byte, error) {
	w := t.w
	if len(out) != w.size {
		return nil, fmt.Errorf("mpi: Exchange with %d blobs for %d ranks", len(out), w.size)
	}
	mCollectives.Inc()
	sw := telemetry.Clock()
	defer sw.Observe(mCollectiveSeconds)
	in := make([][]byte, w.size)
	w.mu.Lock()
	defer w.mu.Unlock()
	k := t.round
	t.round++
	if k == w.round {
		w.slots[w.done%2][t.rank] = slot{round: k, v: out}
		if w.arrived++; w.arrived == w.live {
			w.round++
			w.arrived = 0
			w.done++
			w.cond.Broadcast()
		}
		for w.round == k {
			w.cond.Wait()
		}
	}
	// Round k is closed: aborted, or completed with this rank inside, in
	// which case no later round can have completed yet.
	if r, ok := w.aborted[k]; ok {
		return nil, &RankFailedError{Rank: r, Op: "exchange"}
	}
	for j, s := range w.slots[(w.done-1)%2] {
		if s.round == k {
			in[j] = s.v[t.rank]
		}
	}
	return in, nil
}
