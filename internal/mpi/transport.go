package mpi

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
)

// Telemetry series for the in-process transport: one collective per
// Barrier/Exchange/Gather call, timed through a stopwatch that costs a
// single atomic load when telemetry is disabled.
var (
	mCollectives       = telemetry.C("mpi_collectives_total")
	mCollectiveSeconds = telemetry.H("mpi_collective_seconds")
)

// Transport is the minimal communication surface the simulation's hot
// loop needs, satisfied both by the in-process Comm and by the TCP-based
// mpinet.Node. Keeping it byte-oriented lets implementations ship blobs
// across process boundaries without reflection-based serialization.
//
// Every collective takes a context as its first parameter so production
// embeddings can cancel or deadline a blocked rank. Cancellation
// semantics are implementation-defined within one rule: a collective
// that returns early because of the context returns an error wrapping
// ctx.Err() (detectable with errors.Is(err, context.Canceled)), never a
// *RankFailedError — context cancellation is the caller's own decision,
// not a peer death.
type Transport interface {
	// Rank returns this participant's index in [0, Size).
	Rank() int
	// Size returns the number of participants.
	Size() int
	// Barrier blocks until all participants have entered it.
	Barrier(ctx context.Context) error
	// Exchange performs a personalized all-to-all: out[i] is delivered
	// to rank i, and the result's element j is the blob rank j sent to
	// this rank. len(out) must equal Size. A nil blob is delivered as a
	// nil or empty slice. The transport may go on reading out and its
	// blobs after Exchange has returned — in-process peers are handed the
	// sender's own slices, and mpinet's coordinator forwards rank 0's
	// after replying to it — so the caller must leave them unmodified
	// until its next collective has returned, which no rank's does before
	// every rank has entered it.
	Exchange(ctx context.Context, out [][]byte) ([][]byte, error)
	// Gather collects every rank's blob on rank 0 (result indexed by
	// rank, nil on other ranks).
	Gather(ctx context.Context, blob []byte) ([][]byte, error)
}

// TraceCarrier is an optional Transport extension for cross-process
// trace propagation: a transport that implements it piggybacks the set
// trace context (trace id + parent span id) on every collective it
// initiates, and records the last nonzero context it observes on
// replies. Rank 0 sets the context from its root span; worker ranks
// read it back after their first collective and hand it to
// telemetry.ContextWithRemoteParent, so a distributed run stitches into
// one trace tree with no extra communication rounds. The in-process
// Comm does not implement it — in-process spans already nest through
// context.Context.
type TraceCarrier interface {
	// SetTraceContext sets the (traceID, spanID) pair stamped on
	// outgoing collectives. Zero traceID clears it.
	SetTraceContext(traceID, spanID uint64)
	// TraceContext returns the current pair: what was Set locally, or
	// the last nonzero pair observed from the wire.
	TraceContext() (traceID, spanID uint64)
}

// CtxErr wraps a context's error for return from a collective or a
// pipeline stage. It returns nil when the context is still live, so it
// can be used as a plain guard:
//
//	if err := mpi.CtxErr(ctx, "synthesis"); err != nil { return err }
func CtxErr(ctx context.Context, op string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("mpi: %s canceled: %w", op, err)
	}
	return nil
}

// commTransport adapts Comm to Transport.
//
// In-process collectives complete in microseconds and involve only
// sibling goroutines, so they do not block indefinitely; aborting one
// rank mid-collective while its siblings are already inside would
// deadlock the world. The adapter therefore intentionally does NOT bail
// out mid-collective on cancellation — callers (e.g. abm.RunRank) check
// the context between collectives, where every rank observes the same
// decision point.
type commTransport struct{ c *Comm }

// AsTransport wraps an in-process Comm in the Transport interface.
func AsTransport(c *Comm) Transport { return commTransport{c} }

func (t commTransport) Rank() int { return t.c.Rank() }
func (t commTransport) Size() int { return t.c.Size() }

func (t commTransport) Barrier(ctx context.Context) error {
	mCollectives.Inc()
	sw := telemetry.Clock()
	t.c.Barrier()
	sw.Observe(mCollectiveSeconds)
	return nil
}

func (t commTransport) Exchange(ctx context.Context, out [][]byte) ([][]byte, error) {
	mCollectives.Inc()
	sw := telemetry.Clock()
	in := Alltoall(t.c, out)
	sw.Observe(mCollectiveSeconds)
	return in, nil
}

func (t commTransport) Gather(ctx context.Context, blob []byte) ([][]byte, error) {
	mCollectives.Inc()
	sw := telemetry.Clock()
	all := Allgather(t.c, blob)
	sw.Observe(mCollectiveSeconds)
	if t.c.Rank() != 0 {
		return nil, nil
	}
	return all, nil
}
