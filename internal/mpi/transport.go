package mpi

import (
	"context"

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
// loop needs, satisfied both by the in-process ranks of Run and by the
// TCP-based mpinet.Node. Keeping it byte-oriented lets implementations
// ship blobs across process boundaries without reflection-based
// serialization.
//
// Every collective takes a context as its first parameter so production
// embeddings can cancel or deadline a blocked rank. Cancellation
// semantics are implementation-defined within one rule: a collective
// that returns early because of the context returns an error wrapping
// ctx.Err() (detectable with errors.Is(err, context.Canceled)), never a
// *RankFailedError — context cancellation is the caller's own decision,
// not a peer death. Run's collectives never return early: they ignore
// ctx once entered.
//
// Failure is part of the contract: when a participant dies, every
// survivor's in-flight or next collective returns a *RankFailedError
// naming it, and later collectives run among the survivors with nil
// blobs in the dead rank's slots.
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
	// until a later collective has returned without error, which no
	// rank's does before every live rank has entered it.
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
// one trace tree with no extra communication rounds. Run's in-process
// ranks do not implement it — in-process spans already nest through
// context.Context.
type TraceCarrier interface {
	// SetTraceContext sets the (traceID, spanID) pair stamped on
	// outgoing collectives. Zero traceID clears it.
	SetTraceContext(traceID, spanID uint64)
	// TraceContext returns the current pair: what was Set locally, or
	// the last nonzero pair observed from the wire.
	TraceContext() (traceID, spanID uint64)
}
