package mpi

import (
	"errors"
	"fmt"
)

// RankFailedError reports that a collective operation could not complete
// because one participant died (connection reset, heartbeat timeout,
// premature EOF, a slot that never joined, or an in-process rank that
// returned or panicked). It is defined here — rather than in the
// transport implementation — so that callers holding only a Transport
// can detect rank failures with errors.As without importing the network
// layer.
//
// Survivors of the same round receive the same Rank value, giving them a
// consistent view of who died; failure-tolerant callers (such as
// core.SynthesizeDistributed) rely on that agreement to deterministically
// re-stripe the dead rank's work. A dead rank never comes back, so this
// is the only membership change a collective reports.
type RankFailedError struct {
	// Rank is the failed participant, or -1 when the failure could not
	// be attributed (e.g. the coordinator itself became unreachable).
	Rank int
	// Op names the collective that observed the failure.
	Op string
	// Err is the underlying cause.
	Err error
}

func (e *RankFailedError) Error() string {
	who := fmt.Sprintf("rank %d", e.Rank)
	if e.Rank < 0 {
		who = "coordinator"
	}
	if e.Err != nil {
		return fmt.Sprintf("mpi: %s failed during %s: %v", who, e.Op, e.Err)
	}
	return fmt.Sprintf("mpi: %s failed during %s", who, e.Op)
}

func (e *RankFailedError) Unwrap() error { return e.Err }

// AsRankFailed extracts a RankFailedError from err's chain.
func AsRankFailed(err error) (*RankFailedError, bool) {
	var rf *RankFailedError
	if errors.As(err, &rf) {
		return rf, true
	}
	return nil, false
}
