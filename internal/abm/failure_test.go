package abm

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// runWithin runs the simulation under a watchdog, so a rank failure
// that stalls its peers fails the test instead of hanging go test.
func runWithin(t *testing.T, cfg Config) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cfg)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s of a rank failure")
		return nil
	}
}

// wantRootCause checks that Run returned the failed rank's own error,
// not a survivor's report of the failure.
func wantRootCause(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("Run succeeded despite a failed rank")
	}
	if _, derived := mpi.AsRankFailed(err); derived {
		t.Fatalf("Run returned a survivor's report %v, want the failed rank's error", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error = %v, want it to mention %q", err, want)
	}
}

func TestRankLogCreateFailureDoesNotHang(t *testing.T) {
	pop, gen := testWorld(t, 300)
	dir := t.TempDir()
	// A directory where rank 1's log file should go: only rank 1 fails.
	if err := os.Mkdir(filepath.Join(dir, "rank0001.h5l"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := runWithin(t, Config{Pop: pop, Gen: gen, Ranks: 2, Days: 1, LogDir: dir})
	wantRootCause(t, err, "rank0001.h5l")
}

func TestRankPanicDoesNotHang(t *testing.T) {
	pop, gen := testWorld(t, 300)
	interact := func(rank int, hour, place uint32, occupants []uint32) {
		if rank == 1 && hour == 3 {
			panic("interact failed")
		}
	}
	err := runWithin(t, Config{Pop: pop, Gen: gen, Ranks: 2, Days: 1, Interact: interact})
	wantRootCause(t, err, "rank 1 panicked: interact failed")
}
