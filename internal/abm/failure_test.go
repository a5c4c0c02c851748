package abm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/schedule"
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

// TestRanksWithDifferentSchedulesFail gives rank 1 a generator with
// another seed, as a process started with another -seed would have. The
// first arrival whose shipped segment contradicts the receiver's own
// schedule must fail the run, naming the person, the hour and the sender.
func TestRanksWithDifferentSchedulesFail(t *testing.T) {
	pop, gen := testWorld(t, 300)
	other := schedule.NewGenerator(pop, 6)
	assign := partition.Random(pop.NumPlaces(), 2)
	dir := t.TempDir()
	err := mpi.Run(2, func(tr mpi.Transport) error {
		cfg := Config{Pop: pop, Gen: gen, Days: 2, Assign: assign, LogDir: dir}
		if tr.Rank() == 1 {
			cfg.Gen = other
		}
		_, err := RunOn(context.Background(), tr, cfg)
		return err
	})
	if err == nil {
		t.Fatal("ranks with different schedules ran to completion")
	}
	if _, derived := mpi.AsRankFailed(err); derived {
		t.Fatalf("run returned a survivor's report %v, want the detecting rank's error", err)
	}
	m := regexp.MustCompile(`rank (\d): person \d+ arrived at hour \d+ from rank (\d)`).FindStringSubmatch(err.Error())
	if m == nil || !strings.Contains(err.Error(), "ranks disagree") {
		t.Fatalf("run error = %v, want a disagreement naming person, hour and sender rank", err)
	}
	if m[1] == m[2] {
		t.Fatalf("run error = %v: rank %s blames itself, want the other rank", err, m[1])
	}
}

// TestArrivalBeyondPopulationFails: a peer with a larger population can
// ship a person this rank does not have. The rank must report it rather
// than index past its persons. Rank 1 is a bare transport that sends one
// such agent at hour 1 and then follows rank 0's hourly exchanges.
func TestArrivalBeyondPopulationFails(t *testing.T) {
	pop, gen := testWorld(t, 100)
	stranger := appendAgent(nil, uint32(pop.NumPersons()), schedule.Segment{Start: 1, Stop: 2, Place: 0})
	err := mpi.Run(2, func(tr mpi.Transport) error {
		if tr.Rank() == 0 {
			_, err := RunOn(context.Background(), tr, Config{
				Pop: pop, Gen: gen, Days: 1, Assign: make(partition.Assignment, pop.NumPlaces())})
			return err
		}
		for hour := 1; hour < schedule.HoursPerDay; hour++ {
			if _, err := tr.Exchange(context.Background(), [][]byte{stranger, nil}); err != nil {
				return nil // rank 0 has left
			}
			stranger = nil
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("person %d arrived at hour 1 from rank 1, beyond", pop.NumPersons())) {
		t.Fatalf("run error = %v, want rank 0 to reject person %d from rank 1", err, pop.NumPersons())
	}
}
