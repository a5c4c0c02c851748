package core

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/eventlog"
)

// TestSynthesizeCanceledBeforeStart: a context canceled before the call
// yields an error wrapping context.Canceled from every entry point.
func TestSynthesizeCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	entries := randomEntries(1, 50)
	if _, _, err := SynthesizeEntries(ctx, entries, 0, 48, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SynthesizeEntries: err = %v, want context.Canceled", err)
	}

	dir := t.TempDir()
	path := writeEntriesLog(t, dir, "a.h5l", entries)
	if _, _, err := SynthesizeFiles(ctx, []string{path}, 0, 48, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SynthesizeFiles: err = %v, want context.Canceled", err)
	}
	if _, _, err := SynthesizeFiles(ctx, []string{path}, 0, 48, Config{MemBudgetBytes: 64}); !errors.Is(err, context.Canceled) {
		t.Errorf("SynthesizeFiles(budgeted): err = %v, want context.Canceled", err)
	}
	if _, err := fileWindows(ctx, []string{path}, 0, 48, 24, 0, 1, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Stream over log files: err = %v, want context.Canceled", err)
	}
}

// cancelWorkload builds a slice of entries spread over many places so
// the synthesis has many work units to check the cancellation flag
// between.
func cancelWorkload(places, personsPerPlace int) []eventlog.Entry {
	entries := make([]eventlog.Entry, 0, places*personsPerPlace)
	person := uint32(0)
	for p := 0; p < places; p++ {
		for q := 0; q < personsPerPlace; q++ {
			entries = append(entries, eventlog.Entry{
				Start: 0, Stop: 48, Person: person, Place: uint32(p),
			})
			person++
		}
	}
	return entries
}

// TestSynthesizeCanceledMidRun cancels the context while the synthesis
// is running and requires it to abort (within one work unit) with an
// error wrapping context.Canceled. The workload grows until the cancel
// reliably lands mid-run, so the test cannot flake on fast machines.
func TestSynthesizeCanceledMidRun(t *testing.T) {
	for _, size := range []int{400, 1600, 6400, 25600} {
		entries := cancelWorkload(size, 40)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, _, err := SynthesizeEntries(ctx, entries, 0, 48, Config{Workers: 2})
			done <- err
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		err := <-done
		if err == nil {
			// Finished before the cancel landed; retry with a larger
			// workload.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run err = %v, want context.Canceled", err)
		}
		if wall := time.Since(start); wall > 5*time.Second {
			t.Fatalf("cancellation took %s; should abort within one work unit", wall)
		}
		return
	}
	t.Skip("synthesis finished before cancellation on every workload size")
}

// TestSynthesizeBudgetedCanceledMidSpill cancels during a budgeted run
// and checks that the error wraps context.Canceled and the spill
// directory is cleaned up.
func TestSynthesizeBudgetedCanceledMidSpill(t *testing.T) {
	dir := t.TempDir()
	spillDir := t.TempDir()
	for _, size := range []int{200, 800, 3200} {
		entries := cancelWorkload(size, 30)
		path := writeEntriesLog(t, dir, "w.h5l", entries)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := SynthesizeFiles(ctx, []string{path}, 0, 48,
				Config{Workers: 2, MemBudgetBytes: 1 << 12, SpillDir: spillDir})
			done <- err
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		err := <-done
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budgeted mid-run err = %v, want context.Canceled", err)
		}
		left, rdErr := os.ReadDir(spillDir)
		if rdErr != nil {
			t.Fatal(rdErr)
		}
		if len(left) != 0 {
			t.Fatalf("spill dir not cleaned after cancel: %d entries", len(left))
		}
		return
	}
	t.Skip("budgeted synthesis finished before cancellation on every workload size")
}
