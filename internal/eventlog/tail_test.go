package eventlog

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fastPoll keeps the tail tests quick without busy-waiting.
const fastPoll = 2 * time.Millisecond

// drainAsync drains a source on a goroutine so the test can keep
// writing to the tailed file concurrently.
func drainAsync(src EntrySource) (<-chan []Entry, <-chan error) {
	out := make(chan []Entry, 1)
	errc := make(chan error, 1)
	go func() {
		var all []Entry
		for {
			batch, err := src.Next()
			if err == io.EOF {
				out <- all
				errc <- nil
				return
			}
			if err != nil {
				out <- all
				errc <- err
				return
			}
			all = append(all, batch...)
		}
	}()
	return out, errc
}

// TestTailClosedFile: over an already-closed log, a tail behaves like
// OpenSource — same entries, same order, EOF at the end.
func TestTailClosedFile(t *testing.T) {
	entries := sourceTestEntries(5000, 100)
	path := writeSourceLog(t, entries, Config{CacheEntries: 128})
	for _, w := range [][2]uint32{{0, 200}, {25, 60}, {300, 400}} {
		src := OpenTail(context.Background(), path, w[0], w[1], TailOptions{Poll: fastPoll})
		got := drain(t, src)
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		want := sliceFilter(entries, w[0], w[1])
		if len(got) != len(want) {
			t.Fatalf("window %v: drained %d entries, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %v entry %d: %+v != %+v", w, i, got[i], want[i])
			}
		}
	}
}

// TestTailFollowsLiveWrites is the live contract: the tail is opened
// before the file exists, observes entries as flushes make them
// durable, and reports EOF only once the writer has closed the log
// with a valid footer.
func TestTailFollowsLiveWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.h5l")
	src := OpenTail(context.Background(), path, 0, ^uint32(0), TailOptions{Poll: fastPoll})
	defer src.Close()
	out, errc := drainAsync(src)

	entries := sourceTestEntries(900, 50)
	l, err := Create(path, Config{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	third := len(entries) / 3
	for i, e := range entries {
		if err := l.Log(e); err != nil {
			t.Fatal(err)
		}
		// Two mid-file durability points, like a simulator's hourly
		// flushes; the tail must pick each up without a footer.
		if i == third || i == 2*third {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * fastPoll) // let the tail observe a mid-write state
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := <-out
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("tailed %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

// TestTailCanceledWhileBlocked: cancelling the context unblocks a Next
// that is waiting for a file that never appears, and the error wraps
// (not is) context.Canceled, per the pipeline-wide contract.
func TestTailCanceledWhileBlocked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := OpenTail(ctx, filepath.Join(t.TempDir(), "never.h5l"), 0, 100, TailOptions{Poll: time.Hour})
	defer src.Close()
	_, errc := drainAsync(src)

	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if err == context.Canceled {
			t.Fatal("bare context.Canceled; the tail must wrap it with its own context")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on cancellation")
	}
}

// TestTailCanceledBeforeNext: a pre-cancelled context fails the first
// Next immediately with the wrapped error, even over a complete file.
func TestTailCanceledBeforeNext(t *testing.T) {
	path := writeSourceLog(t, sourceTestEntries(10, 10), Config{CacheEntries: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := OpenTail(ctx, path, 0, 100, TailOptions{Poll: fastPoll})
	defer src.Close()
	_, err := src.Next()
	if !errors.Is(err, context.Canceled) || err == context.Canceled {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestSliceSourceCanceledWrapped pins the same contract for the
// in-memory source: cancellation surfaces as a wrapped (never bare)
// context error from Next.
func TestSliceSourceCanceledWrapped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := SliceSource(ctx, sourceTestEntries(10, 10), 0, 100)
	defer src.Close()
	_, err := src.Next()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if err == context.Canceled {
		t.Fatal("bare context.Canceled; SliceSource must wrap it")
	}
}

// TestTailFailsWhenLogReplacedOrTruncated: once a tail has read part of
// a live log, another file renamed over the path, or the live file cut
// below the cursor, must end the tail with an error naming the path —
// not with a clean EOF that silently skips whatever the path now holds.
func TestTailFailsWhenLogReplacedOrTruncated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, path string)
		want  string
	}{
		{"replaced", func(t *testing.T, path string) {
			// Longer than the cursor, so only the file's identity tells.
			other := writeSourceLog(t, sourceTestEntries(2000, 50), Config{CacheEntries: 64})
			if err := os.Rename(other, path); err != nil {
				t.Fatal(err)
			}
		}, "replaced"},
		{"truncated", func(t *testing.T, path string) {
			if err := os.Truncate(path, 100); err != nil {
				t.Fatal(err)
			}
		}, "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "live.h5l")
			l, err := Create(path, Config{CacheEntries: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			entries := sourceTestEntries(600, 50)
			for _, e := range entries {
				if err := l.Log(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			src := OpenTail(context.Background(), path, 0, ^uint32(0), TailOptions{Poll: fastPoll})
			defer src.Close()
			got := 0
			for got < len(entries) {
				batch, err := src.Next()
				if err != nil {
					t.Fatalf("after %d entries: %v", got, err)
				}
				got += len(batch)
			}
			tc.spoil(t, path)
			_, errc := drainAsync(src)
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want a %s error naming %s", err, tc.want, path)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("tail kept waiting on a log that was " + tc.want)
			}
		})
	}
}
