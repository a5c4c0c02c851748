package eventlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/h5"
)

// testEntry is a deterministic entry generator: entry i stops at hour
// i/4+1 so several entries share a Stop hour (as in a real log where all
// segments ending at hour h are logged together) and Stop is
// nondecreasing in log order.
func testEntry(i int) Entry {
	return Entry{
		Start:    uint32(i),
		Stop:     uint32(i/4 + 1),
		Person:   uint32(100 + i),
		Activity: uint32(i % 7),
		Place:    uint32(i % 5),
	}
}

func writeLog(t *testing.T, path string, cfg Config, n int, ext bool) {
	t.Helper()
	l, err := Create(path, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < n; i++ {
		var err error
		if ext {
			err = l.Log(testEntry(i), uint32(i*3))
		} else {
			err = l.Log(testEntry(i))
		}
		if err != nil {
			t.Fatalf("Log %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func readAll(t *testing.T, path string) ([]Entry, [][]uint32) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	var es []Entry
	var xs [][]uint32
	err = r.ForEach(func(e Entry, ext []uint32) error {
		es = append(es, e)
		xs = append(xs, append([]uint32(nil), ext...))
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	return es, xs
}

func TestResumeCompleteFile(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.h5")
			cfg := Config{CacheEntries: 4, Compress: compress}
			writeLog(t, path, cfg, 10, false)

			l, info, err := Resume(path, cfg)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if !info.Complete {
				t.Errorf("Complete = false, want true for cleanly closed file")
			}
			if info.RecoveredEntries != 10 || info.DroppedEntries != 0 {
				t.Errorf("recovered %d dropped %d, want 10/0", info.RecoveredEntries, info.DroppedEntries)
			}
			if info.MaxStop != testEntry(9).Stop {
				t.Errorf("MaxStop = %d, want %d", info.MaxStop, testEntry(9).Stop)
			}
			if l.Logged() != 10 {
				t.Errorf("Logged() = %d, want 10", l.Logged())
			}
			// Continue appending.
			for i := 10; i < 15; i++ {
				if err := l.Log(testEntry(i)); err != nil {
					t.Fatalf("Log after resume: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			es, _ := readAll(t, path)
			if len(es) != 15 {
				t.Fatalf("reopened file has %d entries, want 15", len(es))
			}
			for i, e := range es {
				if e != testEntry(i) {
					t.Fatalf("entry %d = %+v, want %+v", i, e, testEntry(i))
				}
			}
		})
	}
}

// TestResumeTruncateEveryByte is the crash-anywhere property: truncating
// a log at every byte offset and resuming must always yield a prefix of
// whole entries (never a torn or corrupt entry), and appending after the
// resume must produce a fully valid file.
func TestResumeTruncateEveryByte(t *testing.T) {
	const n = 10
	cfg := Config{CacheEntries: 4}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.h5")
	writeLog(t, ref, cfg, n, false)
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	work := filepath.Join(dir, "cut.h5")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(work, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, info, err := Resume(work, cfg)
		if err != nil {
			// Legitimate only when even the header is torn.
			continue
		}
		rec := int(info.RecoveredEntries)
		if rec%cfg.CacheEntries != 0 && rec != n {
			t.Errorf("cut %d: recovered %d entries, not a whole-chunk prefix", cut, rec)
		}
		// Append one sentinel and close; the file must then be fully
		// readable with the recovered prefix intact.
		sentinel := Entry{Start: 999, Stop: 1000, Person: 7, Activity: 1, Place: 2}
		if err := l.Log(sentinel); err != nil {
			t.Fatalf("cut %d: Log: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		es, _ := readAll(t, work)
		if len(es) != rec+1 {
			t.Fatalf("cut %d: reopened file has %d entries, want %d", cut, len(es), rec+1)
		}
		for i := 0; i < rec; i++ {
			if es[i] != testEntry(i) {
				t.Fatalf("cut %d: entry %d = %+v, want %+v", cut, i, es[i], testEntry(i))
			}
		}
		if es[rec] != sentinel {
			t.Fatalf("cut %d: sentinel = %+v", cut, es[rec])
		}
	}
}

// TestResumeBefore trims the suffix with Stop >= M, including the case
// where the cut falls inside a chunk (surviving boundary entries are
// re-staged through the cache).
func TestResumeBefore(t *testing.T) {
	const n = 14 // entries 0..13, Stop = i/4+1 in {1,1,1,1,2,2,2,2,3,3,3,3,4,4}
	cfg := Config{CacheEntries: 4, ExtColumns: []string{"state"}}
	path := filepath.Join(t.TempDir(), "log.h5")
	writeLog(t, path, cfg, n, true)

	const m = 3 // drop Stop >= 3: keeps entries 0..7, drops 8..13
	l, info, err := ResumeBefore(path, cfg, func(e Entry, _ []uint32) bool {
		return e.Stop >= m
	})
	if err != nil {
		t.Fatalf("ResumeBefore: %v", err)
	}
	if info.RecoveredEntries != 8 || info.DroppedEntries != 6 {
		t.Errorf("recovered %d dropped %d, want 8/6", info.RecoveredEntries, info.DroppedEntries)
	}
	if info.MaxStop != 2 {
		t.Errorf("MaxStop = %d, want 2", info.MaxStop)
	}
	// Re-log the dropped range as a re-simulation would.
	for i := 8; i < n; i++ {
		if err := l.Log(testEntry(i), uint32(i*3)); err != nil {
			t.Fatalf("Log: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	es, xs := readAll(t, path)
	if len(es) != n {
		t.Fatalf("file has %d entries, want %d", len(es), n)
	}
	for i := range es {
		if es[i] != testEntry(i) {
			t.Fatalf("entry %d = %+v, want %+v", i, es[i], testEntry(i))
		}
		if len(xs[i]) != 1 || xs[i][0] != uint32(i*3) {
			t.Fatalf("entry %d ext = %v, want [%d]", i, xs[i], i*3)
		}
	}
}

func TestResumeBeforeCutInsideChunk(t *testing.T) {
	// Cache 4, 10 entries -> chunks [0..3][4..7][8..9]. Cut at entry 6:
	// chunk 1 is partially kept, entries 4..5 must be re-staged.
	cfg := Config{CacheEntries: 4}
	path := filepath.Join(t.TempDir(), "log.h5")
	writeLog(t, path, cfg, 10, false)

	l, info, err := ResumeBefore(path, cfg, func(e Entry, _ []uint32) bool {
		return e.Start >= 6
	})
	if err != nil {
		t.Fatalf("ResumeBefore: %v", err)
	}
	if info.RecoveredEntries != 6 || info.DroppedEntries != 4 {
		t.Errorf("recovered %d dropped %d, want 6/4", info.RecoveredEntries, info.DroppedEntries)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	es, _ := readAll(t, path)
	if len(es) != 6 {
		t.Fatalf("file has %d entries, want 6", len(es))
	}
	for i, e := range es {
		if e != testEntry(i) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, testEntry(i))
		}
	}
}

func TestResumeBeforeRequiresPredicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.h5")
	writeLog(t, path, Config{}, 1, false)
	if _, _, err := ResumeBefore(path, Config{}, nil); err == nil {
		t.Fatal("ResumeBefore(nil) succeeded, want error")
	}
}

func TestResumeConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	base := Config{CacheEntries: 4}
	path := filepath.Join(dir, "log.h5")
	writeLog(t, path, base, 5, false)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"ext columns added", Config{CacheEntries: 4, ExtColumns: []string{"state"}}},
		{"compression mismatch", Config{CacheEntries: 4, Compress: true}},
		{"checksum mismatch", Config{CacheEntries: 4, DisableChecksums: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Resume(path, tc.cfg); err == nil {
				t.Fatalf("Resume with %s succeeded, want error", tc.name)
			}
		})
	}
	// Renamed ext column.
	p2 := filepath.Join(dir, "ext.h5")
	writeLog(t, p2, Config{CacheEntries: 4, ExtColumns: []string{"state"}}, 5, true)
	if _, _, err := Resume(p2, Config{CacheEntries: 4, ExtColumns: []string{"other"}}); err == nil {
		t.Fatal("Resume with renamed ext column succeeded, want error")
	}
}

func TestInspectDoesNotModify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.h5")
	cfg := Config{CacheEntries: 4}
	writeLog(t, path, cfg, 10, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate to simulate a crash, then Inspect.
	cut := data[:len(data)-25]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Complete {
		t.Error("Complete = true for truncated file")
	}
	if info.RecoveredEntries == 0 || info.MaxStop == 0 {
		t.Errorf("Inspect recovered %d entries MaxStop %d, want nonzero", info.RecoveredEntries, info.MaxStop)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(cut) {
		t.Errorf("Inspect modified the file: %d -> %d bytes", len(cut), len(after))
	}
}

// TestResumeAfterCrashFlush arms the eventlog flush crash point so the
// logger dies exactly at its Nth cache flush, then verifies Resume
// recovers every entry from the flushes that completed.
func TestResumeAfterCrashFlush(t *testing.T) {
	defer faultinject.Reset()
	cfg := Config{CacheEntries: 4}
	path := filepath.Join(t.TempDir(), "log.h5")
	l, err := Create(path, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	faultinject.Arm(CrashFlush, 3, faultinject.ErrInjected) // die at 3rd flush
	var crashed error
	i := 0
	for ; i < 100; i++ {
		if err := l.Log(testEntry(i)); err != nil {
			crashed = err
			break
		}
	}
	if crashed == nil {
		t.Fatal("crash point never fired")
	}
	if !errors.Is(crashed, faultinject.ErrInjected) {
		t.Fatalf("crash error = %v, want ErrInjected", crashed)
	}
	faultinject.Reset()
	// Do NOT close the logger: simulate the process dying. The file on
	// disk has 2 complete chunks (8 entries) and no footer.
	l2, info, err := Resume(path, cfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if info.Complete {
		t.Error("Complete = true for crashed file")
	}
	if info.RecoveredEntries != 8 {
		t.Errorf("recovered %d entries, want 8 (2 complete flushes)", info.RecoveredEntries)
	}
	// Finish the run from where the log left off.
	for j := int(info.RecoveredEntries); j < 12; j++ {
		if err := l2.Log(testEntry(j)); err != nil {
			t.Fatalf("Log: %v", err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	es, _ := readAll(t, path)
	if len(es) != 12 {
		t.Fatalf("file has %d entries, want 12", len(es))
	}
	for k, e := range es {
		if e != testEntry(k) {
			t.Fatalf("entry %d = %+v, want %+v", k, e, testEntry(k))
		}
	}
}

func TestResumeRejectsNonEventLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(path, []byte("not an h5 file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, Config{}); err == nil {
		t.Fatal("Resume on garbage succeeded, want error")
	}
	if _, err := Inspect(path); err == nil {
		t.Fatal("Inspect on garbage succeeded, want error")
	}
}

// TestCloseReleasesFileOnFailure: a Close that fails — at the final
// flush, or at the h5 footer write — still closes the file instead of
// leaving its descriptor to the finalizer, and writes no footer bytes,
// so the file salvages like one whose process died there.
func TestCloseReleasesFileOnFailure(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open descriptors")
	}
	openFDs := func(t *testing.T) int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	for _, tc := range []struct {
		point  string
		chunks int // intact chunks on disk after the failed Close
	}{
		{CrashFlush, 1},    // the cached tail never reaches the disk
		{h5.CrashClose, 2}, // the tail is flushed, the footer is not written
	} {
		t.Run(tc.point, func(t *testing.T) {
			defer faultinject.Reset()
			path := filepath.Join(t.TempDir(), "log.h5")
			before := openFDs(t)
			l, err := Create(path, Config{CacheEntries: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ { // one full chunk, two entries cached
				if err := l.Log(testEntry(i)); err != nil {
					t.Fatal(err)
				}
			}
			faultinject.Arm(tc.point, 1, faultinject.ErrInjected)
			if err := l.Close(); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Close: err = %v, want ErrInjected", err)
			}
			faultinject.Reset()
			if after := openFDs(t); after > before {
				t.Fatalf("%d open descriptors after the failed Close, %d before it", after, before)
			}
			info, err := Inspect(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Complete || info.TruncatedBytes != 0 || info.Chunks != tc.chunks {
				t.Fatalf("after the failed Close: complete=%v truncated=%d chunks=%d, want false, 0, %d",
					info.Complete, info.TruncatedBytes, info.Chunks, tc.chunks)
			}
		})
	}
}
