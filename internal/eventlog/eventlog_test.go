package eventlog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "rank0.h5l")
}

func TestLogRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, Config{CacheEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{0, 8, 100, 1, 50},
		{8, 9, 100, 2, 51},
		{9, 17, 100, 3, 52},
		{0, 24, 101, 1, 50},
		{5, 6, 102, 4, 53},
	}
	for _, e := range want {
		if err := l.Log(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumEntries() != uint64(len(want)) {
		t.Fatalf("NumEntries = %d, want %d", r.NumEntries(), len(want))
	}
	var got []Entry
	if err := r.ForEach(func(e Entry, _ []uint32) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFlushBoundariesLoseNothing(t *testing.T) {
	// Cache sizes that do and do not divide the entry count evenly.
	for _, cache := range []int{1, 3, 7, 100} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("c%d.h5l", cache))
		l, err := Create(path, Config{CacheEntries: cache})
		if err != nil {
			t.Fatal(err)
		}
		const n = 23
		for i := uint32(0); i < n; i++ {
			if err := l.Log(Entry{Start: i, Stop: i + 1, Person: i, Activity: 1, Place: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		count := uint32(0)
		if err := r.ForEach(func(e Entry, _ []uint32) error {
			if e.Start != count {
				t.Fatalf("cache %d: entry %d has Start %d (order broken)", cache, count, e.Start)
			}
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if count != n {
			t.Fatalf("cache %d: read %d entries, want %d", cache, count, n)
		}
	}
}

func TestFlushCountMatchesCacheSize(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, Config{CacheEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := l.Log(Entry{}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Flushes() != 3 {
		t.Fatalf("Flushes = %d, want 3 (35 entries / cache 10)", l.Flushes())
	}
	if l.Logged() != 35 {
		t.Fatalf("Logged = %d, want 35", l.Logged())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExtColumns(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, Config{CacheEntries: 2, ExtColumns: []string{"disease", "dose"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Log(Entry{Person: 1}, 7, 9); err != nil {
		t.Fatal(err)
	}
	if err := l.Log(Entry{Person: 2}, 8, 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if cols := r.ExtColumns(); len(cols) != 2 || cols[0] != "disease" || cols[1] != "dose" {
		t.Fatalf("ExtColumns = %v", cols)
	}
	var exts [][]uint32
	if err := r.ForEach(func(e Entry, ext []uint32) error {
		cp := append([]uint32{}, ext...)
		exts = append(exts, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 || exts[0][0] != 7 || exts[0][1] != 9 || exts[1][0] != 8 || exts[1][1] != 10 {
		t.Fatalf("ext values = %v", exts)
	}
}

func TestExtArityMismatch(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, Config{ExtColumns: []string{"disease"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Log(Entry{}); err == nil {
		t.Error("missing ext value accepted")
	}
	if err := l.Log(Entry{}, 1, 2); err == nil {
		t.Error("extra ext value accepted")
	}
}

func TestEntryIs20Bytes(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, Config{CacheEntries: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := l.Log(Entry{Start: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// File = header + chunk headers + index + footer + n*20 payload.
	payload := int64(n * BaseEntrySize)
	if st.Size() < payload || st.Size() > payload+4096 {
		t.Fatalf("file size %d not consistent with %d bytes of 20-byte entries", st.Size(), payload)
	}
}

func TestTimeSlice(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{
		{Start: 0, Stop: 10, Person: 1, Place: 1},   // overlaps [5,15)
		{Start: 10, Stop: 20, Person: 2, Place: 1},  // overlaps
		{Start: 15, Stop: 16, Person: 3, Place: 2},  // inside? [15,16) vs [5,15): no
		{Start: 20, Stop: 30, Person: 4, Place: 2},  // after
		{Start: 0, Stop: 5, Person: 5, Place: 3},    // ends exactly at t0: no
		{Start: 14, Stop: 100, Person: 6, Place: 3}, // spans
	}
	for _, e := range entries {
		if err := l.Log(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.TimeSlice(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	var persons []uint32
	for _, e := range got {
		persons = append(persons, e.Person)
	}
	want := []uint32{1, 2, 6}
	if len(persons) != len(want) {
		t.Fatalf("TimeSlice persons = %v, want %v", persons, want)
	}
	for i := range want {
		if persons[i] != want[i] {
			t.Fatalf("TimeSlice persons = %v, want %v", persons, want)
		}
	}
}

func TestOpenRejectsWrongSchema(t *testing.T) {
	// A raw h5 file with a record size that is not 4-aligned above 20.
	path := tmpLog(t)
	l, err := Create(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Corrupt the recordSize field in the header (offset 8..12).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 19
	bad := path + ".bad"
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("wrong record size accepted")
	}
}

// Property: per-rank logs merge to exactly the global event multiset —
// distributing events across loggers loses and duplicates nothing.
func TestQuickShardedLogsMergeToWhole(t *testing.T) {
	dir := t.TempDir()
	iter := 0
	f := func(seed uint64) bool {
		iter++
		r := rng.New(seed)
		const ranks = 4
		loggers := make([]*Logger, ranks)
		paths := make([]string, ranks)
		for i := range loggers {
			paths[i] = filepath.Join(dir, fmt.Sprintf("i%d-r%d.h5l", iter, i))
			l, err := Create(paths[i], Config{CacheEntries: 3})
			if err != nil {
				return false
			}
			loggers[i] = l
		}
		want := make(map[Entry]int)
		n := r.Intn(60)
		for k := 0; k < n; k++ {
			e := Entry{
				Start:    uint32(r.Intn(100)),
				Stop:     uint32(r.Intn(100)),
				Person:   uint32(r.Intn(20)),
				Activity: uint32(r.Intn(5)),
				Place:    uint32(r.Intn(10)),
			}
			want[e]++
			if err := loggers[r.Intn(ranks)].Log(e); err != nil {
				return false
			}
		}
		for _, l := range loggers {
			if err := l.Close(); err != nil {
				return false
			}
		}
		got := make(map[Entry]int)
		for _, p := range paths {
			rd, err := Open(p)
			if err != nil {
				return false
			}
			err = rd.ForEach(func(e Entry, _ []uint32) error {
				got[e]++
				return nil
			})
			rd.Close()
			if err != nil {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for e, c := range want {
			if got[e] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLog(b *testing.B) {
	l, err := Create(filepath.Join(b.TempDir(), "bench.h5l"), Config{CacheEntries: 10000})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(BaseEntrySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Log(Entry{Start: uint32(i), Stop: uint32(i + 1), Person: uint32(i % 1000), Activity: 1, Place: uint32(i % 100)}); err != nil {
			b.Fatal(err)
		}
	}
}
