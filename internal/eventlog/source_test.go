package eventlog

import (
	"context"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

func sourceTestEntries(n int, hours uint32) []Entry {
	r := rng.New(99)
	entries := make([]Entry, n)
	for i := range entries {
		start := uint32(r.Intn(int(hours)))
		entries[i] = Entry{
			Start:    start,
			Stop:     start + 1 + uint32(r.Intn(6)),
			Person:   uint32(r.Intn(500)),
			Activity: uint32(r.Intn(4)),
			Place:    uint32(r.Intn(40)),
		}
	}
	return entries
}

func writeSourceLog(t *testing.T, entries []Entry, cfg Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.h5l")
	l, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := l.Log(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sliceFilter is the reference semantics every source must match:
// entries overlapping [t0, t1), in log order.
func sliceFilter(entries []Entry, t0, t1 uint32) []Entry {
	var out []Entry
	for _, e := range entries {
		if e.Start < t1 && e.Stop > t0 {
			out = append(out, e)
		}
	}
	return out
}

func drain(t *testing.T, src EntrySource) []Entry {
	t.Helper()
	var out []Entry
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Batches are only valid until the next call: copy.
		out = append(out, batch...)
	}
	return out
}

func TestSliceSourceMatchesFilter(t *testing.T) {
	entries := sourceTestEntries(20000, 100)
	src := SliceSource(context.Background(), entries, 10, 40)
	got := drain(t, src)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	want := sliceFilter(entries, 10, 40)
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSliceSourceBatchesAreBounded(t *testing.T) {
	entries := sourceTestEntries(50000, 50)
	src := SliceSource(context.Background(), entries, 0, ^uint32(0))
	defer src.Close()
	batches := 0
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > 8192 {
			t.Fatalf("batch of %d entries exceeds the documented bound", len(batch))
		}
		batches++
	}
	if batches < 2 {
		t.Fatalf("50000 entries drained in %d batch(es); expected streaming", batches)
	}
}

func TestReaderSourceMatchesFilter(t *testing.T) {
	entries := sourceTestEntries(5000, 100)
	path := writeSourceLog(t, entries, Config{CacheEntries: 128})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, w := range [][2]uint32{{0, 100}, {25, 60}, {99, 100}, {200, 300}} {
		want := sliceFilter(entries, w[0], w[1])
		src := r.Source(w[0], w[1])
		got := drain(t, src)
		src.Close()
		if len(got) != len(want) {
			t.Fatalf("window %v: source drained %d, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %v entry %d: %+v != %+v", w, i, got[i], want[i])
			}
		}
	}
}

func TestOpenFilesSourceConcatenates(t *testing.T) {
	a := sourceTestEntries(700, 50)
	b := sourceTestEntries(300, 50)
	pa := writeSourceLog(t, a, Config{CacheEntries: 64})
	pb := writeSourceLog(t, b, Config{CacheEntries: 64, Compress: true})

	src := OpenFilesSource([]string{pa, pb}, 5, 30)
	got := drain(t, src)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(sliceFilter(a, 5, 30), sliceFilter(b, 5, 30)...)
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestOpenFilesSourceMissingFile(t *testing.T) {
	src := OpenFilesSource([]string{filepath.Join(t.TempDir(), "absent.h5l")}, 0, 10)
	defer src.Close()
	if _, err := src.Next(); err == nil || err == io.EOF {
		t.Fatalf("missing file: err = %v, want open failure", err)
	}
}

func TestReadAllEmptySource(t *testing.T) {
	got, err := ReadAll(SliceSource(context.Background(), nil, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d entries from empty source", len(got))
	}
}

// TestReadAllDoesNotOverAllocate: draining a narrow window out of a
// large log must not allocate capacity proportional to the whole file.
func TestReadAllDoesNotOverAllocate(t *testing.T) {
	const n = 40000
	r := rng.New(7)
	entries := make([]Entry, n)
	for i := range entries {
		start := uint32(r.Intn(400))
		entries[i] = Entry{Start: start, Stop: start + 1, Person: uint32(i), Place: uint32(r.Intn(16))}
	}
	path := writeSourceLog(t, entries, Config{CacheEntries: 1024})
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got, err := ReadAll(rd.Source(100, 102))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("window unexpectedly empty")
	}
	if cap(got) >= n/4 {
		t.Fatalf("slice of %d entries allocated capacity %d (file has %d): over-allocation",
			len(got), cap(got), n)
	}
}

// TestReadAllAllocatesTwiceTheResult: draining 100k entries allocates
// at most 2.5× the result's bytes (a copy of each batch, then the result
// once), not the ≈ 5× that growing the result by append costs.
func TestReadAllAllocatesTwiceTheResult(t *testing.T) {
	const n = 100000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Start: uint32(i), Stop: uint32(i) + 1, Person: uint32(i)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadAll(SliceSource(context.Background(), entries, 0, n+1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || got[n-1] != entries[n-1] {
		t.Fatalf("got %d entries, want %d", len(got), n)
	}
	result := uint64(n) * uint64(unsafe.Sizeof(Entry{}))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc*2 > result*5 {
		t.Fatalf("ReadAll of %d B allocated %d B (%.2f×), want ≤ 2.5×",
			result, alloc, float64(alloc)/float64(result))
	}
}

// TestOpenSourceReusesChunkPayload: a file source decodes every chunk
// into the one payload buffer of the first, so draining a 10-chunk log
// allocates about what draining its first chunk alone does — not nine
// more payloads — under plain and deflate flags, and still returns every
// logged entry.
func TestOpenSourceReusesChunkPayload(t *testing.T) {
	const chunk = 4096
	entries := sourceTestEntries(10*chunk, 168)
	for _, cfg := range []Config{{CacheEntries: chunk}, {CacheEntries: chunk, Compress: true}} {
		ten := writeSourceLog(t, entries, cfg)
		one := writeSourceLog(t, entries[:chunk], cfg)
		// allocated returns the bytes draining path allocates.
		allocated := func(path string) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			src, err := OpenSource(path, 0, ^uint32(0))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := src.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			src.Close()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		payload := uint64(chunk * BaseEntrySize)
		if a1, a10 := allocated(one), allocated(ten); a10 > a1+payload/2 {
			t.Fatalf("compress %v: 10 chunks allocate %d bytes, 1 chunk %d: more than one %d-byte payload apart",
				cfg.Compress, a10, a1, payload)
		}
		src, err := OpenSource(ten, 0, ^uint32(0))
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, src); !slices.Equal(got, entries) {
			t.Fatalf("compress %v: entries read back differ from those logged", cfg.Compress)
		}
	}
}
