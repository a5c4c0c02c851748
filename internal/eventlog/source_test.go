package eventlog

import (
	"context"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
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

// writeSourceLog logs entries under cfg, with extFor's values in any
// extension columns.
func writeSourceLog(t *testing.T, entries []Entry, cfg Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.h5l")
	l, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if err := l.Log(e, extFor(i, len(cfg.ExtColumns))...); err != nil {
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

// extFor returns record i's n extension values, i and ^i in turn, so
// the bytes past a record's first 20 differ from record to record.
func extFor(i, n int) []uint32 {
	ext := make([]uint32, n)
	for k := range ext {
		ext[k] = uint32(i) ^ -uint32(k%2)
	}
	return ext
}

// boundaryPerson numbers the four records boundaryEntries puts on the
// window's bounds, above every random entry's person.
const boundaryPerson = 1 << 20

// boundaryEntries returns random entries around the window [t0, t1)
// after four that sit exactly on its bounds: Start = t1 and Stop = t0
// fall outside it, Start = t1−1 and Stop = t0+1 inside.
func boundaryEntries(t0, t1 uint32) []Entry {
	es := []Entry{
		{Start: t1, Stop: t1 + 5, Person: boundaryPerson},
		{Start: t0 - 3, Stop: t0, Person: boundaryPerson + 1},
		{Start: t1 - 1, Stop: t1 + 2, Person: boundaryPerson + 2},
		{Start: t0 - 4, Stop: t0 + 1, Person: boundaryPerson + 3},
	}
	return append(es, sourceTestEntries(3000, t1+20)...)
}

// referenceSlice decodes every record of the log at path, then keeps
// the entries that overlap [t0, t1).
func referenceSlice(t *testing.T, path string, t0, t1 uint32) []Entry {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var all []Entry
	if err := r.ForEach(func(e Entry, _ []uint32) error {
		all = append(all, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sliceFilter(all, t0, t1)
}

// sliceConfigs are the record layouts the slice filter must read: the
// 20-byte base record, records widened by extension columns, and both
// under per-chunk deflate.
var sliceConfigs = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{CacheEntries: 128}},
	{"ext", Config{CacheEntries: 128, ExtColumns: []string{"disease", "dose"}}},
	{"deflate", Config{CacheEntries: 128, Compress: true}},
	{"ext+deflate", Config{CacheEntries: 97, ExtColumns: []string{"disease"}, Compress: true}},
}

// TestSliceFilterMatchesDecodeAll: a file source and a tail over the
// closed file keep exactly the entries that decoding every record and
// then filtering keeps — records on the window's bounds included — for
// every record layout.
func TestSliceFilterMatchesDecodeAll(t *testing.T) {
	const t0, t1 = 40, 80
	entries := boundaryEntries(t0, t1)
	for _, c := range sliceConfigs {
		path := writeSourceLog(t, entries, c.cfg)
		want := referenceSlice(t, path, t0, t1)
		var onBounds []uint32
		for _, e := range want {
			if e.Person >= boundaryPerson {
				onBounds = append(onBounds, e.Person-boundaryPerson)
			}
		}
		if !slices.Equal(onBounds, []uint32{2, 3}) {
			t.Fatalf("%s: the reference keeps boundary records %v, want [2 3]", c.name, onBounds)
		}
		src, err := OpenSource(path, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, src); !slices.Equal(got, want) {
			t.Fatalf("%s: file source kept %d entries, decode-all-then-filter %d, or they differ", c.name, len(got), len(want))
		}
		src.Close()
		tail := OpenTail(context.Background(), path, t0, t1, TailOptions{Poll: fastPoll})
		if got := drain(t, tail); !slices.Equal(got, want) {
			t.Fatalf("%s: tail kept %d entries, decode-all-then-filter %d, or they differ", c.name, len(got), len(want))
		}
		tail.Close()
	}
}

// TestTailSliceOverLiveLog: a tail opened before its log exists, over a
// log written and flushed while it polls, keeps what decoding the
// finished file and then filtering keeps, for every record layout.
func TestTailSliceOverLiveLog(t *testing.T) {
	const t0, t1 = 40, 80
	entries := boundaryEntries(t0, t1)
	for _, c := range sliceConfigs {
		path := filepath.Join(t.TempDir(), "live.h5l")
		src := OpenTail(context.Background(), path, t0, t1, TailOptions{Poll: fastPoll})
		out, errc := drainAsync(src)
		l, err := Create(path, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if err := l.Log(e, extFor(i, len(c.cfg.ExtColumns))...); err != nil {
				t.Fatal(err)
			}
			if i%1000 == 999 {
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				time.Sleep(3 * fastPoll) // let the tail read a log without a footer
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := <-out
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		src.Close()
		if want := referenceSlice(t, path, t0, t1); !slices.Equal(got, want) {
			t.Fatalf("%s: tail kept %d entries, decode-all-then-filter %d, or they differ", c.name, len(got), len(want))
		}
	}
}

var entrySink []Entry

// BenchmarkSliceSource drains a synthetic 14-day log — 736 000 records,
// about what a 20 000-person simulation logs over two weeks, in
// nondecreasing Stop order as the simulator writes them — once for its
// last day and once whole.
func BenchmarkSliceSource(b *testing.B) {
	const hours, perHour = 14 * 24, 736000 / (14 * 24)
	path := filepath.Join(b.TempDir(), "week2.h5l")
	l, err := Create(path, Config{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(17)
	for stop := uint32(1); stop <= hours; stop++ {
		for k := 0; k < perHour; k++ {
			start := stop - 1 - min(uint32(r.Intn(8)), stop-1)
			e := Entry{Start: start, Stop: stop, Person: uint32(r.Intn(20000)), Activity: uint32(r.Intn(6)), Place: uint32(r.Intn(5000))}
			if err := l.Log(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name   string
		t0, t1 uint32
	}{{"last-day", hours - 24, hours}, {"all", 0, ^uint32(0)}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src, err := OpenSource(path, w.t0, w.t1)
				if err != nil {
					b.Fatal(err)
				}
				for {
					batch, err := src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					entrySink = batch
				}
				src.Close()
			}
		})
	}
}
