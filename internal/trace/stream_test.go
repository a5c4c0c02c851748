package trace

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/eventlog"
)

func streamTestEntries() []eventlog.Entry {
	return []eventlog.Entry{
		{Start: 0, Stop: 5, Person: 1, Place: 10},
		{Start: 1, Stop: 4, Person: 2, Place: 10},
		{Start: 3, Stop: 8, Person: 3, Place: 10},
		{Start: 6, Stop: 9, Person: 1, Place: 11},
		{Start: 6, Stop: 9, Person: 4, Place: 11},
		{Start: 20, Stop: 24, Person: 1, Place: 12},
		{Start: 21, Stop: 23, Person: 5, Place: 12},
	}
}

func writeTraceLog(t *testing.T, entries []eventlog.Entry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.h5l")
	l, err := eventlog.Create(path, eventlog.Config{CacheEntries: 4})
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

// TestReaderSourceIndexMatchesNewIndex: an index streamed from an open
// log must answer queries identically to the materialize-everything one.
func TestReaderSourceIndexMatchesNewIndex(t *testing.T) {
	entries := streamTestEntries()
	path := writeTraceLog(t, entries)

	want := NewIndex(entries)

	r, err := eventlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := NewIndexFromSource(r.Source(0, ^uint32(0)))
	if err != nil {
		t.Fatal(err)
	}

	for _, person := range []uint32{1, 2, 3, 4, 5} {
		cw := want.Contacts(person, 0, 24)
		cg := got.Contacts(person, 0, 24)
		if !reflect.DeepEqual(cw, cg) {
			t.Fatalf("person %d: streaming contacts %+v, in-memory %+v", person, cg, cw)
		}
	}
}

// TestReaderSourceIndexWindow: the source's [t0, t1) window restricts
// which entries are indexed.
func TestReaderSourceIndexWindow(t *testing.T) {
	path := writeTraceLog(t, streamTestEntries())
	r, err := eventlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ix, err := NewIndexFromSource(r.Source(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Person 1's place-12 stay starts at hour 20, outside the window.
	if got := ix.Entries(1, 0, ^uint32(0)); len(got) != 2 {
		t.Fatalf("windowed index holds %d entries for person 1, want 2", len(got))
	}
	if cs := ix.Contacts(1, 0, 24); len(cs) != 3 {
		t.Fatalf("windowed contacts = %d, want 3 (persons 2, 3, 4)", len(cs))
	}
}

// TestNewIndexFromSourceMatchesFromFiles: FromFiles streams via the
// same path; both must agree with the slice-based constructor.
func TestNewIndexFromSourceMatchesFromFiles(t *testing.T) {
	entries := streamTestEntries()
	path := writeTraceLog(t, entries)

	ix, err := FromFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	src := eventlog.SliceSource(context.Background(), entries, 0, ^uint32(0))
	defer src.Close()
	ix2, err := NewIndexFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := NewIndex(entries)
	for _, person := range []uint32{1, 3, 5} {
		a := want.Contacts(person, 0, 24)
		b := ix.Contacts(person, 0, 24)
		c := ix2.Contacts(person, 0, 24)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("person %d: constructors disagree: %+v / %+v / %+v", person, a, b, c)
		}
	}
}
