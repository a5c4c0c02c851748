package gstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

func pubGraph(w uint32) *graph.Graph {
	return graph.FromTri(&sparse.Tri{
		I: []uint32{0, 1},
		J: []uint32{1, 2},
		W: []uint32{w, w + 1},
	}, 4)
}

// TestPublisherGenerations: every publish lands deterministic indexed
// bytes on the live path, on a fresh inode (the property the netserve
// watcher relies on to disambiguate same-mtime publishes), with a
// monotonic generation count.
func TestPublisherGenerations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.gsnap")
	p := NewPublisher(path, PublisherOptions{})
	var prev os.FileInfo
	for i := 1; i <= 3; i++ {
		info, err := p.Publish(pubGraph(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != i || p.Generation() != i {
			t.Fatalf("publish %d: generation = %d/%d", i, info.Generation, p.Generation())
		}
		if info.Bytes <= 0 {
			t.Fatalf("publish %d: %d bytes", i, info.Bytes)
		}
		ref := filepath.Join(dir, "ref.gsnap")
		if err := WriteFileIndexed(ref, pubGraph(uint32(i)), IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("publish %d: bytes differ from a direct indexed write", i)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && os.SameFile(prev, fi) {
			t.Fatalf("publish %d reused the previous inode", i)
		}
		prev = fi
	}
}

// TestPublisherHistoryRetention: History keeps the last N generations
// as hard links beside the live path and prunes older ones; the newest
// link shares the live file's inode and retained generations stay
// loadable.
func TestPublisherHistoryRetention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gsnap")
	p := NewPublisher(path, PublisherOptions{History: 2})
	for i := 1; i <= 5; i++ {
		if _, err := p.Publish(pubGraph(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	old, err := filepath.Glob(path + ".gen-*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(old)
	want := []string{path + ".gen-000004", path + ".gen-000005"}
	if len(old) != len(want) || old[0] != want[0] || old[1] != want[1] {
		t.Fatalf("history = %v, want %v", old, want)
	}
	live, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	newest, err := os.Stat(want[1])
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(live, newest) {
		t.Fatal("newest history link does not share the live file's inode")
	}
	if _, err := LoadGraphFile(want[0], 0); err != nil {
		t.Fatalf("retained generation unloadable: %v", err)
	}
}

// TestPublisherRestartContinuesHistory: a Publisher made on a path that
// already has retained generations numbers its own after the highest
// one, so a restart neither collides with the old links nor prunes its
// own newest ones: the newest History generations stay, newest last,
// and the newest shares the live file's inode.
func TestPublisherRestartContinuesHistory(t *testing.T) {
	for _, c := range []struct{ history, before, after int }{
		{history: 5, before: 2, after: 2},
		{history: 2, before: 5, after: 1},
	} {
		t.Run(fmt.Sprintf("history %d after %d", c.history, c.before), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "live.gsnap")
			for run, publishes := range []int{c.before, c.after} {
				p := NewPublisher(path, PublisherOptions{History: c.history})
				for i := 1; i <= publishes; i++ {
					if _, err := p.Publish(pubGraph(uint32(10*run + i))); err != nil {
						t.Fatalf("run %d, publish %d: %v", run+1, i, err)
					}
				}
			}
			total := c.before + c.after
			var want []string
			for n := max(total-c.history, 0) + 1; n <= total; n++ {
				want = append(want, fmt.Sprintf("%s.gen-%06d", path, n))
			}
			got, err := filepath.Glob(path + ".gen-*")
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("history = %v, want %v", got, want)
			}
			live, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			newest, err := os.Stat(want[len(want)-1])
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(live, newest) {
				t.Fatal("newest history link does not share the live file's inode")
			}
		})
	}
}

// publishTown draws a town's entries over four days: every person
// spends each day at home, at a workplace of twenty from a staggered
// hour for eight hours, and at home again; one working day in ten goes
// to a random venue instead. Housemates and colleagues meet again every
// day, so once the first day is in, a 4 h window re-weights many edges
// and adds or removes few, the shape of a streamed collocation network.
func publishTown(seed uint64) []eventlog.Entry {
	const persons, venues = 400, 30
	r := rng.New(seed)
	var entries []eventlog.Entry
	for p := uint32(0); p < persons; p++ {
		home, work := p/4, persons/4+p/20
		for day := uint32(0); day < 4; day++ {
			t0 := 24 * day
			out, back := t0+6+uint32(r.Intn(6)), t0+14+uint32(r.Intn(6))
			place := work
			if r.Intn(10) == 0 {
				place = persons/4 + persons/20 + uint32(r.Intn(venues))
			}
			entries = append(entries,
				eventlog.Entry{Start: t0, Stop: out, Person: p, Place: home},
				eventlog.Entry{Start: out, Stop: back, Person: p, Place: place},
				eventlog.Entry{Start: back, Stop: t0 + 24, Person: p, Place: home})
		}
	}
	return entries
}

// TestPublisherMatchesWriteFileIndexed: 24 generations streamed from
// core.Stream through one Publisher, at decay 1 (edges only added), ½
// (weights that floor to zero remove edges) and 0 (each window stands
// alone), are each byte-identical to a fresh WriteFileIndexed of the
// same graph. Every run takes both paths to the triangle counts (an
// update, and a recount where a window moved too many edges), the
// cumulative one updates on most publishes, and the added and removed
// edge counters net out to the last generation's edges.
func TestPublisherMatchesWriteFileIndexed(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.Default.Enabled())
	telemetry.SetEnabled(true)
	ctx := context.Background()
	entries := publishTown(5)
	for _, decay := range []struct {
		name     string
		num, den uint64
	}{{"cumulative", 1, 1}, {"half", 1, 2}, {"window-only", 0, 1}} {
		t.Run(decay.name, func(t *testing.T) {
			dir := t.TempDir()
			live, ref := filepath.Join(dir, "live.gsnap"), filepath.Join(dir, "ref.gsnap")
			p := NewPublisher(live, PublisherOptions{Index: IndexOptions{Workers: 2}})
			updated0, recounted0 := mTrianglesUpdated.Value(), mTrianglesRecounted.Value()
			added0, removed0 := mEdgesAdded.Value(), mEdgesRemoved.Value()
			var last *graph.Graph
			_, err := core.Stream(ctx, []eventlog.EntrySource{eventlog.SliceSource(ctx, entries, 0, 96)}, core.StreamConfig{
				T0: 0, T1: 96, WindowHours: 4, HorizonHours: core.HorizonEOF,
				DecayNum: decay.num, DecayDen: decay.den,
				Synth: core.Config{Workers: 2},
				OnWindow: func(w core.WindowResult) error {
					g := graph.FromTri(w.Net, 0)
					if _, err := p.Publish(g); err != nil {
						return err
					}
					if err := WriteFileIndexed(ref, g, IndexOptions{Workers: 1}); err != nil {
						return err
					}
					got, err := os.ReadFile(live)
					if err != nil {
						return err
					}
					want, err := os.ReadFile(ref)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("window %d [%d,%d): published bytes differ from WriteFileIndexed", w.Index, w.W0, w.W1)
					}
					last = g
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			updated := mTrianglesUpdated.Value() - updated0
			recounted := mTrianglesRecounted.Value() - recounted0
			if p.Generation() != 24 || updated+recounted != 24 {
				t.Fatalf("%d generations, %d updated + %d recounted, want 24", p.Generation(), updated, recounted)
			}
			if updated == 0 || recounted == 0 || (decay.num == decay.den && updated < 12) {
				t.Fatalf("%d publishes updated and %d recounted their triangle counts", updated, recounted)
			}
			added, removed := mEdgesAdded.Value()-added0, mEdgesRemoved.Value()-removed0
			if added-removed != int64(last.NumEdges()) {
				t.Fatalf("edges added %d − removed %d ≠ %d edges in the last generation", added, removed, last.NumEdges())
			}
			if decay.num != decay.den && removed == 0 {
				t.Fatal("a decayed stream removed no edge")
			}
			t.Logf("%d updated, %d recounted, %d edges added, %d removed", updated, recounted, added, removed)
		})
	}
}
