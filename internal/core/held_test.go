package core

import (
	"testing"

	"repro/internal/eventlog"
	"repro/internal/rng"
)

// TestHeldSegment: entries appended in batches of every size come back
// at their arrival index through at, the blocks fill in order, and what
// they allocate stays near what they hold — at most twice it while the
// first block is growing, one block more after — also when refilled
// after a reset.
func TestHeldSegment(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 40; trial++ {
		var h held
		var flat []eventlog.Entry
		for round := 0; round < 3; round++ {
			n := r.Intn(3 * heldBlock)
			for len(flat) < n {
				batch := make([]eventlog.Entry, min(1+r.Intn(heldBlock/2), n-len(flat)))
				for i := range batch {
					batch[i] = eventlog.Entry{Person: uint32(len(flat) + i), Place: uint32(r.Intn(100))}
				}
				h.append(batch)
				flat = append(flat, batch...)
			}
			if h.n != len(flat) {
				t.Fatalf("trial %d: held %d entries, appended %d", trial, h.n, len(flat))
			}
			capacity := 0
			for k, b := range h.blocks {
				if want := min(heldBlock, max(h.n-k*heldBlock, 0)); len(b) != want {
					t.Fatalf("trial %d: block %d holds %d entries, want %d", trial, k, len(b), want)
				}
				capacity += cap(b)
			}
			// Round 1 refills the blocks round 0 left; the others start
			// empty.
			if round != 1 && capacity > max(2*h.n, h.n+heldBlock) {
				t.Fatalf("trial %d: capacity %d for %d entries", trial, capacity, h.n)
			}
			for i, want := range flat {
				if got := h.at(uint32(i)); got != want {
					t.Fatalf("trial %d: entry %d = %+v, appended %+v", trial, i, got, want)
				}
			}
			if round == 1 {
				h = held{}
			} else {
				h.reset()
			}
			flat = flat[:0]
		}
	}
	// A flat slice viewed as a held segment addresses the same entries.
	es := make([]eventlog.Entry, 2*heldBlock+5)
	for i := range es {
		es[i].Person = uint32(i)
	}
	v := heldView(es)
	for i := range es {
		if v.at(uint32(i)) != es[i] {
			t.Fatalf("heldView: entry %d differs", i)
		}
	}
}
