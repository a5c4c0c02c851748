package sparse

import (
	"testing"

	"repro/internal/rng"
)

// pairsLen returns the number of entries p holds.
func pairsLen(p *Pairs) int {
	n := 0
	for _, pg := range p.Pages() {
		n += len(pg)
	}
	return n
}

// appendRaw appends e to p as it is — orientation and self-pairs kept —
// so the property below can feed pages what the Gram kernel never emits.
func appendRaw(p *Pairs, e Entry) {
	if len(p.cur) == cap(p.cur) {
		p.turn()
	}
	p.cur = append(p.cur, e)
}

// TestPagedCoalesceMatchesReference is the paged reduce's property: raw
// pairs of every Coalesce shape (both orientations, self-pairs,
// duplicate keys), dealt in runs of random length to random buffers,
// through pages from 1 entry up to the real page size, then one Coalesce
// over every page of every buffer, must equal the comparison-sort
// reference bit for bit, with exactly sized output arrays. Every page
// but a buffer's last must be full and none may outgrow its size.
func TestPagedCoalesceMatchesReference(t *testing.T) {
	r := rng.New(35)
	for _, shape := range coalesceShapes {
		for _, n := range []int{0, 1, 7, radixMinLen + 3, 3*coalesceBucket + 5} {
			es := make([]Entry, n)
			for k := range es {
				es[k] = shape.draw(r, k)
			}
			want := referenceCoalesce(es)
			for _, page := range []int{1, 2, 3, 64, 1000, pageEntries} {
				for _, k := range []int{1, 2, 5} {
					bufs := make([]Pairs, k)
					for i := range bufs {
						bufs[i].page = page
					}
					for lo := 0; lo < n; {
						hi := min(n, lo+1+r.Intn(40))
						b := &bufs[r.Intn(k)]
						for _, e := range es[lo:hi] {
							appendRaw(b, e)
						}
						lo = hi
					}
					var parts [][]Entry
					held := 0
					for i := range bufs {
						pages := bufs[i].Pages()
						for pi, pg := range pages {
							if len(pg) == 0 || cap(pg) != page || (pi < len(pages)-1 && len(pg) != page) {
								t.Fatalf("%s, n=%d, page %d: buffer %d page %d has len %d cap %d",
									shape.name, n, page, i, pi, len(pg), cap(pg))
							}
						}
						held += pairsLen(&bufs[i])
						parts = append(parts, pages...)
					}
					if held != n {
						t.Fatalf("%s, n=%d, page %d: buffers hold %d entries", shape.name, n, page, held)
					}
					for _, w := range []int{1, 2, 7} {
						got := Coalesce(w, parts...)
						if !got.Equal(want) {
							t.Fatalf("%s, n=%d, page %d, %d buffers, %d workers: paged Coalesce differs from the reference (%d vs %d edges)",
								shape.name, n, page, k, w, got.NNZ(), want.NNZ())
						}
						if cap(got.I) != len(got.I) || cap(got.J) != len(got.J) || cap(got.W) != len(got.W) {
							t.Fatalf("%s, n=%d, page %d: output arrays not exactly sized (len %d, caps %d/%d/%d)",
								shape.name, n, page, len(got.I), cap(got.I), cap(got.J), cap(got.W))
						}
					}
				}
			}
		}
	}
}

// TestAppendRowOrdersAndPages: a Gram row longer than several pages
// comes out ordered I < J, in order, split across full pages.
func TestAppendRowOrdersAndPages(t *testing.T) {
	ids := []uint32{50, 3, 70, 10, 99, 1, 42}
	ks := []int32{0, 1, 2, 3, 4, 5, 6}
	p := Pairs{page: 3}
	p.appendRow(20, ks, ids, 5)
	p.appendRow(20, ks[:0], ids, 5)
	pages := p.Pages()
	if len(pages) != 3 || len(pages[0]) != 3 || len(pages[1]) != 3 || len(pages[2]) != 1 {
		t.Fatalf("pages %v, want lengths 3, 3, 1", pages)
	}
	var got []Entry
	for _, pg := range pages {
		got = append(got, pg...)
	}
	for k, e := range got {
		i, j := min(uint32(20), ids[k]), max(uint32(20), ids[k])
		if e != (Entry{I: i, J: j, W: 5}) {
			t.Fatalf("entry %d = %v, want {%d %d 5}", k, e, i, j)
		}
	}
	if n := pairsLen(&p); n != len(ids) {
		t.Fatalf("holds %d entries, want %d", n, len(ids))
	}
}
