package sparse

import (
	"encoding/binary"
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

// dealPairs deals es, in runs of random length, to k fresh buffers with
// the given page and chunk lengths, each entry as it is (appendRaw).
func dealPairs(r *rng.Source, es []Entry, k, page, chunk int) []Pairs {
	bufs := make([]Pairs, k)
	for i := range bufs {
		bufs[i].page, bufs[i].chunk = page, chunk
	}
	for lo := 0; lo < len(es); {
		hi := min(len(es), lo+1+r.Intn(40))
		b := &bufs[r.Intn(k)]
		for _, e := range es[lo:hi] {
			appendRaw(b, e)
		}
		lo = hi
	}
	return bufs
}

// exactlySized reports whether t's arrays have no spare capacity.
func exactlySized(t *Tri) bool {
	return cap(t.I) == len(t.I) && cap(t.J) == len(t.J) && cap(t.W) == len(t.W)
}

// TestReduceMatchesReference is the consuming reduce's property: the
// shapes and sizes of TestPagedCoalesceMatchesReference, dealt to fresh
// buffers for every run, over pages and chunks from 1 entry up to the
// real lengths (so chunks longer than pages, and pages that do not cut
// into whole chunks, both occur) and 1, 2 and 7 workers. Reduce must
// equal the comparison-sort reference bit for bit, with exactly sized
// output arrays, and leave every buffer empty.
func TestReduceMatchesReference(t *testing.T) {
	r := rng.New(41)
	for _, shape := range coalesceShapes {
		for _, n := range []int{0, 1, 7, radixMinLen + 3, 3*coalesceBucket + 5} {
			es := make([]Entry, n)
			for k := range es {
				es[k] = shape.draw(r, k)
			}
			want := referenceCoalesce(es)
			for _, page := range []int{1, 3, 64, 1000, pageEntries} {
				for _, chunk := range []int{1, 2, 3, 64, chunkEntries} {
					for _, w := range []int{1, 2, 7} {
						bufs := dealPairs(r, es, 1+r.Intn(5), page, chunk)
						got := Reduce(w, bufs)
						if !got.Equal(want) {
							t.Fatalf("%s, n=%d, page %d, chunk %d, %d buffers, %d workers: Reduce differs from the reference (%d vs %d edges)",
								shape.name, n, page, chunk, len(bufs), w, got.NNZ(), want.NNZ())
						}
						if !exactlySized(got) {
							t.Fatalf("%s, n=%d, page %d, chunk %d: output arrays not exactly sized (len %d, caps %d/%d/%d)",
								shape.name, n, page, chunk, len(got.I), cap(got.I), cap(got.J), cap(got.W))
						}
						for i := range bufs {
							if bufs[i].Len() != 0 || len(bufs[i].Pages()) != 0 {
								t.Fatalf("%s, n=%d, page %d, chunk %d: buffer %d not empty after Reduce", shape.name, n, page, chunk, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestReduceFreshChunksBounded: the scatter allocates a chunk only while
// no page it has read has one free, so when the chunk length divides the
// page length it allocates at most workers × (buckets + chunks per page),
// however many pages the window holds.
func TestReduceFreshChunksBounded(t *testing.T) {
	r := rng.New(7)
	es := make([]Entry, 300000)
	for k := range es {
		es[k] = Entry{I: uint32(r.Intn(20000)), J: uint32(r.Intn(20000)), W: 1}
	}
	for _, c := range []struct{ page, chunk int }{{pageEntries, chunkEntries}, {4096, 64}, {64, 4}, {12, 3}} {
		for _, w := range []int{1, 2, 4, 7} {
			bufs := dealPairs(r, es, 3, c.page, c.chunk)
			var pages [][]Entry
			for i := range bufs {
				pages = append(pages, bufs[i].Pages()...)
			}
			got, buckets, fresh := reducePages(w, c.chunk, pages)
			if got.NNZ() == 0 {
				t.Fatal("empty network")
			}
			if bound := w * (buckets + c.page/c.chunk); fresh > bound {
				t.Fatalf("page %d, chunk %d, %d workers: %d fresh chunks, bound %d (%d buckets)",
					c.page, c.chunk, w, fresh, bound, buckets)
			}
		}
	}
}

// FuzzReduce fuzzes Reduce against referenceCoalesce: arbitrary entry
// bytes dealt over 1–5 buffers with page and chunk lengths 1–7, reduced
// by 1–16 workers, chosen by knobs.
func FuzzReduce(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0}, uint32(0))
	f.Add([]byte{9, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0}, uint32(12345))
	f.Fuzz(func(t *testing.T, raw []byte, knobs uint32) {
		var es []Entry
		for off := 0; off+12 <= len(raw) && len(es) < 2000; off += 12 {
			es = append(es, Entry{
				I: binary.LittleEndian.Uint32(raw[off:]),
				J: binary.LittleEndian.Uint32(raw[off+4:]),
				W: binary.LittleEndian.Uint32(raw[off+8:]),
			})
		}
		k, page, chunk := 1+int(knobs%5), 1+int(knobs/5%7), 1+int(knobs/35%7)
		workers := 1 + int(knobs/245%16)
		bufs := dealPairs(rng.New(uint64(knobs)), es, k, page, chunk)
		got := Reduce(workers, bufs)
		if !got.Equal(referenceCoalesce(es)) {
			t.Fatalf("Reduce(%d workers, %d buffers, page %d, chunk %d) differs from referenceCoalesce", workers, k, page, chunk)
		}
		if !exactlySized(got) {
			t.Fatal("output arrays not exactly sized")
		}
	})
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
