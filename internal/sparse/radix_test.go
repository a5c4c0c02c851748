package sparse

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRadixSortMatchesComparisonSort(t *testing.T) {
	r := rng.New(606)
	for trial := 0; trial < 20; trial++ {
		n := radixMinLen + r.Intn(4000)
		a := make([]Entry, n)
		for k := range a {
			// Mix small and huge IDs so high digit passes are exercised
			// in some trials and skipped in others.
			var i, j uint32
			if trial%2 == 0 {
				i, j = uint32(r.Intn(500)), uint32(r.Intn(500))
			} else {
				i, j = uint32(r.Uint64()), uint32(r.Uint64())
			}
			a[k] = Entry{I: i, J: j, W: uint32(r.Intn(100))}
		}
		b := append([]Entry(nil), a...)
		a = radixSortEntries(a, make([]Entry, n))
		slicesSortFunc(b)
		for k := range a {
			if entryKey(a[k]) != entryKey(b[k]) {
				t.Fatalf("trial %d: radix order diverges at %d: %x != %x",
					trial, k, entryKey(a[k]), entryKey(b[k]))
			}
		}
	}
}

func TestRadixSortDegenerateInputs(t *testing.T) {
	radixSortEntries(nil, nil)
	one := radixSortEntries([]Entry{{I: 3, J: 9, W: 1}}, make([]Entry, 1))
	if one[0] != (Entry{I: 3, J: 9, W: 1}) {
		t.Fatal("single-entry sort changed the entry")
	}
	// All-identical keys: every pass is skipped.
	same := make([]Entry, 1000)
	for k := range same {
		same[k] = Entry{I: 7, J: 8, W: uint32(k)}
	}
	same = radixSortEntries(same, make([]Entry, len(same)))
	var sum uint64
	for _, e := range same {
		if e.I != 7 || e.J != 8 {
			t.Fatal("identical-key sort corrupted entries")
		}
		sum += uint64(e.W)
	}
	if sum != 999*1000/2 {
		t.Fatal("identical-key sort lost weights")
	}
}

// referenceCoalesce is the straight-line reduction Coalesce must equal:
// normalize, drop self-pairs, comparison-sort one concatenated copy,
// fold equal keys.
func referenceCoalesce(parts ...[]Entry) *Tri {
	var all []Entry
	for _, p := range parts {
		for _, e := range p {
			if e.I == e.J {
				continue
			}
			if e.I > e.J {
				e.I, e.J = e.J, e.I
			}
			all = append(all, e)
		}
	}
	slicesSortFunc(all)
	t := &Tri{}
	for k, e := range all {
		if n := len(t.I); k > 0 && t.I[n-1] == e.I && t.J[n-1] == e.J {
			t.W[n-1] += e.W
			continue
		}
		t.I = append(t.I, e.I)
		t.J = append(t.J, e.J)
		t.W = append(t.W, e.W)
	}
	return t
}

// splitParts cuts es into k parts at random points, so some parts are
// empty and one may hold nearly everything.
func splitParts(r *rng.Source, es []Entry, k int) [][]Entry {
	cuts := make([]int, k+1)
	cuts[k] = len(es)
	for i := 1; i < k; i++ {
		cuts[i] = r.Intn(len(es) + 1)
	}
	slices.Sort(cuts)
	parts := make([][]Entry, k)
	for i := range parts {
		parts[i] = es[cuts[i]:cuts[i+1]]
	}
	return parts
}

// coalesceShapes are the entry distributions the Coalesce property runs
// over: each draws one entry.
var coalesceShapes = []struct {
	name string
	draw func(r *rng.Source, k int) Entry
}{
	// Dense simulation ids, both orders, about one self-pair in 300.
	{"dense", func(r *rng.Source, k int) Entry {
		return Entry{I: uint32(r.Intn(300)), J: uint32(r.Intn(300)), W: uint32(1 + r.Intn(9))}
	}},
	// Ids from 2^24 up to 2^32-2: the high bytes vary, and so do the top
	// bits that pick the bucket.
	{"wide", func(r *rng.Source, k int) Entry {
		id := func() uint32 { return 1<<24 + uint32(r.Uint64n(1<<32-2-1<<24+1)) }
		return Entry{I: id(), J: id(), W: uint32(r.Uint64())}
	}},
	// A few ids at the top of the range, so keys repeat and self-pairs
	// are common.
	{"top", func(r *rng.Source, k int) Entry {
		return Entry{I: 1<<32 - 2 - uint32(r.Intn(4)), J: 1<<32 - 2 - uint32(r.Intn(4)), W: 1}
	}},
	// Every entry in one row: one bucket holds the whole input.
	{"one row", func(r *rng.Source, k int) Entry {
		return Entry{I: 77, J: 78 + uint32(r.Intn(5000)), W: uint32(1 + r.Intn(3))}
	}},
	// All keys equal, half of them reversed.
	{"one key", func(r *rng.Source, k int) Entry {
		if k%2 == 0 {
			return Entry{I: 9, J: 4, W: uint32(k)}
		}
		return Entry{I: 4, J: 9, W: uint32(k)}
	}},
	// Only self-pairs: the network is empty.
	{"self", func(r *rng.Source, k int) Entry {
		id := uint32(r.Intn(50))
		return Entry{I: id, J: id, W: 1}
	}},
}

// TestCoalesceMatchesReference is the reduce step's property: for every
// entry distribution, input size (below, at and far above the cutoffs
// for radix sorting and for more than one bucket), split of the input
// into parts and worker count, Coalesce equals the comparison-sort
// reference and leaves its parts untouched.
func TestCoalesceMatchesReference(t *testing.T) {
	r := rng.New(2017)
	for _, shape := range coalesceShapes {
		for _, n := range []int{0, 1, radixMinLen - 1, coalesceBucket + 1, 40 * coalesceBucket} {
			es := make([]Entry, n)
			for k := range es {
				es[k] = shape.draw(r, k)
			}
			orig := slices.Clone(es)
			want := referenceCoalesce(es)
			for _, k := range []int{1, 2, 5, 16} {
				parts := splitParts(r, es, k)
				for _, w := range []int{1, 2, 3, 7, 16} {
					if got := Coalesce(w, parts...); !got.Equal(want) {
						t.Fatalf("%s, n=%d, %d parts, %d workers: Coalesce differs from the reference (%d vs %d edges)",
							shape.name, n, k, w, got.NNZ(), want.NNZ())
					}
				}
			}
			if !slices.Equal(es, orig) {
				t.Fatalf("%s, n=%d: Coalesce modified its parts", shape.name, n)
			}
		}
	}
}

// Property: MergeTris equals the linear best-head scan on arbitrary
// inputs, nils, empties and shared keys among them, for every k from 0
// to 9, so every odd and even shape of the pairwise fold runs.
func TestQuickMergeTournamentEqualsScan(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		for k := 0; k <= 9; k++ {
			ts := make([]*Tri, k)
			for i := range ts {
				ts[i] = randomTri(r)
			}
			if !MergeTris(ts...).Equal(mergeTrisScan(ts...)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTrisDoesNotAliasSingleInput(t *testing.T) {
	in := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}})
	out := MergeTris(in)
	if !out.Equal(in) {
		t.Fatal("single-input merge changed entries")
	}
	out.W[0] = 99
	if in.W[0] != 3 {
		t.Fatal("merge output aliases its input")
	}
}

// FuzzTriBinaryRoundTrip fuzzes UnmarshalBinary with arbitrary blobs:
// either it errors, or re-marshalling reproduces the input bytes exactly.
func FuzzTriBinaryRoundTrip(f *testing.F) {
	seed, _ := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}, {I: 4, J: 5, W: 6}}).MarshalBinary()
	f.Add(seed)
	empty, _ := (&Tri{}).MarshalBinary()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})                  // truncated: claims 1 entry, no payload
	f.Add([]byte{255, 255, 255, 255, 0, 1, 2}) // huge count, tiny blob
	f.Fuzz(func(t *testing.T, blob []byte) {
		var tr Tri
		if err := tr.UnmarshalBinary(blob); err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		out, err := tr.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, blob) {
			t.Fatalf("round trip changed bytes: %x -> %x", blob, out)
		}
	})
}

// FuzzTriFromEntries fuzzes Coalesce against referenceCoalesce on
// arbitrary entry bytes: whole on one worker, and cut into up to 7 parts
// at split-seeded points reduced by 1–16 workers.
func FuzzTriFromEntries(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, rep uint8, split uint16) {
		var es []Entry
		for off := 0; off+12 <= len(raw) && len(es) < 2000; off += 12 {
			e := Entry{
				I: binary.LittleEndian.Uint32(raw[off:]),
				J: binary.LittleEndian.Uint32(raw[off+4:]),
				W: binary.LittleEndian.Uint32(raw[off+8:]),
			}
			for k := 0; k <= int(rep%4); k++ {
				es = append(es, e)
			}
		}
		want := referenceCoalesce(es)
		if !Coalesce(1, es).Equal(want) {
			t.Fatal("Coalesce(1, entries) differs from referenceCoalesce")
		}
		parts := splitParts(rng.New(uint64(split)), es, 1+int(split%7))
		if workers := 1 + int(rep/4)%16; !Coalesce(workers, parts...).Equal(want) {
			t.Fatalf("Coalesce(%d, %d parts) differs from referenceCoalesce", workers, len(parts))
		}
	})
}
