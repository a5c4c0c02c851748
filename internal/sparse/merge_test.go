package sparse

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTriFromEntriesNormalizesAndSums(t *testing.T) {
	es := []Entry{
		{I: 5, J: 2, W: 3}, // reversed pair
		{I: 2, J: 5, W: 4}, // duplicate of the above
		{I: 7, J: 7, W: 9}, // self-pair: dropped
		{I: 1, J: 3, W: 1},
	}
	tr := Coalesce(1, es)
	if tr.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", tr.NNZ())
	}
	if tr.Weight(2, 5) != 7 {
		t.Fatalf("weight(2,5) = %d, want 7", tr.Weight(2, 5))
	}
	if tr.Weight(1, 3) != 1 {
		t.Fatalf("weight(1,3) = %d", tr.Weight(1, 3))
	}
	if tr.Weight(7, 7) != 0 {
		t.Fatal("self-pair survived")
	}
	// Sorted invariant.
	for k := 1; k < tr.NNZ(); k++ {
		prev := uint64(tr.I[k-1])<<32 | uint64(tr.J[k-1])
		cur := uint64(tr.I[k])<<32 | uint64(tr.J[k])
		if prev >= cur {
			t.Fatal("Coalesce output not sorted")
		}
	}
}

func TestTriFromEntriesEmpty(t *testing.T) {
	if tr := Coalesce(1, nil); tr.NNZ() != 0 {
		t.Fatal("empty input produced entries")
	}
}

func TestMergeTrisBasic(t *testing.T) {
	a := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}, {I: 5, J: 9, W: 1}})
	b := Coalesce(1, []Entry{{I: 1, J: 2, W: 4}, {I: 0, J: 7, W: 2}})
	m := MergeTris(a, b)
	if m.NNZ() != 3 {
		t.Fatalf("merged NNZ = %d, want 3", m.NNZ())
	}
	if m.Weight(1, 2) != 7 || m.Weight(5, 9) != 1 || m.Weight(0, 7) != 2 {
		t.Fatalf("merged weights wrong: %+v", m)
	}
}

func TestMergeTrisNilAndEmpty(t *testing.T) {
	a := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}})
	m := MergeTris(nil, a, &Tri{})
	if m.NNZ() != 1 || m.Weight(1, 2) != 3 {
		t.Fatalf("merge with nil/empty inputs wrong: %+v", m)
	}
	if MergeTris().NNZ() != 0 {
		t.Fatal("zero-input merge should be empty")
	}
}

// randomTri returns nil, an empty Tri, or a coalesced one of up to 40
// entries over ids below 15.
func randomTri(r *rng.Source) *Tri {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return &Tri{}
	}
	es := make([]Entry, r.Intn(40))
	for k := range es {
		es[k] = Entry{I: uint32(r.Intn(15)), J: uint32(r.Intn(15)), W: uint32(1 + r.Intn(4))}
	}
	return Coalesce(1, es)
}

// Property: MergeTris equals one Coalesce over the entries of all its
// inputs: merging finished networks sums their weights pair by pair.
func TestQuickMergeEqualsSum(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var ts []*Tri
		var all []Entry
		for range 3 {
			es := make([]Entry, r.Intn(40))
			for k := range es {
				es[k] = Entry{I: uint32(r.Intn(15)), J: uint32(r.Intn(15)), W: uint32(1 + r.Intn(4))}
			}
			ts = append(ts, Coalesce(1, es))
			all = append(all, es...)
		}
		return MergeTris(ts...).Equal(Coalesce(1, all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Coalesce on one worker equals a map accumulator over the same
// entries: pairs ordered, self-pairs dropped, repeats summed.
func TestQuickTriFromEntriesEqualsAccum(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		es := make([]Entry, r.Intn(60))
		acc := map[[2]uint32]uint32{}
		for k := range es {
			e := Entry{I: uint32(r.Intn(12)), J: uint32(r.Intn(12)), W: uint32(1 + r.Intn(5))}
			es[k] = e
			if e.I != e.J {
				acc[[2]uint32{min(e.I, e.J), max(e.I, e.J)}] += e.W
			}
		}
		tr := Coalesce(1, es)
		if tr.NNZ() != len(acc) {
			return false
		}
		for k := range tr.I {
			if acc[[2]uint32{tr.I[k], tr.J[k]}] != tr.W[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterTri(t *testing.T) {
	tr := Coalesce(1, []Entry{{I: 1, J: 2, W: 5}, {I: 3, J: 4, W: 6}, {I: 1, J: 4, W: 7}})
	fromOne := tr.Filter(func(i, j uint32) bool { return i == 1 })
	if fromOne.NNZ() != 2 || fromOne.Weight(1, 2) != 5 || fromOne.Weight(1, 4) != 7 || fromOne.Weight(3, 4) != 0 {
		t.Fatalf("filtered = %+v", fromOne)
	}
	none := tr.Filter(func(i, j uint32) bool { return false })
	if none.NNZ() != 0 {
		t.Fatal("filter-all-out kept entries")
	}
	all := tr.Filter(func(i, j uint32) bool { return true })
	if !all.Equal(tr) {
		t.Fatal("filter-keep-all changed entries")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}})
	b := Coalesce(1, []Entry{{I: 1, J: 2, W: 4}})
	if a.Equal(b) {
		t.Fatal("different weights reported equal")
	}
	c := Coalesce(1, []Entry{{I: 1, J: 3, W: 3}})
	if a.Equal(c) {
		t.Fatal("different pairs reported equal")
	}
}

func TestNewBitMatrixPanicsOnNonPositiveCols(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitMatrix(0) did not panic")
		}
	}()
	NewBitMatrix(0)
}

func TestTriBinaryRoundTrip(t *testing.T) {
	tr := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}, {I: 1000000, J: 2000000, W: 7}})
	blob, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tri
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tr) {
		t.Fatal("binary round trip changed the matrix")
	}
	// Empty matrix.
	blob, _ = (&Tri{}).MarshalBinary()
	var backEmpty Tri
	if err := backEmpty.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if backEmpty.NNZ() != 0 {
		t.Fatal("empty round trip gained entries")
	}
}

func TestTriUnmarshalRejectsCorrupt(t *testing.T) {
	var tr Tri
	if err := tr.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	if err := tr.UnmarshalBinary([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Fatal("length-mismatched blob accepted")
	}
	// Length-correct blobs of non-canonical entries: MergeTris would
	// repeat or misorder pairs if any of them decoded.
	for _, c := range []struct {
		name    string
		i, j, w []uint32
		bad     string // the entry index the error must name
	}{
		{"unsorted", []uint32{5, 1}, []uint32{6, 2}, []uint32{1, 1}, "entry 1"},
		{"repeated pair", []uint32{1, 1}, []uint32{2, 2}, []uint32{1, 1}, "entry 1"},
		{"same row, J descending", []uint32{1, 1}, []uint32{4, 3}, []uint32{1, 1}, "entry 1"},
		{"self-pair", []uint32{3}, []uint32{3}, []uint32{1}, "entry 0"},
		{"I > J", []uint32{1, 4}, []uint32{2, 2}, []uint32{1, 1}, "entry 1"},
		{"zero weight", []uint32{1, 2}, []uint32{2, 3}, []uint32{1, 0}, "entry 1"},
	} {
		blob, _ := (&Tri{I: c.i, J: c.j, W: c.w}).MarshalBinary()
		err := tr.UnmarshalBinary(blob)
		if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%s: UnmarshalBinary = %v, want an error naming %s", c.name, err, c.bad)
		}
	}
}

// mergeTrisScan is the reference reduction: an O(total·k) linear
// best-head scan. It is the BenchmarkMerge baseline and the oracle of
// the merge property tests.
func mergeTrisScan(ts ...*Tri) *Tri {
	heads := make([]int, len(ts))
	total := 0
	for _, t := range ts {
		if t != nil {
			total += t.NNZ()
		}
	}
	out := &Tri{
		I: make([]uint32, 0, total),
		J: make([]uint32, 0, total),
		W: make([]uint32, 0, total),
	}
	for {
		best := -1
		var bestKey uint64
		for i, t := range ts {
			if t == nil || heads[i] >= t.NNZ() {
				continue
			}
			key := uint64(t.I[heads[i]])<<32 | uint64(t.J[heads[i]])
			if best == -1 || key < bestKey {
				best, bestKey = i, key
			}
		}
		if best == -1 {
			return out
		}
		t := ts[best]
		k := heads[best]
		heads[best]++
		n := len(out.I)
		if n > 0 && out.I[n-1] == t.I[k] && out.J[n-1] == t.J[k] {
			out.W[n-1] += t.W[k]
			continue
		}
		out.I = append(out.I, t.I[k])
		out.J = append(out.J, t.J[k])
		out.W = append(out.W, t.W[k])
	}
}
