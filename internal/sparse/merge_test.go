package sparse

import (
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
	tr := TriFromEntries(es)
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
			t.Fatal("TriFromEntries output not sorted")
		}
	}
}

func TestTriFromEntriesEmpty(t *testing.T) {
	if tr := TriFromEntries(nil); tr.NNZ() != 0 {
		t.Fatal("empty input produced entries")
	}
}

func TestMergeTrisBasic(t *testing.T) {
	a := NewAccum()
	a.Add(1, 2, 3)
	a.Add(5, 9, 1)
	b := NewAccum()
	b.Add(1, 2, 4)
	b.Add(0, 7, 2)
	m := MergeTris(a.Tri(), b.Tri())
	if m.NNZ() != 3 {
		t.Fatalf("merged NNZ = %d, want 3", m.NNZ())
	}
	if m.Weight(1, 2) != 7 || m.Weight(5, 9) != 1 || m.Weight(0, 7) != 2 {
		t.Fatalf("merged weights wrong: %+v", m)
	}
}

func TestMergeTrisNilAndEmpty(t *testing.T) {
	a := NewAccum()
	a.Add(1, 2, 3)
	m := MergeTris(nil, a.Tri(), NewAccum().Tri())
	if m.NNZ() != 1 || m.Weight(1, 2) != 3 {
		t.Fatalf("merge with nil/empty inputs wrong: %+v", m)
	}
	if MergeTris().NNZ() != 0 {
		t.Fatal("zero-input merge should be empty")
	}
}

// Property: MergeTris equals SumTris on arbitrary sorted inputs.
func TestQuickMergeEqualsSum(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		mk := func() *Tri {
			acc := NewAccum()
			for k := 0; k < r.Intn(40); k++ {
				acc.Add(uint32(r.Intn(15)), uint32(r.Intn(15)), uint32(1+r.Intn(4)))
			}
			return acc.Tri()
		}
		ts := []*Tri{mk(), mk(), mk()}
		return MergeTris(ts...).Equal(SumTris(ts...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TriFromEntries equals an Accum over the same entries.
func TestQuickTriFromEntriesEqualsAccum(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(60)
		es := make([]Entry, n)
		acc := NewAccum()
		for k := 0; k < n; k++ {
			e := Entry{I: uint32(r.Intn(12)), J: uint32(r.Intn(12)), W: uint32(1 + r.Intn(5))}
			es[k] = e
			acc.Add(e.I, e.J, e.W)
		}
		return TriFromEntries(es).Equal(acc.Tri())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGramAppendMatchesGram(t *testing.T) {
	r := rng.New(3)
	m := NewBitMatrix(168)
	for p := 0; p < 25; p++ {
		id := uint32(r.Intn(30))
		start := r.Intn(160)
		m.SetRange(id, start, start+1+r.Intn(8))
	}
	fromGram := NewAccum()
	fromGram.AddEntries(m.Gram())
	appended := TriFromEntries(m.GramAppend(nil))
	if !appended.Equal(fromGram.Tri()) {
		t.Fatal("GramAppend differs from Gram")
	}
}

func TestGramAppendExtendsDst(t *testing.T) {
	m := NewBitMatrix(8)
	m.SetRange(1, 0, 4)
	m.SetRange(2, 2, 6)
	pre := []Entry{{I: 9, J: 10, W: 1}}
	out := m.GramAppend(pre)
	if len(out) != 2 {
		t.Fatalf("GramAppend len = %d, want 2", len(out))
	}
	if out[0] != (Entry{I: 9, J: 10, W: 1}) {
		t.Fatal("existing entries clobbered")
	}
	if out[1] != (Entry{I: 1, J: 2, W: 2}) {
		t.Fatalf("appended entry = %+v", out[1])
	}
}

func TestFilterTri(t *testing.T) {
	acc := NewAccum()
	acc.Add(1, 2, 5)
	acc.Add(3, 4, 6)
	acc.Add(1, 4, 7)
	tr := acc.Tri()
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
	a := NewAccum()
	a.Add(1, 2, 3)
	b := NewAccum()
	b.Add(1, 2, 4)
	if a.Tri().Equal(b.Tri()) {
		t.Fatal("different weights reported equal")
	}
	c := NewAccum()
	c.Add(1, 3, 3)
	if a.Tri().Equal(c.Tri()) {
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
	acc := NewAccum()
	acc.Add(1, 2, 3)
	acc.Add(1000000, 2000000, 7)
	tr := acc.Tri()
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
	empty := NewAccum().Tri()
	blob, _ = empty.MarshalBinary()
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
}

// mergeTrisScan is the pre-tournament reference reduction: an O(total·k)
// linear best-head scan. It is retained for the BenchmarkMerge baseline
// and as an oracle in the merge property tests.
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
