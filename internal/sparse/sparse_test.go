package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// denseGram is the brute-force reference: builds the dense p×t matrix and
// multiplies, returning weights indexed by packed (i<<32|j) with i<j.
func denseGram(m *BitMatrix) map[uint64]uint32 {
	ids := m.IDs()
	out := make(map[uint64]uint32)
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			w := uint32(0)
			for t := 0; t < m.Cols(); t++ {
				if m.Get(ids[a], t) && m.Get(ids[b], t) {
					w++
				}
			}
			if w > 0 {
				i, j := ids[a], ids[b]
				if i > j {
					i, j = j, i
				}
				out[uint64(i)<<32|uint64(j)] = w
			}
		}
	}
	return out
}

func TestBitMatrixSetGet(t *testing.T) {
	m := NewBitMatrix(100)
	m.Set(7, 0)
	m.Set(7, 63)
	m.Set(7, 64)
	m.Set(7, 99)
	for _, tt := range []struct {
		slot int
		want bool
	}{{0, true}, {1, false}, {63, true}, {64, true}, {65, false}, {99, true}} {
		if got := m.Get(7, tt.slot); got != tt.want {
			t.Errorf("Get(7,%d) = %v, want %v", tt.slot, got, tt.want)
		}
	}
	if m.Get(8, 0) {
		t.Error("unset person reports presence")
	}
	if m.Rows() != 1 {
		t.Errorf("Rows() = %d, want 1", m.Rows())
	}
}

func TestBitMatrixGetOutOfRange(t *testing.T) {
	m := NewBitMatrix(10)
	m.Set(1, 5)
	if m.Get(1, -1) || m.Get(1, 10) {
		t.Error("out-of-range Get should be false")
	}
}

func TestBitMatrixSetPanicsOutOfRange(t *testing.T) {
	m := NewBitMatrix(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of range did not panic")
		}
	}()
	m.Set(1, 10)
}

func TestSetRangeMatchesSetLoop(t *testing.T) {
	for _, c := range []struct{ start, stop int }{
		{0, 1}, {0, 64}, {0, 65}, {3, 61}, {63, 65}, {64, 128}, {5, 200},
		{100, 150}, {-5, 10}, {160, 300}, {10, 10}, {20, 5},
	} {
		a := NewBitMatrix(168)
		b := NewBitMatrix(168)
		a.SetRange(42, c.start, c.stop)
		lo, hi := c.start, c.stop
		if lo < 0 {
			lo = 0
		}
		if hi > 168 {
			hi = 168
		}
		for s := lo; s < hi; s++ {
			b.Set(42, s)
		}
		for s := 0; s < 168; s++ {
			if a.Get(42, s) != b.Get(42, s) {
				t.Fatalf("range [%d,%d): slot %d mismatch", c.start, c.stop, s)
			}
		}
		if a.NNZ() != b.NNZ() {
			t.Fatalf("range [%d,%d): nnz %d != %d", c.start, c.stop, a.NNZ(), b.NNZ())
		}
	}
}

func TestSetRangeEmptyAllocatesNoRow(t *testing.T) {
	m := NewBitMatrix(24)
	m.SetRange(9, 10, 10)
	m.SetRange(9, 30, 40)
	if m.Rows() != 0 {
		t.Fatalf("empty SetRange created %d rows", m.Rows())
	}
}

func TestNNZAndRowNNZ(t *testing.T) {
	m := NewBitMatrix(168)
	m.SetRange(1, 0, 10)
	m.SetRange(2, 5, 20)
	m.Set(2, 5) // duplicate set must not double count
	if got := m.NNZ(); got != 25 {
		t.Errorf("NNZ = %d, want 25", got)
	}
	if got := m.RowNNZ(1); got != 10 {
		t.Errorf("RowNNZ(1) = %d, want 10", got)
	}
	if got := m.RowNNZ(2); got != 15 {
		t.Errorf("RowNNZ(2) = %d, want 15", got)
	}
	if got := m.RowNNZ(99); got != 0 {
		t.Errorf("RowNNZ(99) = %d, want 0", got)
	}
}

func TestGramSimple(t *testing.T) {
	// Persons 10 and 20 overlap at slots 2,3; person 30 never overlaps.
	m := NewBitMatrix(8)
	m.SetRange(10, 0, 4)
	m.SetRange(20, 2, 6)
	m.SetRange(30, 7, 8)
	es := m.Gram()
	if len(es) != 1 {
		t.Fatalf("Gram returned %d entries, want 1: %v", len(es), es)
	}
	e := es[0]
	if e.I != 10 || e.J != 20 || e.W != 2 {
		t.Fatalf("Gram entry = %+v, want {10 20 2}", e)
	}
}

func TestGramOrderedPairs(t *testing.T) {
	// Insertion order must not affect I<J normalization.
	m := NewBitMatrix(4)
	m.Set(50, 1)
	m.Set(3, 1)
	es := m.Gram()
	if len(es) != 1 || es[0].I != 3 || es[0].J != 50 {
		t.Fatalf("Gram = %v, want single {3 50 1}", es)
	}
}

func TestGramMatchesDenseRandom(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 30; trial++ {
		cols := 1 + r.Intn(170)
		m := NewBitMatrix(cols)
		persons := 1 + r.Intn(12)
		for p := 0; p < persons; p++ {
			id := uint32(r.Intn(40))
			n := r.Intn(5)
			for k := 0; k < n; k++ {
				start := r.Intn(cols)
				m.SetRange(id, start, start+1+r.Intn(10))
			}
		}
		want := denseGram(m)
		tr := Coalesce(1, m.Gram())
		if tr.NNZ() != len(want) {
			t.Fatalf("trial %d: nnz %d != dense %d", trial, tr.NNZ(), len(want))
		}
		for k, w := range want {
			i, j := uint32(k>>32), uint32(k&0xffffffff)
			if got := tr.Weight(i, j); got != w {
				t.Fatalf("trial %d: weight(%d,%d) = %d, want %d", trial, i, j, got, w)
			}
		}
	}
}

func TestTriSortedAndLookup(t *testing.T) {
	tr := Coalesce(1, []Entry{{I: 9, J: 1, W: 2}, {I: 3, J: 7, W: 5}, {I: 1, J: 2, W: 1}})
	if tr.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", tr.NNZ())
	}
	for k := 1; k < tr.NNZ(); k++ {
		prev := uint64(tr.I[k-1])<<32 | uint64(tr.J[k-1])
		cur := uint64(tr.I[k])<<32 | uint64(tr.J[k])
		if prev >= cur {
			t.Fatal("Tri entries not strictly sorted")
		}
	}
	if tr.Weight(1, 9) != 2 || tr.Weight(9, 1) != 2 {
		t.Error("Weight lookup failed for (1,9)")
	}
	if tr.Weight(2, 9) != 0 {
		t.Error("absent pair should weigh 0")
	}
	if tr.Weight(3, 3) != 0 {
		t.Error("diagonal should weigh 0")
	}
}

func TestTriStats(t *testing.T) {
	tr := Coalesce(1, []Entry{{I: 1, J: 2, W: 3}, {I: 2, J: 5, W: 4}})
	if got := tr.TotalWeight(); got != 7 {
		t.Errorf("TotalWeight = %d, want 7", got)
	}
	if got := tr.MaxVertex(); got != 5 {
		t.Errorf("MaxVertex = %d, want 5", got)
	}
	if got := tr.Vertices(); got != 3 {
		t.Errorf("Vertices = %d, want 3", got)
	}
}

func TestTriEmptyStats(t *testing.T) {
	tr := &Tri{}
	if tr.NNZ() != 0 || tr.TotalWeight() != 0 || tr.MaxVertex() != 0 || tr.Vertices() != 0 {
		t.Fatal("empty Tri stats not all zero")
	}
}

// Property: coalescing the entries in any grouping and merging the parts
// yields the same Tri as coalescing them all at once.
func TestQuickMergeAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		entries := make([]Entry, 30)
		for k := range entries {
			i := uint32(r.Intn(20))
			j := uint32(r.Intn(20))
			entries[k] = Entry{I: i, J: j, W: uint32(1 + r.Intn(5))}
		}
		whole := Coalesce(1, entries)
		split := MergeTris(Coalesce(1, entries[:10]), Coalesce(1, entries[10:20]), Coalesce(1, entries[20:]))
		return whole.Equal(split)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gram weight of a pair equals the bit-overlap of their rows.
func TestQuickGramPairOverlap(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := NewBitMatrix(168)
		for k := 0; k < 10; k++ {
			m.SetRange(1, r.Intn(168), r.Intn(168))
			m.SetRange(2, r.Intn(168), r.Intn(168))
		}
		overlap := uint32(0)
		for s := 0; s < 168; s++ {
			if m.Get(1, s) && m.Get(2, s) {
				overlap++
			}
		}
		return Coalesce(1, m.Gram()).Weight(1, 2) == overlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGramCostMonotonic(t *testing.T) {
	small := NewBitMatrix(168)
	small.Set(1, 0)
	big := NewBitMatrix(168)
	for p := uint32(0); p < 10; p++ {
		big.Set(p, 0)
	}
	if small.GramCost() >= big.GramCost() {
		t.Fatal("GramCost should grow with row count")
	}
}
