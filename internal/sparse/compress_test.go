package sparse

import (
	"encoding/binary"
	"math/bits"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/rng"
)

// referenceCompress is the straight-line clique compression the
// scratch-based compress replaced: a map from each row's bytes to its
// group, numbered in order of first appearance, and one member slice
// per group in ascending row order.
func referenceCompress(m *BitMatrix) rowGroups {
	rows := m.Rows()
	g := rowGroups{order: make([]int32, rows)}
	idx := make(map[string]int32, rows)
	buf := make([]byte, 8*m.words)
	members := make([][]int32, 0, rows)
	for r := 0; r < rows; r++ {
		row := m.rowBits(r)
		for k, w := range row {
			binary.LittleEndian.PutUint64(buf[8*k:], w)
		}
		gi, ok := idx[string(buf)]
		if !ok {
			gi = int32(len(g.rep))
			idx[string(buf)] = gi
			g.rep = append(g.rep, int32(r))
			pop := 0
			for _, w := range row {
				pop += bits.OnesCount64(w)
			}
			g.pop = append(g.pop, int32(pop))
			members = append(members, nil)
		}
		members[gi] = append(members[gi], int32(r))
	}
	g.start = make([]int32, len(g.rep)+1)
	pos := int32(0)
	for gi, ms := range members {
		g.start[gi] = pos
		copy(g.order[pos:], ms)
		pos += int32(len(ms))
	}
	g.start[len(g.rep)] = pos
	return g
}

// checkCompress fails t unless m's compression equals the reference's
// array for array.
func checkCompress(t *testing.T, m *BitMatrix, what string) {
	t.Helper()
	got, want := m.compress(), referenceCompress(m)
	for _, c := range []struct {
		name      string
		got, want []int32
	}{{"rep", got.rep, want.rep}, {"pop", got.pop, want.pop}, {"start", got.start, want.start}, {"order", got.order, want.order}} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: %s = %v, reference %v", what, c.name, c.got, c.want)
		}
	}
}

// TestCompressMatchesReference: the hash-and-compare compression into
// reusable scratch must produce the reference's rep/pop/start/order on
// random matrices of 1–4 words, on all-identical and all-distinct rows,
// and on a matrix reset for a larger, then a smaller row count and a
// different column count — which is what would show stale scratch or a
// stale row index leaking into the next place.
func TestCompressMatchesReference(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		cols := 1 + r.Intn(256) // 1–4 words
		m := randomMatrix(r, r.Intn(120), 1+r.Intn(12), cols)
		checkCompress(t, m, "random")
	}
	for _, cols := range []int{1, 64, 65, 130, 256} {
		same, distinct := NewBitMatrix(cols), NewBitMatrix(cols)
		for p := 0; p < 50; p++ {
			same.SetRange(uint32(1000+p), 0, cols)
			distinct.Set(uint32(7*p), p%cols)
			if p >= cols {
				distinct.Set(uint32(7*p), (p/cols)%cols)
			}
		}
		checkCompress(t, same, "all identical")
		if same.NumGroups() != 1 {
			t.Fatalf("cols %d: all-identical rows give %d groups", cols, same.NumGroups())
		}
		checkCompress(t, distinct, "all distinct")
	}

	// One matrix reused: larger, smaller, then a different column count.
	m := NewBitMatrix(100)
	for _, step := range []struct{ persons, patterns, cols int }{
		{10, 3, 100}, {300, 20, 100}, {15, 4, 100}, {40, 40, 200}, {5, 2, 30}, {0, 1, 30}, {200, 7, 256},
	} {
		m.reset(step.cols)
		fill := randomMatrix(r, step.persons, step.patterns, step.cols)
		for p := 0; p < fill.Rows(); p++ {
			id := fill.IDs()[p]
			row := fill.rowBits(p)
			for s := 0; s < step.cols; s++ {
				if row[s>>6]&(1<<(uint(s)&63)) != 0 {
					m.Set(id^0x5bd1e995, s)
				}
			}
		}
		checkCompress(t, m, "reused")
		if m.Rows() != fill.Rows() || m.NNZ() != fill.NNZ() {
			t.Fatalf("reused at %+v: %d rows / %d nnz, want %d / %d", step, m.Rows(), m.NNZ(), fill.Rows(), fill.NNZ())
		}
		if !cliqueTri(m).Equal(Coalesce(1, m.Gram())) {
			t.Fatalf("reused at %+v: clique kernel differs from dense", step)
		}
	}

	// Through the pool: whatever GetBitMatrix hands back must be empty.
	for trial := 0; trial < 20; trial++ {
		cols := 1 + r.Intn(256)
		p := GetBitMatrix(cols)
		if p.Rows() != 0 || p.NNZ() != 0 || p.Cols() != cols {
			t.Fatalf("pooled matrix not empty: %d rows, %d nnz, %d cols", p.Rows(), p.NNZ(), p.Cols())
		}
		for k := 0; k < 1+r.Intn(80); k++ {
			lo := r.Intn(cols)
			p.SetRange(uint32(r.Intn(60)), lo, lo+1+r.Intn(cols))
		}
		checkCompress(t, p, "pooled")
		p.Recycle()
	}
}

// TestPlaceMatrixCycleAllocatesNothing pins the pooled per-place cycle
// of the synthesis at zero allocations once warm: the row arena, the
// person→row table and the compression scratch are all reused. The GC
// is off so the pool keeps its matrix between runs.
func TestPlaceMatrixCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := Pairs{cur: make([]Entry, 0, 1<<16)}
	cycle := func() {
		m := GetBitMatrix(168)
		for i := 0; i < 200; i++ {
			lo := (i % 7) * 20
			m.SetRange(uint32(i*7919), lo, lo+9+i%3)
		}
		if m.GramCost() <= 0 {
			t.Fatal("no cost")
		}
		p.cur = p.cur[:0]
		m.GramTileAppend(&p, 0, m.Rows(), 0, m.Rows())
		m.Recycle()
	}
	cycle()
	if a := testing.AllocsPerRun(50, cycle); a != 0 {
		t.Fatalf("warm place-matrix cycle allocates %v times, want 0", a)
	}
	if len(p.full) != 0 {
		t.Fatal("the pre-grown page turned; the test no longer measures the kernel alone")
	}
}

// FuzzBitMatrix drives one pooled matrix through random
// SetRange/Get/RowNNZ/Recycle sequences against a map-of-bitsets
// reference, and checks the clique kernel over the whole matrix against
// the dense Gram and the compression against referenceCompress at every
// Recycle and at the end. Person IDs span the whole uint32 range so the
// row index sees both clustered and extreme keys.
func FuzzBitMatrix(f *testing.F) {
	f.Add([]byte{40, 0, 1, 0, 0, 5, 0, 1, 0, 0, 9, 1, 1, 0, 0, 3, 3, 1, 0, 0, 0})
	f.Add([]byte{200, 0, 255, 255, 10, 100, 0, 0, 0, 10, 100, 3, 0, 7, 0, 0, 0, 9, 2, 1, 4, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		cols := 1 + int(raw[0])
		m := GetBitMatrix(cols)
		ref := map[uint32][]bool{}
		verify := func() {
			if m.Rows() != len(ref) {
				t.Fatalf("%d rows, reference %d", m.Rows(), len(ref))
			}
			checkCompress(t, m, "fuzz")
			if !cliqueTri(m).Equal(Coalesce(1, m.Gram())) {
				t.Fatal("clique kernel differs from dense Gram")
			}
			var want []Entry
			for a, ra := range ref {
				for b, rb := range ref {
					if a >= b {
						continue
					}
					w := 0
					for k := range ra {
						if ra[k] && rb[k] {
							w++
						}
					}
					if w > 0 {
						want = append(want, Entry{I: a, J: b, W: uint32(w)})
					}
				}
			}
			if !Coalesce(1, m.Gram()).Equal(Coalesce(1, want)) {
				t.Fatal("Gram differs from the reference bitsets")
			}
		}
		for off := 1; off+5 <= len(raw); off += 5 {
			op, person := raw[off]%4, uint32(raw[off+1])|uint32(raw[off+2])<<24
			a, b := int(raw[off+3])-8, int(raw[off+4])
			switch op {
			case 0:
				m.SetRange(person, a, b)
				lo, hi := max(a, 0), min(b, cols)
				if lo < hi {
					if ref[person] == nil {
						ref[person] = make([]bool, cols)
					}
					for s := lo; s < hi; s++ {
						ref[person][s] = true
					}
				}
			case 1:
				want := a >= 0 && a < cols && ref[person] != nil && ref[person][a]
				if got := m.Get(person, a); got != want {
					t.Fatalf("Get(%d, %d) = %v, reference %v", person, a, got, want)
				}
			case 2:
				want := 0
				for _, on := range ref[person] {
					if on {
						want++
					}
				}
				if got := m.RowNNZ(person); got != want {
					t.Fatalf("RowNNZ(%d) = %d, reference %d", person, got, want)
				}
			case 3:
				verify()
				m.Recycle()
				cols = 1 + b
				m = GetBitMatrix(cols)
				ref = map[uint32][]bool{}
			}
		}
		verify()
		m.Recycle()
	})
}
