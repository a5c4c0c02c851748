package sparse

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func slicesSortFunc(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		ka, kb := entryKey(a), entryKey(b)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return 0
		}
	})
}

// randomMatrix builds a random BitMatrix whose rows fall into a bounded
// number of distinct bitset patterns, so group sizes vary.
func randomMatrix(r *rng.Source, persons, patterns, cols int) *BitMatrix {
	m := NewBitMatrix(cols)
	// Pre-generate the patterns as (start, stop) unions.
	type span struct{ lo, hi int }
	pats := make([][]span, patterns)
	for p := range pats {
		n := 1 + r.Intn(3)
		for k := 0; k < n; k++ {
			lo := r.Intn(cols)
			pats[p] = append(pats[p], span{lo, lo + 1 + r.Intn(cols/2+1)})
		}
	}
	for id := 0; id < persons; id++ {
		pat := pats[r.Intn(patterns)]
		for _, s := range pat {
			m.SetRange(uint32(id), s.lo, s.hi)
		}
	}
	return m
}

// cliqueTri coalesces the clique kernel's output over the whole matrix.
func cliqueTri(m *BitMatrix) *Tri {
	var p Pairs
	m.GramTileAppend(&p, 0, m.Rows(), 0, m.Rows())
	return Coalesce(1, p.Pages()...)
}

// TestGramCliqueMatchesDenseRandom: the clique-compressed kernel must be
// bit-identical to the dense pairwise Gram (and to the brute-force
// dense reference) on random matrices.
func TestGramCliqueMatchesDenseRandom(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 40; trial++ {
		cols := 1 + r.Intn(200)
		persons := r.Intn(30)
		patterns := 1 + r.Intn(6)
		m := randomMatrix(r, persons, patterns, cols)
		dense := Coalesce(1, m.Gram())
		clique := cliqueTri(m)
		if !clique.Equal(dense) {
			t.Fatalf("trial %d (p=%d g=%d): clique kernel differs from dense", trial, m.Rows(), m.NumGroups())
		}
		// Cross-check against the brute-force dense reference too.
		want := denseGram(m)
		if clique.NNZ() != len(want) {
			t.Fatalf("trial %d: clique nnz %d, dense reference %d", trial, clique.NNZ(), len(want))
		}
		for k, w := range want {
			if got := clique.Weight(uint32(k>>32), uint32(k&0xffffffff)); got != w {
				t.Fatalf("trial %d: weight mismatch %d != %d", trial, got, w)
			}
		}
	}
}

// Extreme: every row identical — one group, pure clique emission.
func TestGramCliqueAllIdenticalRows(t *testing.T) {
	m := NewBitMatrix(168)
	for id := uint32(0); id < 25; id++ {
		m.SetRange(id, 8, 17)
	}
	if g := m.NumGroups(); g != 1 {
		t.Fatalf("identical rows formed %d groups, want 1", g)
	}
	dense := Coalesce(1, m.Gram())
	clique := cliqueTri(m)
	if !clique.Equal(dense) {
		t.Fatal("clique kernel differs from dense on identical rows")
	}
	if clique.NNZ() != 25*24/2 {
		t.Fatalf("clique nnz = %d, want %d", clique.NNZ(), 25*24/2)
	}
	for k := range clique.W {
		if clique.W[k] != 9 {
			t.Fatalf("clique weight %d, want 9", clique.W[k])
		}
	}
}

// Extreme: every row distinct — p groups, degenerates to the dense loop.
func TestGramCliqueAllDistinctRows(t *testing.T) {
	m := NewBitMatrix(300)
	for id := uint32(0); id < 20; id++ {
		m.SetRange(id, int(id), int(id)+30)
	}
	if g := m.NumGroups(); g != 20 {
		t.Fatalf("distinct rows formed %d groups, want 20", g)
	}
	dense := Coalesce(1, m.Gram())
	clique := cliqueTri(m)
	if !clique.Equal(dense) {
		t.Fatal("clique kernel differs from dense on distinct rows")
	}
}

func TestGramCliqueEmptyMatrix(t *testing.T) {
	m := NewBitMatrix(24)
	var out Pairs
	if m.GramTileAppend(&out, 0, 0, 0, 0); len(out.Pages()) != 0 {
		t.Fatalf("empty matrix emitted %d pages", len(out.Pages()))
	}
	if m.NumGroups() != 0 {
		t.Fatal("empty matrix has groups")
	}
	if m.GramCost() != 0 {
		t.Fatal("empty matrix has nonzero cost")
	}
}

// Compression must be invalidated by mutation.
func TestCompressInvalidatedByMutation(t *testing.T) {
	m := NewBitMatrix(48)
	m.SetRange(1, 0, 10)
	m.SetRange(2, 0, 10)
	if g := m.NumGroups(); g != 1 {
		t.Fatalf("groups = %d, want 1", g)
	}
	m.Set(2, 20) // rows 1 and 2 now differ
	if g := m.NumGroups(); g != 2 {
		t.Fatalf("groups after mutation = %d, want 2", g)
	}
	dense := Coalesce(1, m.Gram())
	clique := cliqueTri(m)
	if !clique.Equal(dense) {
		t.Fatal("stale compression survived a mutation")
	}
}

// tileCover builds a set of diagonal + disjoint tiles covering the upper
// triangle of the π×π square with nb row blocks.
func tileCover(rows, nb int) [][4]int {
	if nb < 1 {
		nb = 1
	}
	bounds := make([]int, nb+1)
	for b := 0; b <= nb; b++ {
		bounds[b] = rows * b / nb
	}
	var tiles [][4]int
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			tiles = append(tiles, [4]int{bounds[bi], bounds[bi+1], bounds[bj], bounds[bj+1]})
		}
	}
	return tiles
}

// TestGramTilesReproduceWhole: any block×block tiling of the pairwise
// loop must reproduce the untiled result bit-for-bit after coalescing.
func TestGramTilesReproduceWhole(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 30; trial++ {
		m := randomMatrix(r, 1+r.Intn(40), 1+r.Intn(8), 1+r.Intn(170))
		whole := cliqueTri(m)
		for _, nb := range []int{1, 2, 3, 5, 8} {
			var es Pairs
			var costSum int
			for _, tile := range tileCover(m.Rows(), nb) {
				m.GramTileAppend(&es, tile[0], tile[1], tile[2], tile[3])
				costSum += m.GramTileCost(tile[0], tile[1], tile[2], tile[3])
			}
			tiled := Coalesce(1, es.Pages()...)
			if !tiled.Equal(whole) {
				t.Fatalf("trial %d: %d-block tiling differs from whole (p=%d g=%d)",
					trial, nb, m.Rows(), m.NumGroups())
			}
			if whole.NNZ() > 0 && costSum <= 0 {
				t.Fatalf("trial %d: tiling cost %d not positive", trial, costSum)
			}
		}
	}
}

// Property: quick-check the tiling invariance once more over the full
// input space quick generates.
func TestQuickGramTileInvariance(t *testing.T) {
	f := func(seed uint64, nbRaw uint8) bool {
		r := rng.New(seed)
		m := randomMatrix(r, r.Intn(25), 1+r.Intn(5), 1+r.Intn(100))
		nb := 1 + int(nbRaw%6)
		whole := cliqueTri(m)
		es := Pairs{page: 1 + int(nbRaw%7)}
		for _, tile := range tileCover(m.Rows(), nb) {
			m.GramTileAppend(&es, tile[0], tile[1], tile[2], tile[3])
		}
		return Coalesce(1, es.Pages()...).Equal(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGramCostCompressed(t *testing.T) {
	// 10 identical rows: g = 1, cost = pure emission p(p-1)/2.
	m := NewBitMatrix(168)
	for id := uint32(0); id < 10; id++ {
		m.SetRange(id, 0, 8)
	}
	if got, want := m.GramCost(), 45; got != want {
		t.Fatalf("identical-rows GramCost = %d, want %d", got, want)
	}
	// 10 distinct rows: g = 10, cost adds the pairwise AND work.
	d := NewBitMatrix(168)
	for id := uint32(0); id < 10; id++ {
		d.SetRange(id, int(id), int(id)+8)
	}
	if got, want := d.GramCost(), 45*d.words+45; got != want {
		t.Fatalf("distinct-rows GramCost = %d, want %d", got, want)
	}
	if m.GramCost() >= d.GramCost() {
		t.Fatal("compressed place should cost less than uncompressed")
	}
}

func TestBitMatrixPoolRoundTrip(t *testing.T) {
	r := rng.New(31337)
	build := func(m *BitMatrix, seed uint64) {
		q := rng.New(seed)
		for k := 0; k < 30; k++ {
			id := uint32(q.Intn(20))
			lo := q.Intn(100)
			m.SetRange(id, lo, lo+1+q.Intn(20))
		}
	}
	for trial := 0; trial < 10; trial++ {
		cols := 50 + r.Intn(200)
		seed := uint64(trial)
		fresh := NewBitMatrix(cols)
		build(fresh, seed)
		want := cliqueTri(fresh)

		pooled := GetBitMatrix(cols)
		build(pooled, seed)
		got := cliqueTri(pooled)
		if !got.Equal(want) {
			t.Fatalf("trial %d: pooled matrix differs from fresh", trial)
		}
		if pooled.NNZ() != fresh.NNZ() {
			t.Fatalf("trial %d: pooled nnz %d != fresh %d", trial, pooled.NNZ(), fresh.NNZ())
		}
		pooled.Recycle()
	}
}

// --- Benchmarks -------------------------------------------------------

// benchCliqueMatrix builds an identical-rows place: p persons who all
// share the same month-long schedule bitset (the home/work shape that
// dominates real logs).
func benchCliqueMatrix(p, cols, patterns int) *BitMatrix {
	r := rng.New(9)
	m := NewBitMatrix(cols)
	starts := make([]int, patterns)
	for i := range starts {
		starts[i] = r.Intn(cols / 2)
	}
	for id := 0; id < p; id++ {
		lo := starts[id%patterns]
		m.SetRange(uint32(id), lo, lo+cols/3)
	}
	m.GramCost() // compresses
	return m
}

// BenchmarkGramKernel contrasts the dense pairwise kernel with the
// clique-compressed one (and its tiled variant) on an identical-rows
// place of 300 persons over a 4-week window.
func BenchmarkGramKernel(b *testing.B) {
	const persons, cols = 300, 672
	ident := benchCliqueMatrix(persons, cols, 1)
	mixed := benchCliqueMatrix(persons, cols, 16)
	dense := func(name string, m *BitMatrix) {
		b.Run(name, func(b *testing.B) {
			var dst []Entry
			for i := 0; i < b.N; i++ {
				dst = m.Gram()
			}
			b.ReportMetric(float64(len(dst)), "entries")
		})
	}
	paged := func(name string, fn func(dst *Pairs)) {
		b.Run(name, func(b *testing.B) {
			var dst Pairs
			for i := 0; i < b.N; i++ {
				dst = Pairs{}
				fn(&dst)
			}
			b.ReportMetric(float64(pairsLen(&dst)), "entries")
		})
	}
	whole := func(m *BitMatrix) func(dst *Pairs) {
		return func(dst *Pairs) { m.GramTileAppend(dst, 0, m.Rows(), 0, m.Rows()) }
	}
	dense("dense", ident)
	paged("clique", whole(ident))
	paged("split", func(dst *Pairs) {
		for _, tile := range tileCover(ident.Rows(), 4) {
			ident.GramTileAppend(dst, tile[0], tile[1], tile[2], tile[3])
		}
	})
	dense("dense16groups", mixed)
	paged("clique16groups", whole(mixed))
}

func benchTris(k, nnz int) []*Tri {
	r := rng.New(uint64(k)*1000 + uint64(nnz))
	ts := make([]*Tri, k)
	for i := range ts {
		es := make([]Entry, nnz)
		for e := range es {
			es[e] = Entry{I: uint32(r.Intn(5000)), J: uint32(r.Intn(5000)), W: uint32(1 + r.Intn(8))}
		}
		ts[i] = Coalesce(1, es)
	}
	return ts
}

// BenchmarkMerge contrasts the linear best-head scan with MergeTris's
// pairwise fold at k=16 inputs.
func BenchmarkMerge(b *testing.B) {
	ts := benchTris(16, 20000)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mergeTrisScan(ts...)
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MergeTris(ts...)
		}
	})
}

func sortEntriesStd(es []Entry) {
	slicesSortFunc(es)
}

// BenchmarkCoalesce contrasts the comparison sort with the radix sort on
// a worker-sized entry batch, then times the whole reduce step on a
// week-sized one: 1.3 M entries among 20 000 persons on one and two
// workers, by Coalesce over two parts and by Reduce over two buffers of
// fresh pages, built outside the timer.
func BenchmarkCoalesce(b *testing.B) {
	r := rng.New(5)
	base := make([]Entry, 200000)
	for k := range base {
		base[k] = Entry{I: uint32(r.Intn(5000)), J: uint32(r.Intn(5000)), W: 1}
	}
	scratch := make([]Entry, len(base))
	buf := make([]Entry, len(base))
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			radixSortEntries(scratch, buf)
		}
	})
	week := make([]Entry, 1300000)
	for k := range week {
		i, j := uint32(r.Intn(20000)), uint32(r.Intn(20000))
		week[k] = Entry{I: min(i, j), J: max(i, j), W: uint32(1 + r.Intn(24))}
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("week-w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Coalesce(w, week[:len(week)/2], week[len(week)/2:])
			}
		})
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("reduce-week-w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bufs := make([]Pairs, 2)
				for k, e := range week {
					appendRaw(&bufs[k&1], e)
				}
				b.StartTimer()
				Reduce(w, bufs)
			}
		})
	}
	b.Run("stdsort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			sortEntriesStd(scratch)
		}
	})
}
