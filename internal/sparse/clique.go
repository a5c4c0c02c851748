package sparse

import (
	"encoding/binary"
	"math/bits"
	"sort"
)

// rowGroups is the clique compression of a BitMatrix: rows with identical
// bitsets are deduped into groups. At the places that dominate the
// synthesis workload (homes, workplaces, schools) most occupants share
// the same arrival/departure hours, so the number of distinct bitsets g
// is far smaller than the person count p. The Gram product then needs one
// AND+popcount per *group* pair instead of per *person* pair — O(g²·words)
// bit work instead of O(p²·words) — while the pair emission stays exact:
// every member pair of a group pair shares the group-level weight, and
// intra-group pairs form a clique weighted by the group's own popcount.
//
// Rows are re-ordered into a flat permutation (order) in which each
// group's members are contiguous; start[g] is the permuted index of group
// g's first member. This "π order" is what the splittable tile kernel
// addresses: any block×block tile of π indices can be computed
// independently, enabling a single mega-place to be spread across
// workers.
type rowGroups struct {
	rep   []int32 // representative row index per group
	pop   []int32 // popcount of the group's shared bitset
	start []int32 // π start index per group, len = groups+1, start[G] = rows
	order []int32 // π index -> original row index, len = rows
}

// groups returns the number of distinct bitsets.
func (g *rowGroups) groups() int { return len(g.rep) }

// compress computes (and caches) the row-group clique compression. The
// result is invalidated by any subsequent Set/SetRange. Callers that
// share a BitMatrix across goroutines must call GramCost (which
// compresses) before the concurrent phase, since the lazy computation is
// not synchronized.
func (m *BitMatrix) compress() *rowGroups {
	if m.grp != nil {
		return m.grp
	}
	g := &rowGroups{order: make([]int32, len(m.rows))}
	idx := make(map[string]int32, len(m.rows))
	buf := make([]byte, 8*m.words)
	members := make([][]int32, 0, len(m.rows))
	for r, row := range m.rows {
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
	m.grp = g
	return g
}

// NumGroups returns the number of distinct row bitsets (the g of the
// clique-compressed Gram kernel). It computes the compression.
func (m *BitMatrix) NumGroups() int { return m.compress().groups() }

// andPop returns the popcount of ra & rb.
func andPop(ra, rb []uint64) int {
	w := 0
	for k := range ra {
		w += bits.OnesCount64(ra[k] & rb[k])
	}
	return w
}

// GramTileAppend appends to dst the Gram entries of one block×block tile
// of the pairwise loop: all pairs (a, b) whose π indices (the
// group-contiguous row order established by the compression) satisfy
// πa ∈ [p0,p1), πb ∈ [q0,q1) and πa < πb. Tiles must be diagonal
// (p0==q0, p1==q1) or disjoint with q0 ≥ p1; a set of tiles that exactly
// covers the upper triangle of the π×π square therefore reproduces the
// whole-matrix tile (0, n, 0, n) entry-for-entry, which is what lets the
// balancer split one mega-place across workers without changing the
// synthesized network. Every pair with a shared slot appears exactly once
// with the weight Gram gives it.
func (m *BitMatrix) GramTileAppend(dst *Pairs, p0, p1, q0, q1 int) {
	g := m.compress()
	n := len(m.rows)
	p0, p1 = clampRange(p0, p1, n)
	q0, q1 = clampRange(q0, q1, n)
	if p0 >= p1 || q0 >= q1 {
		return
	}
	gaFirst := findGroup(g, p0)
	for ga := gaFirst; ga < g.groups() && int(g.start[ga]) < p1; ga++ {
		// Sub-span of group ga's members inside [p0, p1).
		aLo, aHi := intersect(int(g.start[ga]), int(g.start[ga+1]), p0, p1)
		if aLo >= aHi {
			continue
		}
		ra := m.rows[g.rep[ga]]
		// Intra-group clique: pairs inside ga restricted to the tile.
		// Both halves of the pair must come from this tile's spans with
		// πa < πb; the diagonal tile contributes the (aLo..aHi) triangle,
		// and an off-diagonal tile contributes the aSpan×bSpan rectangle
		// when the group straddles the tile boundary.
		if w := uint32(g.pop[ga]); w != 0 {
			bLo, bHi := intersect(int(g.start[ga]), int(g.start[ga+1]), q0, q1)
			for pa := aLo; pa < aHi; pa++ {
				if lo := max(bLo, pa+1); lo < bHi {
					dst.appendRow(m.ids[g.order[pa]], g.order[lo:bHi], m.ids, w)
				}
			}
		}
		// Inter-group products: one AND+popcount per group pair, emitted
		// for every member pair inside the tile spans.
		gbFirst := findGroup(g, q0)
		if gbFirst <= ga {
			gbFirst = ga + 1
		}
		for gb := gbFirst; gb < g.groups() && int(g.start[gb]) < q1; gb++ {
			bLo, bHi := intersect(int(g.start[gb]), int(g.start[gb+1]), q0, q1)
			if bLo >= bHi {
				continue
			}
			w := uint32(andPop(ra, m.rows[g.rep[gb]]))
			if w == 0 {
				continue
			}
			for pa := aLo; pa < aHi; pa++ {
				dst.appendRow(m.ids[g.order[pa]], g.order[bLo:bHi], m.ids, w)
			}
		}
	}
}

func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// intersect clips the span [lo, hi) to [p0, p1).
func intersect(lo, hi, p0, p1 int) (int, int) {
	if lo < p0 {
		lo = p0
	}
	if hi > p1 {
		hi = p1
	}
	return lo, hi
}

// findGroup returns the index of the group whose π span contains p (or
// the first group starting at/after p when p is a span boundary).
func findGroup(g *rowGroups, p int) int {
	// start is sorted; find the last group with start <= p.
	i := sort.Search(g.groups(), func(k int) bool { return int(g.start[k+1]) > p })
	return i
}

// GramTileCost estimates the work of GramTileAppend over the same tile,
// in the same unit as GramCost: AND·popcount word operations plus emitted
// entries. The balancer uses it to weigh split work units.
func (m *BitMatrix) GramTileCost(p0, p1, q0, q1 int) int {
	g := m.compress()
	n := len(m.rows)
	p0, p1 = clampRange(p0, p1, n)
	q0, q1 = clampRange(q0, q1, n)
	if p0 >= p1 || q0 >= q1 {
		return 0
	}
	gA := groupsOverlapping(g, p0, p1)
	gB := groupsOverlapping(g, q0, q1)
	var pairWork, emit int
	if p0 == q0 && p1 == q1 { // diagonal tile
		pairWork = gA * (gA - 1) / 2 * m.words
		np := p1 - p0
		emit = np * (np - 1) / 2
	} else { // disjoint tile
		pairWork = gA * gB * m.words
		emit = (p1 - p0) * (q1 - q0)
	}
	return pairWork + emit
}

func groupsOverlapping(g *rowGroups, p0, p1 int) int {
	if p0 >= p1 {
		return 0
	}
	return findGroup(g, p1-1) - findGroup(g, p0) + 1
}
