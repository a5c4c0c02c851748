package sparse

import (
	"math/bits"
	"slices"
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

// compress computes (and caches) the row-group clique compression into
// the matrix's own scratch, so a pooled matrix compresses without
// allocating. The result is invalidated by any subsequent Set/SetRange.
// Callers that share a BitMatrix across goroutines must call GramCost
// (which compresses) before the concurrent phase, since the lazy
// computation is not synchronized.
//
// Rows are grouped through an open-addressed table keyed by a hash of
// their words; every hit is confirmed by comparing the words exactly,
// so bitsets whose hashes collide never share a group. Groups are
// numbered in order of first appearance, and a counting pass lays each
// group's members out contiguously in ascending row order.
func (m *BitMatrix) compress() *rowGroups {
	g := &m.grp
	if m.grouped {
		return g
	}
	rows := len(m.ids)
	n := tableLen(rows)
	shift := 64 - bits.Len(uint(n-1))
	// Carve the group table, each row's group and the four result
	// arrays from one scratch slab.
	need := n + 5*rows + 1
	if cap(m.scratch) < need {
		m.scratch = make([]int32, need)
	}
	s := m.scratch[:need]
	gtab, gid := s[:n], s[n:n+rows] // bitset hash → group+1 (0 empty); group of each row
	clear(gtab)
	s = s[n+rows:]
	g.rep, g.pop = s[:0:rows], s[rows:rows:2*rows]
	g.order, g.start = s[2*rows:3*rows], s[3*rows:]
	for r := 0; r < rows; r++ {
		row := m.rowBits(r)
		for i := int(hashWords(row) >> shift); ; i = (i + 1) & (n - 1) {
			v := gtab[i]
			if v == 0 {
				gtab[i] = int32(len(g.rep)) + 1
				gid[r] = int32(len(g.rep))
				g.rep = append(g.rep, int32(r))
				pop := 0
				for _, w := range row {
					pop += bits.OnesCount64(w)
				}
				g.pop = append(g.pop, int32(pop))
				break
			}
			if slices.Equal(m.rowBits(int(g.rep[v-1])), row) {
				gid[r] = v - 1
				break
			}
		}
	}
	// Counting pass: count each group's members, turn the counts into
	// group ends, then place the rows from last to first so every group
	// fills its span backwards — ascending within the group — and its
	// end moves down to its start.
	groups := len(g.rep)
	g.start = g.start[:groups+1]
	clear(g.start)
	for _, gi := range gid {
		g.start[gi]++
	}
	end := int32(0)
	for gi := range groups {
		end += g.start[gi]
		g.start[gi] = end
	}
	g.start[groups] = int32(rows)
	for r := rows - 1; r >= 0; r-- {
		gi := gid[r]
		g.start[gi]--
		g.order[g.start[gi]] = int32(r)
	}
	m.grouped = true
	return g
}

// hashWords hashes a row bitset for compress's group table; the table
// indexes by the top bits.
func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h * 0x9e3779b97f4a7c15
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
	n := len(m.ids)
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
		ra := m.rowBits(int(g.rep[ga]))
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
			w := uint32(andPop(ra, m.rowBits(int(g.rep[gb]))))
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
	// start is sorted: binary search for the first group whose span
	// ends after p.
	lo, hi := 0, g.groups()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(g.start[mid+1]) > p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// GramTileCost estimates the work of GramTileAppend over the same tile,
// in the same unit as GramCost: AND·popcount word operations plus emitted
// entries. The balancer uses it to weigh split work units.
func (m *BitMatrix) GramTileCost(p0, p1, q0, q1 int) int {
	g := m.compress()
	n := len(m.ids)
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
