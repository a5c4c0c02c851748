package graph

import (
	"math"
	"sort"

	"repro/internal/rng"
)

// TopDegree returns the k highest-degree vertices, degree-descending
// with ascending-id tie-break, so hub selection is deterministic. k is
// clamped to the vertex count; k <= 0 returns nil.
func (g *Graph) TopDegree(k int) []uint32 {
	n := g.NumVertices()
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	ids := make([]uint32, n)
	for v := range ids {
		ids[v] = uint32(v)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids[:k:k]
}

// GlobalTransitivity returns 3 × triangles / connected triples — the
// whole-graph clustering ratio (distinct from the mean of local
// coefficients).
func (g *Graph) GlobalTransitivity() float64 {
	n := g.NumVertices()
	var closed int64 // Σ_v T_v = 3 × total triangles
	mark := make([]bool, n)
	var triples int64 // Σ_v C(deg v, 2) = connected triples
	for v := 0; v < n; v++ {
		d := int64(g.Degree(uint32(v)))
		triples += d * (d - 1) / 2
		if d >= 2 {
			closed += g.triangles(uint32(v), mark)
		}
	}
	if triples == 0 {
		return 0
	}
	// transitivity = 3·triangles / triples = Σ T_v / Σ triples_v.
	return float64(closed) / float64(triples)
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's assortativity coefficient). Social networks are
// typically assortative (positive).
func (g *Graph) DegreeAssortativity() float64 {
	var m float64
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	for v := 0; v < g.NumVertices(); v++ {
		row, _ := g.Neighbors(uint32(v))
		dv := float64(g.Degree(uint32(v)))
		for _, u := range row {
			if u <= uint32(v) {
				continue
			}
			du := float64(g.Degree(u))
			// Each undirected edge contributes both orientations to the
			// correlation, keeping it symmetric.
			m += 2
			sumXY += 2 * dv * du
			sumX += dv + du
			sumY += dv + du
			sumX2 += dv*dv + du*du
			sumY2 += dv*dv + du*du
		}
	}
	if m == 0 {
		return 0
	}
	num := sumXY/m - (sumX/m)*(sumY/m)
	den := math.Sqrt(sumX2/m-(sumX/m)*(sumX/m)) * math.Sqrt(sumY2/m-(sumY/m)*(sumY/m))
	if den == 0 {
		return 0
	}
	return num / den
}

// MeanShortestPath estimates the average shortest-path length within the
// giant component by BFS from `samples` random sources. Exact when
// samples ≥ component size.
func (g *Graph) MeanShortestPath(samples int, src *rng.Source) float64 {
	labels, count := g.ConnectedComponents()
	if count == 0 {
		return 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	giant := 0
	for c, s := range sizes {
		if s > sizes[giant] {
			giant = c
		}
	}
	var members []uint32
	for v, l := range labels {
		if l == giant {
			members = append(members, uint32(v))
		}
	}
	if len(members) < 2 {
		return 0
	}
	if samples > len(members) {
		samples = len(members)
	}
	order := src.Perm(len(members))
	dist := make([]int32, g.NumVertices())
	var queue []uint32
	var total float64
	var pairs int64
	for s := 0; s < samples; s++ {
		source := members[order[s]]
		for i := range dist {
			dist[i] = -1
		}
		dist[source] = 0
		queue = append(queue[:0], source)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			row, _ := g.Neighbors(v)
			for _, u := range row {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
					total += float64(dist[u])
					pairs++
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// DensityOfRandomEquivalent returns the expected local clustering of an
// Erdős–Rényi graph with the same vertex and edge counts (= density),
// the baseline the small-world comparison uses.
func (g *Graph) DensityOfRandomEquivalent() float64 {
	n := float64(g.NumVertices())
	if n < 2 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / (n * (n - 1))
}
