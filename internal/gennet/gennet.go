// Package gennet generates the random synthetic networks the paper's
// conclusion discusses as candidate stand-ins for empirical social
// structure: "Various methods exist for generating random scale-free
// networks that may be superficially similar in structure to those
// displayed by the chiSIM model... but would need to be tailored to
// capture the more complex structure in the vertex degree distribution
// graphs presented in this paper."
//
// The E1 experiment uses these generators — Erdős–Rényi, Watts–Strogatz,
// Barabási–Albert, and the configuration model — matched to the
// simulated collocation network's size, and quantifies exactly that gap:
// the random models miss the degree distribution, the clustering, or
// both.
package gennet

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// ErdosRenyi samples a G(n, m) graph: m distinct edges uniform over all
// pairs. All edge weights are 1.
func ErdosRenyi(n, m int, src *rng.Source) (*sparse.Tri, error) {
	if n < 2 {
		return nil, fmt.Errorf("gennet: ErdosRenyi needs n ≥ 2, got %d", n)
	}
	maxM := n * (n - 1) / 2
	if m < 0 || m > maxM {
		return nil, fmt.Errorf("gennet: m=%d out of [0,%d]", m, maxM)
	}
	es := make([]sparse.Entry, 0, m)
	seen := make(map[uint64]bool, m)
	for len(seen) < m {
		i := uint32(src.Intn(n))
		j := uint32(src.Intn(n))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		key := uint64(i)<<32 | uint64(j)
		if seen[key] {
			continue
		}
		seen[key] = true
		es = append(es, sparse.Entry{I: i, J: j, W: 1})
	}
	return sparse.Coalesce(1, es), nil
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// small clique, each new vertex attaches to m existing vertices chosen
// proportionally to degree. Produces the scale-free p(k) ~ k^-3 family
// referenced by the paper ([19] Barabási, Albert, Jeong).
func BarabasiAlbert(n, m int, src *rng.Source) (*sparse.Tri, error) {
	if m < 1 || n <= m {
		return nil, fmt.Errorf("gennet: BarabasiAlbert needs 1 ≤ m < n, got n=%d m=%d", n, m)
	}
	var es []sparse.Entry
	// Repeated-endpoint list implements preferential attachment: a
	// vertex appears once per incident edge end.
	var ends []uint32
	// Seed: clique on m+1 vertices.
	for i := uint32(0); i <= uint32(m); i++ {
		for j := i + 1; j <= uint32(m); j++ {
			es = append(es, sparse.Entry{I: i, J: j, W: 1})
			ends = append(ends, i, j)
		}
	}
	// chosen keeps the targets in draw order: they feed ends, so ranging
	// over a map here would make every later pick, and the graph, differ
	// from one call to the next.
	chosen := make([]uint32, 0, m)
	for v := uint32(m + 1); v < uint32(n); v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			u := ends[src.Intn(len(ends))]
			if u == v || slices.Contains(chosen, u) {
				continue
			}
			chosen = append(chosen, u)
		}
		for _, u := range chosen {
			es = append(es, sparse.Entry{I: v, J: u, W: 1})
			ends = append(ends, v, u)
		}
	}
	return sparse.Coalesce(1, es), nil
}

// WattsStrogatz builds the small-world model: a ring lattice where each
// vertex connects to its k nearest neighbors (k even), with each edge
// rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, src *rng.Source) (*sparse.Tri, error) {
	if k < 2 || k%2 != 0 || k >= n {
		return nil, fmt.Errorf("gennet: WattsStrogatz needs even 2 ≤ k < n, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gennet: beta=%v out of [0,1]", beta)
	}
	type edge struct{ i, j uint32 }
	present := make(map[edge]bool, n*k/2)
	norm := func(i, j uint32) edge {
		if i > j {
			i, j = j, i
		}
		return edge{i, j}
	}
	var edges []edge
	for v := 0; v < n; v++ {
		for d := 1; d <= k/2; d++ {
			e := norm(uint32(v), uint32((v+d)%n))
			if !present[e] {
				present[e] = true
				edges = append(edges, e)
			}
		}
	}
	for idx, e := range edges {
		if !src.Bool(beta) {
			continue
		}
		// Rewire the far endpoint to a uniform random target, avoiding
		// self-loops and duplicates.
		for attempt := 0; attempt < 32; attempt++ {
			t := uint32(src.Intn(n))
			ne := norm(e.i, t)
			if t == e.i || present[ne] {
				continue
			}
			delete(present, e)
			present[ne] = true
			edges[idx] = ne
			break
		}
	}
	es := make([]sparse.Entry, len(edges))
	for k, e := range edges {
		es[k] = sparse.Entry{I: e.i, J: e.j, W: 1}
	}
	return sparse.Coalesce(1, es), nil
}

// ConfigurationModel samples a simple graph whose degree sequence
// approximates the target: stubs are matched uniformly, and self-loops /
// duplicate edges are discarded (the standard "erased" configuration
// model), which slightly truncates the highest degrees.
func ConfigurationModel(degrees []int, src *rng.Source) (*sparse.Tri, error) {
	var stubs []uint32
	for v, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("gennet: negative degree %d for vertex %d", d, v)
		}
		for k := 0; k < d; k++ {
			stubs = append(stubs, uint32(v))
		}
	}
	if len(stubs)%2 == 1 {
		// Odd total degree cannot be realized; drop one stub from the
		// highest-degree vertex.
		stubs = stubs[:len(stubs)-1]
	}
	src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	var es []sparse.Entry
	seen := make(map[uint64]bool, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(b)
		if seen[key] {
			continue
		}
		seen[key] = true
		es = append(es, sparse.Entry{I: a, J: b, W: 1})
	}
	return sparse.Coalesce(1, es), nil
}

// DegreeSequence extracts each vertex's degree from a graph, the input
// the configuration model matches.
func DegreeSequence(g *graph.Graph) []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.Degree(uint32(v))
	}
	return out
}
