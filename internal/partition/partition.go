// Package partition assigns places to simulation ranks.
//
// The paper notes that chiSIM distributes places among compute processes
// and develops "a spatially partitioned set of locations ... with the
// objective of minimizing person agent movement between processes". This
// package reproduces that: it estimates a place-to-place transition graph
// by sampling person schedules, then assigns places to ranks so that
// (a) expected occupancy load is balanced and (b) the weight of
// transitions crossing rank boundaries (which become inter-rank agent
// migrations in the ABM) is small.
//
// Spatial exploits the population's neighborhood structure — whole
// neighborhoods are packed onto ranks by load, then a single-move
// refinement pass shaves the remaining cut. Random is the baseline the
// ablation benchmark compares against.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/schedule"
	"repro/internal/synthpop"
)

// Assignment maps each place ID to its owning rank.
type Assignment []int

// Validate checks that every place has a rank in [0, ranks).
func (a Assignment) Validate(ranks int) error {
	for p, r := range a {
		if r < 0 || r >= ranks {
			return fmt.Errorf("partition: place %d assigned to rank %d of %d", p, r, ranks)
		}
	}
	return nil
}

// Edge is an undirected place-to-place transition count.
type Edge struct {
	A, B uint32
	W    uint64
}

// Random assigns places to ranks by ID hash, ignoring spatial structure.
// It is the ablation baseline.
func Random(numPlaces, ranks int) Assignment {
	a := make(Assignment, numPlaces)
	for p := range a {
		// Multiplicative hash to avoid the accidental locality of plain
		// modulo on sequentially allocated IDs.
		a[p] = int((uint64(p) * 0x9e3779b97f4a7c15 >> 32) % uint64(ranks))
	}
	return a
}

// TransitionGraph samples the first sample persons' schedules over the
// given days and returns the undirected place transition edges and the
// per-place occupancy load in person-hours.
func TransitionGraph(pop *synthpop.Population, gen *schedule.Generator, days, sample int) ([]Edge, []uint64) {
	if sample > pop.NumPersons() {
		sample = pop.NumPersons()
	}
	loads := make([]uint64, pop.NumPlaces())
	type pair struct{ a, b uint32 }
	trans := make(map[pair]uint64)
	var day []schedule.Segment // scratch, reused across every (person, day)
	for p := 0; p < sample; p++ {
		prev := synthpop.NoPlace
		for d := 0; d < days; d++ {
			day = gen.AppendDay(day[:0], uint32(p), d)
			for _, s := range day {
				loads[s.Place] += uint64(s.Stop - s.Start)
				if prev != synthpop.NoPlace && prev != s.Place {
					a, b := prev, s.Place
					if a > b {
						a, b = b, a
					}
					trans[pair{a, b}]++
				}
				prev = s.Place
			}
		}
	}
	edges := make([]Edge, 0, len(trans))
	for k, w := range trans {
		edges = append(edges, Edge{A: k.a, B: k.b, W: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return edges, loads
}

// CutWeight returns the total weight of edges whose endpoints live on
// different ranks — the expected inter-rank migration volume.
func CutWeight(edges []Edge, a Assignment) uint64 {
	var cut uint64
	for _, e := range edges {
		if a[e.A] != a[e.B] {
			cut += e.W
		}
	}
	return cut
}

// LoadImbalance returns max(rank load)/mean(rank load); 1.0 is perfect.
func LoadImbalance(loads []uint64, a Assignment, ranks int) float64 {
	per := make([]uint64, ranks)
	var total uint64
	for p, l := range loads {
		per[a[p]] += l
		total += l
	}
	if total == 0 {
		return 1
	}
	var max uint64
	for _, l := range per {
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(ranks)
	return float64(max) / mean
}

// Spatial builds a locality-aware assignment: places are ordered so that
// each neighborhood is contiguous, the order is cut into `ranks` chunks
// of near-equal load (keeping neighborhoods mostly intact), and a
// single-move refinement pass then shaves the remaining transition cut
// without violating a 20% load-balance tolerance.
func Spatial(pop *synthpop.Population, edges []Edge, loads []uint64, ranks int) Assignment {
	a := make(Assignment, pop.NumPlaces())

	// Order places with neighborhoods contiguous. Within a neighborhood
	// keep allocation order, which groups homes, schools and retail of
	// the same neighborhood next to each other.
	order := make([]int, pop.NumPlaces())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return pop.Places[order[i]].Neighborhood < pop.Places[order[j]].Neighborhood
	})

	var total uint64
	for _, l := range loads {
		total += l
	}
	target := total / uint64(ranks)

	rankLoad := make([]uint64, ranks)
	r := 0
	var acc uint64
	for _, p := range order {
		// Move to the next rank once this one has its share, leaving
		// the final rank to absorb the remainder.
		if acc >= target && r < ranks-1 {
			r++
			acc = 0
		}
		a[p] = r
		acc += loads[p]
		rankLoad[r] += loads[p]
	}

	refine(a, edges, loads, rankLoad, ranks)
	return a
}

// refine performs greedy single-move improvement: move a place to the
// rank where most of its transition weight lives if that strictly
// reduces the cut and keeps every rank within tolerance of the mean.
func refine(a Assignment, edges []Edge, loads []uint64, rankLoad []uint64, ranks int) {
	if ranks == 1 {
		return
	}
	var total uint64
	for _, l := range rankLoad {
		total += l
	}
	limit := uint64(float64(total) / float64(ranks) * 1.2)

	// Adjacency in CSR-ish form for per-place gain evaluation.
	adj := make(map[uint32][]Edge)
	for _, e := range edges {
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], Edge{A: e.B, B: e.A, W: e.W})
	}

	for pass := 0; pass < 3; pass++ {
		moved := 0
		for p := range a {
			pl := uint32(p)
			nbrs := adj[pl]
			if len(nbrs) == 0 {
				continue
			}
			// Weight of p's edges toward each rank. Selection must be
			// deterministic (strictly heavier wins; ties keep the
			// current rank, then prefer the smaller rank index): every
			// process of a distributed run recomputes this assignment
			// independently and they must all agree.
			w := make(map[int]uint64)
			for _, e := range nbrs {
				w[a[e.B]] += e.W
			}
			cur := a[p]
			curW := w[cur]
			best, bestW := cur, curW
			for r := 0; r < ranks; r++ {
				wt := w[r]
				if wt <= curW {
					continue // only strictly better ranks are candidates
				}
				if wt > bestW || (wt == bestW && r < best) {
					best, bestW = r, wt
				}
			}
			if best == cur {
				continue
			}
			if rankLoad[best]+loads[p] > limit {
				continue
			}
			rankLoad[cur] -= loads[p]
			rankLoad[best] += loads[p]
			a[p] = best
			moved++
		}
		if moved == 0 {
			break
		}
	}
}
