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
//
// Every process of a distributed run derives the assignment on its own,
// so each step is a pure function of its inputs: integer counts over
// sorted keys and fixed-order scans, with no map. The transition sample
// is built on every core, but its shards merge exactly (integer sums
// over a total order), so there is still no dependence on the process's
// core count.
package partition

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

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

// sampleDays caps the schedule days Default samples: a week covers every
// weekday and weekend pattern, so longer runs add cost and no signal.
const sampleDays = 7

// Default is the assignment a simulation uses when none is given: the
// Spatial partition of the transition graph sampled from every person's
// first min(days, 7) days of schedule. It fails on a non-positive rank
// or day count.
func Default(pop *synthpop.Population, gen *schedule.Generator, days, ranks int) (Assignment, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("partition: ranks must be positive, got %d", ranks)
	}
	if days < 1 {
		return nil, fmt.Errorf("partition: days must be positive, got %d", days)
	}
	edges, loads := TransitionGraph(pop, gen, min(days, sampleDays), pop.NumPersons())
	return Spatial(pop, edges, loads, ranks), nil
}

// TransitionGraph samples the first sample persons' schedules over the
// given days and returns the undirected place transition edges, sorted
// by (A, B), and the per-place occupancy load in person-hours.
//
// The persons are cut into contiguous ranges, one per worker
// (GOMAXPROCS workers, at most one per shardPersons persons), and each
// worker builds its range's edges and loads alone (samplePersons). The
// loads are then summed and the edge lists merged (mergeEdges). Both
// are integer sums over a total order, so the result does not depend on
// the worker count.
func TransitionGraph(pop *synthpop.Population, gen *schedule.Generator, days, sample int) ([]Edge, []uint64) {
	sample = max(min(sample, pop.NumPersons()), 0)
	return transitionGraph(pop, gen, days, sample, min(runtime.GOMAXPROCS(0), (sample+shardPersons-1)/shardPersons))
}

// shardPersons is the fewest persons TransitionGraph gives a worker of
// its own.
const shardPersons = 4096

// transitionGraph is TransitionGraph on the given number of workers
// (0 → 1), which may exceed the sampled persons.
func transitionGraph(pop *synthpop.Population, gen *schedule.Generator, days, sample, workers int) ([]Edge, []uint64) {
	sample = max(min(sample, pop.NumPersons()), 0)
	workers = max(workers, 1)
	edges := make([][]Edge, workers)
	loads := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edges[w], loads[w] = samplePersons(pop, gen, days, sample*w/workers, sample*(w+1)/workers)
		}()
	}
	wg.Wait()
	for _, l := range loads[1:] {
		for p, x := range l {
			loads[0][p] += x
		}
	}
	return mergeEdges(edges), loads[0]
}

// samplePersons returns the transition edges, sorted by (A, B), and the
// per-place loads of persons [lo, hi) over the given days.
//
// Each transition is recorded as a packed A<<32|B key; the keys are
// radix-sorted and run-length counted into edges, so the edges come out
// in (A, B) order without a comparison sort.
func samplePersons(pop *synthpop.Population, gen *schedule.Generator, days, lo, hi int) ([]Edge, []uint64) {
	loads := make([]uint64, pop.NumPlaces())
	var keys []uint64
	var day []schedule.Segment // scratch, reused across every (person, day)
	for p := lo; p < hi; p++ {
		prev := synthpop.NoPlace
		for d := 0; d < days; d++ {
			day = gen.AppendDay(day[:0], uint32(p), d)
			for _, s := range day {
				loads[s.Place] += uint64(s.Stop - s.Start)
				if prev != synthpop.NoPlace && prev != s.Place {
					if len(keys) == cap(keys) {
						// Double: append's 1.25× growth for large slices
						// would copy the keys about five times over.
						keys = slices.Grow(keys, max(len(keys), 1024))
					}
					a, b := min(prev, s.Place), max(prev, s.Place)
					keys = append(keys, uint64(a)<<32|uint64(b))
				}
				prev = s.Place
			}
		}
	}
	return countKeys(sortKeys(keys, make([]uint64, len(keys)))), loads
}

// mergeEdges merges edge lists sorted by (A, B) into one, adding the
// weights of equal pairs. The lists are merged pairwise, round by round,
// so each edge is copied about log2(len(parts)) times.
func mergeEdges(parts [][]Edge) []Edge {
	for len(parts) > 1 {
		next := parts[:0] // round r writes slot i/2 after reading slots i and i+1
		for i := 0; i < len(parts); i += 2 {
			if i+1 == len(parts) {
				next = append(next, parts[i])
			} else {
				next = append(next, merge2(parts[i], parts[i+1]))
			}
		}
		parts = next
	}
	return parts[0]
}

// merge2 merges two edge lists sorted by (A, B), adding the weights of
// equal pairs.
func merge2(a, b []Edge) []Edge {
	key := func(e Edge) uint64 { return uint64(e.A)<<32 | uint64(e.B) }
	out := make([]Edge, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := key(a[i]), key(b[j])
		switch {
		case ka < kb:
			out = append(out, a[i])
			i++
		case kb < ka:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Edge{A: a[i].A, B: a[i].B, W: a[i].W + b[j].W})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortKeys sorts keys ascending with an LSD radix sort on 16-bit digits,
// using buf (of the same length) as the ping-pong buffer, and returns
// whichever of the two holds the result. Digits that are constant across
// the input are skipped, so keys of two place ids below 2¹⁶ take two
// passes: one per id.
func sortKeys(keys, buf []uint64) []uint64 {
	orK, andK := uint64(0), ^uint64(0)
	for _, k := range keys {
		orK |= k
		andK &= k
	}
	var shiftBuf [4]uint
	shifts := shiftBuf[:0]
	for s := uint(0); s < 64; s += 16 {
		if uint16((orK^andK)>>s) != 0 {
			shifts = append(shifts, s)
		}
	}
	counts := make([][1 << 16]uint32, len(shifts))
	for _, k := range keys {
		for d, s := range shifts {
			counts[d][uint16(k>>s)]++
		}
	}
	src, dst := keys, buf
	for d, s := range shifts {
		c := &counts[d]
		sum := uint32(0)
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, k := range src {
			b := uint16(k >> s)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// countKeys run-length counts sorted keys into edges, sized exactly by a
// first pass that counts the distinct keys.
func countKeys(keys []uint64) []Edge {
	n := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			n++
		}
	}
	edges := make([]Edge, 0, n)
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			edges[len(edges)-1].W++
		} else {
			edges = append(edges, Edge{A: uint32(k >> 32), B: uint32(k), W: 1})
		}
	}
	return edges
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
	// the same neighborhood next to each other: a stable counting sort
	// on the neighborhood id.
	var last uint16
	for _, pl := range pop.Places {
		last = max(last, pl.Neighborhood)
	}
	start := make([]int, int(last)+2)
	for _, pl := range pop.Places {
		start[pl.Neighborhood+1]++
	}
	for n := 1; n < len(start); n++ {
		start[n] += start[n-1]
	}
	order := make([]int, pop.NumPlaces())
	for p, pl := range pop.Places {
		order[start[pl.Neighborhood]] = p
		start[pl.Neighborhood]++
	}

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

	// CSR adjacency: place p's neighbours and edge weights are
	// nbr[off[p]:off[p+1]] and nbrW[off[p]:off[p+1]].
	off := make([]int, len(a)+1)
	for _, e := range edges {
		off[e.A+1]++
		off[e.B+1]++
	}
	for p := 1; p < len(off); p++ {
		off[p] += off[p-1]
	}
	nbr := make([]uint32, off[len(a)])
	nbrW := make([]uint64, off[len(a)])
	fill := append([]int(nil), off[:len(a)]...)
	for _, e := range edges {
		nbr[fill[e.A]], nbrW[fill[e.A]] = e.B, e.W
		fill[e.A]++
		nbr[fill[e.B]], nbrW[fill[e.B]] = e.A, e.W
		fill[e.B]++
	}

	// w[r] is the weight of the current place's edges toward rank r.
	w := make([]uint64, ranks)
	for pass := 0; pass < 3; pass++ {
		moved := 0
		for p := range a {
			lo, hi := off[p], off[p+1]
			if lo == hi {
				continue
			}
			// Selection must be deterministic (strictly heavier wins;
			// ties keep the current rank, then prefer the smaller rank
			// index): every process of a distributed run recomputes
			// this assignment independently and they must all agree.
			clear(w)
			for i := lo; i < hi; i++ {
				w[a[nbr[i]]] += nbrW[i]
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
