package partition

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/schedule"
	"repro/internal/synthpop"
)

// setup generates a population of the given size, with one neighborhood
// per 2000 persons, and its transition graph. Tests that want spatial
// units to outnumber compute processes, as in the paper's deployment,
// pass 32000 persons for 16 neighborhoods.
func setup(t testing.TB, persons int) (*synthpop.Population, []Edge, []uint64) {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 3)
	edges, loads := TransitionGraph(pop, gen, 5, persons)
	return pop, edges, loads
}

func TestRandomAssignmentValid(t *testing.T) {
	for _, ranks := range []int{1, 2, 7, 16} {
		a := Random(1000, ranks)
		if len(a) != 1000 {
			t.Fatalf("ranks=%d: assignment length %d", ranks, len(a))
		}
		if err := a.Validate(ranks); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomSpreadsPlaces(t *testing.T) {
	const ranks = 8
	a := Random(10000, ranks)
	counts := make([]int, ranks)
	for _, r := range a {
		counts[r]++
	}
	for r, c := range counts {
		if c < 500 || c > 2500 {
			t.Fatalf("rank %d owns %d of 10000 places; hash spread broken", r, c)
		}
	}
}

func TestTransitionGraphBasics(t *testing.T) {
	pop, edges, loads := setup(t, 4000)
	if len(edges) == 0 {
		t.Fatal("no transitions sampled")
	}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge not normalized: %+v", e)
		}
		if int(e.B) >= pop.NumPlaces() {
			t.Fatalf("edge references unknown place: %+v", e)
		}
		if e.W == 0 {
			t.Fatalf("zero-weight edge: %+v", e)
		}
	}
	// Total load = sample persons × days × 24 hours.
	var total uint64
	for _, l := range loads {
		total += l
	}
	want := uint64(4000 * 5 * 24)
	if total != want {
		t.Fatalf("total load = %d person-hours, want %d", total, want)
	}
}

func TestSpatialPartitionValidAndBalanced(t *testing.T) {
	pop, edges, loads := setup(t, 32000)
	for _, ranks := range []int{2, 4, 8} {
		a := Spatial(pop, edges, loads, ranks)
		if err := a.Validate(ranks); err != nil {
			t.Fatal(err)
		}
		if imb := LoadImbalance(loads, a, ranks); imb > 1.6 {
			t.Errorf("ranks=%d: load imbalance %.2f too high", ranks, imb)
		}
	}
}

func TestSpatialBeatsRandomOnCut(t *testing.T) {
	pop, edges, loads := setup(t, 32000)
	const ranks = 8
	spatial := Spatial(pop, edges, loads, ranks)
	random := Random(pop.NumPlaces(), ranks)
	cs, cr := CutWeight(edges, spatial), CutWeight(edges, random)
	if cs >= cr {
		t.Fatalf("spatial cut %d not better than random cut %d", cs, cr)
	}
	// The paper's point is a dramatic reduction; expect at least 2x.
	if float64(cs) > float64(cr)/2 {
		t.Errorf("spatial cut %d is less than 2x better than random %d", cs, cr)
	}
}

func TestSpatialStillHelpsWhenRanksExceedNeighborhoods(t *testing.T) {
	// Oversubscribed case: more ranks than neighborhoods forces
	// neighborhood splits; spatial should still not lose to random.
	pop, err := synthpop.Generate(synthpop.Config{Persons: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 3)
	edges, loads := TransitionGraph(pop, gen, 5, 6000)
	const ranks = 8
	spatial := Spatial(pop, edges, loads, ranks)
	random := Random(pop.NumPlaces(), ranks)
	if cs, cr := CutWeight(edges, spatial), CutWeight(edges, random); cs >= cr {
		t.Fatalf("spatial cut %d not better than random cut %d", cs, cr)
	}
}

func TestSingleRankHasZeroCut(t *testing.T) {
	pop, edges, loads := setup(t, 2000)
	a := Spatial(pop, edges, loads, 1)
	if err := a.Validate(1); err != nil {
		t.Fatal(err)
	}
	if cut := CutWeight(edges, a); cut != 0 {
		t.Fatalf("single-rank cut = %d", cut)
	}
}

func TestCutWeightCountsOnlyCrossRank(t *testing.T) {
	edges := []Edge{{0, 1, 10}, {1, 2, 5}, {2, 3, 7}}
	a := Assignment{0, 0, 1, 1}
	if cut := CutWeight(edges, a); cut != 5 {
		t.Fatalf("cut = %d, want 5", cut)
	}
}

func TestLoadImbalancePerfect(t *testing.T) {
	loads := []uint64{10, 10, 10, 10}
	a := Assignment{0, 1, 0, 1}
	if imb := LoadImbalance(loads, a, 2); imb != 1.0 {
		t.Fatalf("imbalance = %v, want 1.0", imb)
	}
}

func TestLoadImbalanceSkewed(t *testing.T) {
	loads := []uint64{30, 10}
	a := Assignment{0, 1}
	if imb := LoadImbalance(loads, a, 2); imb != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", imb)
	}
}

func TestLoadImbalanceZeroTotal(t *testing.T) {
	if imb := LoadImbalance([]uint64{0, 0}, Assignment{0, 1}, 2); imb != 1 {
		t.Fatalf("zero-load imbalance = %v", imb)
	}
}

func TestValidateCatchesBadRank(t *testing.T) {
	a := Assignment{0, 3}
	if err := a.Validate(2); err == nil {
		t.Fatal("rank 3 of 2 accepted")
	}
}

// Spatial must be bit-deterministic: every process of a distributed run
// recomputes the assignment independently from the same inputs and they
// must agree exactly. Repeated calls on the same inputs catch any step
// that depends on state left behind by an earlier call or on an
// unspecified iteration order.
func TestSpatialDeterministicAcrossCalls(t *testing.T) {
	pop, edges, loads := setup(t, 5000)
	for _, ranks := range []int{3, 8} {
		ref := Spatial(pop, edges, loads, ranks)
		for trial := 0; trial < 5; trial++ {
			got := Spatial(pop, edges, loads, ranks)
			for p := range ref {
				if got[p] != ref[p] {
					t.Fatalf("ranks=%d trial %d: place %d assigned to %d then %d",
						ranks, trial, p, ref[p], got[p])
				}
			}
		}
	}
}

// Property: Spatial always emits a valid assignment with every place on
// exactly one rank, for any rank count.
func TestQuickSpatialValid(t *testing.T) {
	pop, edges, loads := setup(t, 3000)
	f := func(r uint8) bool {
		ranks := int(r%16) + 1
		a := Spatial(pop, edges, loads, ranks)
		return a.Validate(ranks) == nil && len(a) == pop.NumPlaces()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRejectsBadCounts(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 3)
	for _, c := range []struct{ days, ranks int }{{1, 0}, {1, -2}, {0, 2}, {-1, 2}} {
		if a, err := Default(pop, gen, c.days, c.ranks); err == nil {
			t.Errorf("days=%d ranks=%d: got an assignment of %d places, want an error", c.days, c.ranks, len(a))
		}
	}
	a, err := Default(pop, gen, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges, loads := referenceTransitionGraph(pop, gen, 7, pop.NumPersons())
	if want := referenceSpatial(pop, edges, loads, 3); !reflect.DeepEqual(a, want) {
		t.Fatal("Default over 9 days differs from the reference over its 7-day sample")
	}
}

// TestPartitionMatchesReference pins TransitionGraph and Spatial to the
// straight-line map-and-sort versions below, over population sizes,
// seeds, sampled days and persons, rank counts and core counts: every
// chisim process derives the assignment on its own, so it must not
// depend on how many cores the process has.
func TestPartitionMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rankCounts := []int{1, 2, 3, 8, 16}
	for _, n := range []int{300, 2000, 20000} {
		for _, seed := range []uint64{3, 2017} {
			pop, err := synthpop.Generate(synthpop.Config{Persons: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			gen := schedule.NewGenerator(pop, seed)
			for _, days := range []int{1, 3, 7} {
				for _, sample := range []int{n, n / 2} {
					wantE, wantL := referenceTransitionGraph(pop, gen, days, sample)
					var wantA []Assignment
					for _, ranks := range rankCounts {
						wantA = append(wantA, referenceSpatial(pop, wantE, wantL, ranks))
					}
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						name := fmt.Sprintf("persons=%d seed=%d days=%d sample=%d procs=%d", n, seed, days, sample, procs)
						edges, loads := TransitionGraph(pop, gen, days, sample)
						if !reflect.DeepEqual(edges, wantE) {
							t.Fatalf("%s: %d edges differ from the reference's %d", name, len(edges), len(wantE))
						}
						if !reflect.DeepEqual(loads, wantL) {
							t.Fatalf("%s: loads differ from the reference", name)
						}
						for i, ranks := range rankCounts {
							if a := Spatial(pop, edges, loads, ranks); !reflect.DeepEqual(a, wantA[i]) {
								t.Fatalf("%s ranks=%d: assignment differs from the reference", name, ranks)
							}
						}
					}
				}
			}
		}
	}
}

// TestTransitionGraphShardsMatchReference: however the sampled persons
// are cut into worker ranges — 1 to 8 workers, samples that do not
// divide evenly, more workers than persons (empty ranges), an empty
// sample — the merged edges and summed loads equal the reference.
func TestTransitionGraphShardsMatchReference(t *testing.T) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 5)
	for _, sample := range []int{0, 1, 5, 7, 1001, 3000} {
		for _, days := range []int{1, 3} {
			wantE, wantL := referenceTransitionGraph(pop, gen, days, sample)
			for workers := 1; workers <= 8; workers++ {
				edges, loads := transitionGraph(pop, gen, days, sample, workers)
				if !reflect.DeepEqual(edges, wantE) {
					t.Fatalf("sample=%d days=%d workers=%d: %d edges differ from the reference's %d", sample, days, workers, len(edges), len(wantE))
				}
				if !reflect.DeepEqual(loads, wantL) {
					t.Fatalf("sample=%d days=%d workers=%d: loads differ from the reference", sample, days, workers)
				}
			}
		}
	}
}

// referenceTransitionGraph is TransitionGraph as a map increment per
// transition followed by a comparison sort of the edges.
func referenceTransitionGraph(pop *synthpop.Population, gen *schedule.Generator, days, sample int) ([]Edge, []uint64) {
	if sample > pop.NumPersons() {
		sample = pop.NumPersons()
	}
	loads := make([]uint64, pop.NumPlaces())
	type pair struct{ a, b uint32 }
	trans := make(map[pair]uint64)
	for p := 0; p < sample; p++ {
		prev := synthpop.NoPlace
		for d := 0; d < days; d++ {
			for _, s := range gen.Day(uint32(p), d) {
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

// referenceSpatial is Spatial with a comparison sort for the
// neighborhood order, a map adjacency and a map of per-rank weights.
func referenceSpatial(pop *synthpop.Population, edges []Edge, loads []uint64, ranks int) Assignment {
	a := make(Assignment, pop.NumPlaces())
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
		if acc >= target && r < ranks-1 {
			r++
			acc = 0
		}
		a[p] = r
		acc += loads[p]
		rankLoad[r] += loads[p]
	}
	if ranks == 1 {
		return a
	}
	limit := uint64(float64(total) / float64(ranks) * 1.2)
	adj := make(map[uint32][]Edge)
	for _, e := range edges {
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], Edge{A: e.B, B: e.A, W: e.W})
	}
	for pass := 0; pass < 3; pass++ {
		moved := 0
		for p := range a {
			nbrs := adj[uint32(p)]
			if len(nbrs) == 0 {
				continue
			}
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
					continue
				}
				if wt > bestW || (wt == bestW && r < best) {
					best, bestW = r, wt
				}
			}
			if best == cur || rankLoad[best]+loads[p] > limit {
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
	return a
}

func TestSortKeysMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 2, 100, 5000} {
		for _, mask := range []uint64{0, 0x3fff_0000_3fff, ^uint64(0)} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = r.Uint64() & mask
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			if got := sortKeys(keys, make([]uint64, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d mask=%#x: radix order differs from slices.Sort", n, mask)
			}
		}
	}
}

func BenchmarkSpatial8Ranks(b *testing.B) {
	pop, edges, loads := setup(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Spatial(pop, edges, loads, 8)
	}
}

// BenchmarkDefaultAssignment20k is the simulation's partition preamble
// by itself: a week of transitions sampled from 20 000 persons, then the
// spatial assignment onto 2 ranks.
func BenchmarkDefaultAssignment20k(b *testing.B) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 20000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Default(pop, gen, 14, 2); err != nil {
			b.Fatal(err)
		}
	}
}
