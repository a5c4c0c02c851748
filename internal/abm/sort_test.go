package abm

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestPersonSorterMatchesComparisonSort checks the mover sort against a
// comparison sort on person id: unique random ids of every width
// (including ids at or past 2²⁴ and 2³¹, whose top digits vary), sizes
// around the insertion-sort cutoff, and presorted and reversed input.
func TestPersonSorterMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	var s personSorter
	for _, n := range []int{0, 1, 2, smallSort - 1, smallSort, smallSort + 1, 300, 5000} {
		ids := []struct {
			name string
			draw func() uint32
		}{
			{"dense", func() uint32 { return r.Uint32N(uint32(2*n + 1)) }},
			{"from 2^24", func() uint32 { return 1<<24 | r.Uint32N(1<<24) }},
			{"from 2^31", func() uint32 { return 1<<31 | r.Uint32() }},
			{"any", r.Uint32},
		}
		for _, id := range ids {
			seen := make(map[uint32]bool, n)
			agents := make([]agent, 0, n)
			for len(agents) < n {
				p := id.draw()
				if seen[p] {
					continue
				}
				seen[p] = true
				agents = append(agents, agent{person: p, seg: uint32(len(agents))})
			}
			want := slices.Clone(agents)
			slices.SortFunc(want, func(a, b agent) int { return cmp.Compare(a.person, b.person) })
			reversed := slices.Clone(want)
			slices.Reverse(reversed)
			for _, in := range []struct {
				order  string
				agents []agent
			}{{"random", agents}, {"presorted", want}, {"reversed", reversed}} {
				if got := s.sort(slices.Clone(in.agents)); !slices.Equal(got, want) {
					t.Fatalf("n=%d %s ids, %s input: radix order differs from the comparison sort", n, id.name, in.order)
				}
			}
		}
	}
}
