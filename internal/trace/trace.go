// Package trace reconstructs agent contact histories from simulation
// event logs — the application the paper gives for its logging framework
// (Section II): "the log can be used to reconstruct all the agents that
// an agent had contact with over the course of an epidemic simulation,
// and used to trace back to patient zero, the agent who initiated the
// disease outbreak."
//
// Unlike package disease (which holds the epidemic ground truth in
// memory), everything here is computed purely from log entries, i.e.
// from what an analyst would actually have on disk after a run.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/eventlog"
)

// Contact summarizes one person's collocation with another during a
// query window.
type Contact struct {
	Person uint32
	// Hours is the number of shared place-hours in the window.
	Hours uint32
	// FirstHour is the earliest shared hour.
	FirstHour uint32
	// Place is the place of the earliest shared hour.
	Place uint32
}

// Index answers collocation queries over a set of log entries.
type Index struct {
	byPerson map[uint32][]eventlog.Entry
	byPlace  map[uint32][]eventlog.Entry
}

// NewIndex builds an index over already-materialized entries.
func NewIndex(entries []eventlog.Entry) *Index {
	ix := newEmptyIndex()
	ix.addAll(entries)
	ix.finish()
	return ix
}

func newEmptyIndex() *Index {
	return &Index{
		byPerson: make(map[uint32][]eventlog.Entry),
		byPlace:  make(map[uint32][]eventlog.Entry),
	}
}

func (ix *Index) addAll(entries []eventlog.Entry) {
	for _, e := range entries {
		ix.byPerson[e.Person] = append(ix.byPerson[e.Person], e)
		ix.byPlace[e.Place] = append(ix.byPlace[e.Place], e)
	}
}

// finish sorts the per-person and per-place posting lists; the index is
// queryable only after finish.
func (ix *Index) finish() {
	for _, es := range ix.byPerson {
		sort.Slice(es, func(i, j int) bool { return es[i].Start < es[j].Start })
	}
	for _, es := range ix.byPlace {
		sort.Slice(es, func(i, j int) bool { return es[i].Start < es[j].Start })
	}
}

// NewIndexFromSource builds an index by draining src batch-by-batch, so
// the caller never materializes the full entry slice; transient memory
// is one source batch plus the index itself. The source is not closed.
func NewIndexFromSource(src eventlog.EntrySource) (*Index, error) {
	ix := newEmptyIndex()
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ix.addAll(batch)
	}
	ix.finish()
	return ix, nil
}

// FromFiles builds an index over all entries of the given log files,
// streaming one chunk at a time.
func FromFiles(paths []string) (*Index, error) {
	src := eventlog.OpenFilesSource(paths, 0, ^uint32(0))
	defer src.Close()
	return NewIndexFromSource(src)
}

// Entries returns person's log entries overlapping [t0, t1), in start
// order.
func (ix *Index) Entries(person, t0, t1 uint32) []eventlog.Entry {
	var out []eventlog.Entry
	for _, e := range ix.byPerson[person] {
		if e.Start < t1 && e.Stop > t0 {
			out = append(out, e)
		}
	}
	return out
}

// Contacts returns everyone who shared a place-hour with person during
// [t0, t1), with shared-hour counts, sorted by decreasing Hours then
// increasing person ID. This is the paper's "reconstruct all the agents
// that an agent had contact with" query.
func (ix *Index) Contacts(person, t0, t1 uint32) []Contact {
	type acc struct {
		hours     uint32
		firstHour uint32
		place     uint32
	}
	found := make(map[uint32]*acc)
	for _, mine := range ix.Entries(person, t0, t1) {
		lo, hi := maxU32(mine.Start, t0), minU32(mine.Stop, t1)
		for _, other := range ix.byPlace[mine.Place] {
			if other.Person == person {
				continue
			}
			s, e := maxU32(other.Start, lo), minU32(other.Stop, hi)
			if s >= e {
				continue
			}
			a := found[other.Person]
			if a == nil {
				a = &acc{firstHour: s, place: mine.Place}
				found[other.Person] = a
			}
			a.hours += e - s
			if s < a.firstHour {
				a.firstHour = s
				a.place = mine.Place
			}
		}
	}
	out := make([]Contact, 0, len(found))
	for p, a := range found {
		out = append(out, Contact{Person: p, Hours: a.hours, FirstHour: a.firstHour, Place: a.place})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hours != out[j].Hours {
			return out[i].Hours > out[j].Hours
		}
		return out[i].Person < out[j].Person
	})
	return out
}

// ContactsAt returns the persons sharing a place with person during the
// single hour h, sorted by ID.
func (ix *Index) ContactsAt(person, h uint32) []uint32 {
	seen := make(map[uint32]struct{})
	for _, c := range ix.Contacts(person, h, h+1) {
		seen[c.Person] = struct{}{}
	}
	out := make([]uint32, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// TraceToPatientZero reconstructs an infection chain from logs alone:
// given each infected person's exposure hour (as recovered e.g. from a
// disease-state log column), it walks backwards from `from`, at each
// step selecting among the contacts present at the exposure hour those
// who were already infectious (exposed at least incubation hours
// earlier), preferring the earliest-exposed candidate. The walk ends at
// a person with no earlier-exposed contact — patient zero.
//
// exposedAt must contain every infected person; persons absent from the
// map are treated as never infected.
func TraceToPatientZero(ix *Index, exposedAt map[uint32]uint32, incubation uint32, from uint32) ([]uint32, error) {
	if _, ok := exposedAt[from]; !ok {
		return nil, fmt.Errorf("trace: person %d was never infected", from)
	}
	chain := []uint32{from}
	seen := map[uint32]bool{from: true}
	cur := from
	for {
		hour := exposedAt[cur]
		// Tier 1: contacts whose exposure predates `hour` by at least
		// the incubation period (plausibly infectious). Tier 2, only
		// within the first incubation window of the run: any strictly
		// earlier-exposed contact — infections that early can only come
		// from index cases, which are seeded directly infectious and
		// would fail the incubation test.
		var best uint32
		bestExposed := uint32(0)
		bestTier := 0
		for _, p := range ix.ContactsAt(cur, hour) {
			pe, infected := exposedAt[p]
			if !infected || seen[p] || pe >= hour {
				continue
			}
			tier := 0
			switch {
			case pe+incubation <= hour:
				tier = 1
			case hour < incubation:
				tier = 2
			default:
				continue
			}
			better := bestTier == 0 ||
				tier < bestTier ||
				(tier == bestTier && (pe < bestExposed || (pe == bestExposed && p < best)))
			if better {
				best, bestExposed, bestTier = p, pe, tier
			}
		}
		if bestTier == 0 {
			return chain, nil
		}
		seen[best] = true
		chain = append(chain, best)
		cur = best
	}
}
