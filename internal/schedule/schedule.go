// Package schedule generates daily activity schedules for synthetic
// persons, the "a priori inputs" of the paper's ABM: a daily schedule for
// each person specifying the activity and associated location with
// one-hour time resolution.
//
// Schedules are generated lazily and deterministically per (person, day):
// the generator derives an independent random stream from (seed, person,
// day), so a person's schedule does not depend on how places are
// partitioned across ranks or in which order agents are stepped. This is
// the property that makes the end-to-end pipeline's output independent of
// the parallel layout — the invariant the synthesis tests check.
//
// Templates follow the person's demographic (school for children with
// capacity-capped classrooms, work for employed adults, retail and
// leisure trips, all-day institutional presence for prison/retirement
// residents), with an average of about five activity changes per person
// per day, matching the paper's log-sizing estimate.
package schedule

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/synthpop"
)

// Activity identifiers recorded in the event log.
const (
	ActHome uint32 = iota
	ActSchool
	ActWork
	ActShop
	ActLeisure
	ActInstitution
	NumActivities
)

var activityNames = [...]string{"home", "school", "work", "shop", "leisure", "institution"}

// ActivityName returns a human-readable label for an activity ID.
func ActivityName(a uint32) string {
	if int(a) < len(activityNames) {
		return activityNames[a]
	}
	return fmt.Sprintf("activity(%d)", a)
}

// HoursPerDay is the paper's one-hour time resolution.
const HoursPerDay = 24

// Segment is one contiguous activity block: the person performs Activity
// at Place during absolute hours [Start, Stop).
type Segment struct {
	Start    uint32
	Stop     uint32
	Activity uint32
	Place    uint32
}

// Generator produces per-person daily schedules.
type Generator struct {
	pop  *synthpop.Population
	seed uint64
}

// NewGenerator returns a schedule generator over pop, deterministic in
// seed.
func NewGenerator(pop *synthpop.Population, seed uint64) *Generator {
	return &Generator{pop: pop, seed: seed}
}

// dayRNG derives the independent stream for (person, day). It returns the
// source by value so a caller's copy can stay on its stack.
func (g *Generator) dayRNG(person uint32, day int) (r rng.Source) {
	// SplitMix-style mixing of the three coordinates.
	h := g.seed
	h ^= uint64(person) * 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= uint64(day) * 0x94d049bb133111eb
	h = (h ^ (h >> 27)) * 0xff51afd7ed558ccd
	r.Reseed(h ^ (h >> 31))
	return r
}

// homebodyShare is the fraction of persons without a daytime anchor who
// rarely leave home. This heterogeneity produces the large population of
// very low weekly degree (the flat head of the paper's Figure 3: degrees
// 1-7 each held by ~1e5 of 2.9M persons — people whose only weekly
// contacts are their household).
const homebodyShare = 0.45

// IsHomebody reports whether person has the low-mobility trait. The
// trait is a pure function of (seed, person), stable across days.
func (g *Generator) IsHomebody(person uint32) bool {
	h := g.seed ^ 0xabcdef123456789
	h ^= uint64(person) * 0xd6e8feb86659fd93
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return float64(h>>11)/(1<<53) < homebodyShare
}

// visitHome picks another person's home to visit (social call). Falls
// back to the visitor's own home when the draw lands on an institution.
func (g *Generator) visitHome(person uint32, r *rng.Source) uint32 {
	for attempt := 0; attempt < 4; attempt++ {
		other := uint32(r.Intn(g.pop.NumPersons()))
		if other == person {
			continue
		}
		home := g.pop.Persons[other].Home
		if g.pop.Places[home].Type == synthpop.Home {
			return home
		}
	}
	return g.pop.Persons[person].Home
}

// IsWeekend reports whether the given simulation day (0-based) falls on
// the weekend. Day 0 is a Monday.
func IsWeekend(day int) bool {
	d := day % 7
	return d == 5 || d == 6
}

// Day returns person's schedule for the given day as contiguous segments
// covering [day*24, (day+1)*24), in a freshly allocated slice.
func (g *Generator) Day(person uint32, day int) []Segment {
	return g.AppendDay(nil, person, day)
}

// AppendDay appends person's schedule for the given day to dst and returns
// the extended slice, like Day but into caller-owned scratch: once dst has
// capacity for a day's segments it does not allocate, which is what the
// simulation's held day arenas need.
//
// Every day opens at the person's home: the first segment starts at
// day*24 with Place == Persons[person].Home, whatever the template. The
// simulation places each person at the start of a run by this rule
// alone, without generating their day.
func (g *Generator) AppendDay(dst []Segment, person uint32, day int) []Segment {
	p := &g.pop.Persons[person]
	base := uint32(day * HoursPerDay)

	homeType := g.pop.Places[p.Home].Type
	if homeType == synthpop.Prison || homeType == synthpop.RetirementHome {
		return append(dst, Segment{Start: base, Stop: base + HoursPerDay, Activity: ActInstitution, Place: p.Home})
	}
	// Children below school age have no independent schedule: they stay
	// home. Their weekly contacts are exactly their household, which is
	// one of the sources of the clustering-coefficient-1 population in
	// the paper's Figure 4.
	if p.Age < 5 {
		return append(dst, Segment{Start: base, Stop: base + HoursPerDay, Activity: ActHome, Place: p.Home})
	}

	r := g.dayRNG(person, day)
	first, segs := len(dst), dst
	add := func(stop uint32, act uint32, place uint32) {
		start := base
		if n := len(segs); n > first {
			start = segs[n-1].Stop
		}
		if stop <= start {
			return
		}
		// Merge with the previous segment when activity and place repeat,
		// mirroring the event-based logger's "log only changes" rule.
		if n := len(segs); n > first && segs[n-1].Activity == act && segs[n-1].Place == place {
			segs[n-1].Stop = stop
			return
		}
		segs = append(segs, Segment{Start: start, Stop: stop, Activity: act, Place: place})
	}
	retail := func() uint32 {
		neigh := g.pop.HomeNeighborhood(person)
		// Mostly local retail, occasionally a trip to another
		// neighborhood — the cross-neighborhood links of the network.
		if r.Bool(0.15) && g.pop.Neighborhoods() > 1 {
			neigh = r.Intn(g.pop.Neighborhoods())
		}
		list := g.pop.RetailByNeighborhood[neigh]
		return list[r.Intn(len(list))]
	}

	weekend := IsWeekend(day)
	daytimeType := synthpop.PlaceType(0xff)
	if p.Daytime != synthpop.NoPlace {
		daytimeType = g.pop.Places[p.Daytime].Type
	}

	switch {
	case daytimeType == synthpop.Classroom && !weekend:
		// School day: home, school, optional after-school trip, home.
		schoolStart := base + 8
		schoolEnd := base + 15
		if p.Age >= 15 {
			schoolEnd = base + 16
		}
		add(schoolStart, ActHome, p.Home)
		add(schoolEnd, ActSchool, p.Daytime)
		if r.Bool(0.35) {
			add(schoolEnd+1+uint32(r.Intn(2)), ActLeisure, retail())
		}
		add(base+HoursPerDay, ActHome, p.Home)

	case daytimeType == synthpop.University && !weekend:
		start := base + 9 + uint32(r.Intn(2))
		end := base + 15 + uint32(r.Intn(3))
		add(start, ActHome, p.Home)
		add(end, ActSchool, p.Daytime)
		if r.Bool(0.5) {
			add(end+1+uint32(r.Intn(3)), ActLeisure, retail())
		}
		add(base+HoursPerDay, ActHome, p.Home)

	case (daytimeType == synthpop.Workplace || daytimeType == synthpop.Hospital) && !weekend:
		start := base + 7 + uint32(r.Intn(3))
		end := start + 8 + uint32(r.Intn(2))
		add(start, ActHome, p.Home)
		add(end, ActWork, p.Daytime)
		if r.Bool(0.35) {
			add(end+1, ActShop, retail())
		}
		add(base+HoursPerDay, ActHome, p.Home)

	default:
		// Weekend for everyone, and weekdays for persons without a
		// daytime anchor: home with optional shopping and leisure trips.
		// Homebodies rarely go out at all; their weekly contacts reduce
		// to their household, which populates the low-degree head of the
		// network's degree distribution.
		homebody := g.IsHomebody(person)
		tripProb, maxTrips := 0.6, 2
		if homebody {
			tripProb, maxTrips = 0.15, 1
		}
		out := base + 10 + uint32(r.Intn(4))
		add(out, ActHome, p.Home)
		trips := 0
		if r.Bool(tripProb) {
			trips = 1 + r.Intn(maxTrips)
		}
		for k := 0; k < trips; k++ {
			// Homebodies mostly pay short visits to another household,
			// which adds only a handful of contacts; everyone else
			// mixes at retail.
			act, dest := ActShop, uint32(0)
			switch {
			case homebody && r.Bool(0.6):
				act, dest = ActLeisure, g.visitHome(person, &r)
			case r.Bool(0.4):
				act, dest = ActLeisure, retail()
			default:
				dest = retail()
			}
			stop := segs[len(segs)-1].Stop + 1 + uint32(r.Intn(3))
			if stop > base+22 {
				break
			}
			add(stop, act, dest)
			// Return home between trips for a spell.
			gap := segs[len(segs)-1].Stop + 1 + uint32(r.Intn(2))
			if gap > base+23 {
				gap = base + 23
			}
			add(gap, ActHome, p.Home)
		}
		add(base+HoursPerDay, ActHome, p.Home)
	}

	return segs
}

// Validate checks that segs tile [day*24, (day+1)*24) exactly. It is
// exported for tests and debugging tools.
func Validate(segs []Segment, day int) error {
	base := uint32(day * HoursPerDay)
	if len(segs) == 0 {
		return fmt.Errorf("schedule: empty day")
	}
	if segs[0].Start != base {
		return fmt.Errorf("schedule: day starts at %d, want %d", segs[0].Start, base)
	}
	for i, s := range segs {
		if s.Stop <= s.Start {
			return fmt.Errorf("schedule: segment %d empty or inverted: [%d,%d)", i, s.Start, s.Stop)
		}
		if i > 0 && s.Start != segs[i-1].Stop {
			return fmt.Errorf("schedule: gap between segments %d and %d", i-1, i)
		}
	}
	if last := segs[len(segs)-1].Stop; last != base+HoursPerDay {
		return fmt.Errorf("schedule: day ends at %d, want %d", last, base+HoursPerDay)
	}
	return nil
}

// PlaceAt returns the place and activity person occupies at the given
// absolute hour, resolving the day's schedule.
func (g *Generator) PlaceAt(person uint32, hour uint32) (place, activity uint32) {
	day := int(hour) / HoursPerDay
	for _, s := range g.Day(person, day) {
		if hour >= s.Start && hour < s.Stop {
			return s.Place, s.Activity
		}
	}
	// Unreachable for valid schedules; fall back to home.
	return g.pop.Persons[person].Home, ActHome
}

// MeanChangesPerDay estimates the average number of activity changes per
// person per day over a sample, the quantity the paper's log-sizing
// arithmetic uses (≈5/day).
func (g *Generator) MeanChangesPerDay(days int, sample int) float64 {
	if sample > g.pop.NumPersons() {
		sample = g.pop.NumPersons()
	}
	total := 0
	for p := 0; p < sample; p++ {
		for d := 0; d < days; d++ {
			total += len(g.Day(uint32(p), d))
		}
	}
	return float64(total) / float64(sample*days)
}
