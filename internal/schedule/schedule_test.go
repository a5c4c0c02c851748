package schedule

import (
	"testing"
	"testing/quick"

	"repro/internal/synthpop"
)

func testPop(t testing.TB, persons int) *synthpop.Population {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestEveryDayTilesExactly(t *testing.T) {
	pop := testPop(t, 3000)
	g := NewGenerator(pop, 1)
	for p := uint32(0); p < uint32(pop.NumPersons()); p += 7 {
		for day := 0; day < 7; day++ {
			segs := g.Day(p, day)
			if err := Validate(segs, day); err != nil {
				t.Fatalf("person %d day %d: %v (segments %+v)", p, day, err, segs)
			}
		}
	}
}

// TestEveryDayOpensAtHome pins the guarantee in AppendDay's doc comment
// that the simulation's start-up relies on: it claims a person for the
// rank that owns their home without generating their day 0. Every
// person of two seeded populations (each covering children under five
// and prison and retirement-home residents), every day of two weeks.
func TestEveryDayOpensAtHome(t *testing.T) {
	for _, seed := range []uint64{5, 2017} {
		pop, err := synthpop.Generate(synthpop.Config{Persons: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(pop, seed)
		var young, prison, retired int
		var segs []Segment
		for i := range pop.Persons {
			p := &pop.Persons[i]
			switch {
			case pop.Places[p.Home].Type == synthpop.Prison:
				prison++
			case pop.Places[p.Home].Type == synthpop.RetirementHome:
				retired++
			case p.Age < 5:
				young++
			}
			for day := 0; day < 14; day++ {
				segs = g.AppendDay(segs[:0], uint32(i), day)
				if first := segs[0]; first.Start != uint32(day*HoursPerDay) || first.Place != p.Home {
					t.Fatalf("seed %d person %d day %d opens with %+v, want Start %d at home %d",
						seed, i, day, first, day*HoursPerDay, p.Home)
				}
			}
		}
		if young == 0 || prison == 0 || retired == 0 {
			t.Fatalf("seed %d: population has %d children under five, %d prisoners, %d retirement-home residents; want some of each",
				seed, young, prison, retired)
		}
	}
}

func TestScheduleDeterministicPerPersonDay(t *testing.T) {
	pop := testPop(t, 1000)
	g1 := NewGenerator(pop, 5)
	g2 := NewGenerator(pop, 5)
	for p := uint32(0); p < 200; p++ {
		a := g1.Day(p, 3)
		b := g2.Day(p, 3)
		if len(a) != len(b) {
			t.Fatalf("person %d: lengths differ", p)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("person %d segment %d: %+v vs %+v", p, i, a[i], b[i])
			}
		}
	}
}

func TestScheduleIndependentOfQueryOrder(t *testing.T) {
	pop := testPop(t, 500)
	g := NewGenerator(pop, 5)
	// Query day 4 then day 2, compare with fresh generator querying in
	// the opposite order: schedules must not depend on call history.
	a4 := g.Day(10, 4)
	a2 := g.Day(10, 2)
	h := NewGenerator(pop, 5)
	b2 := h.Day(10, 2)
	b4 := h.Day(10, 4)
	for i := range a4 {
		if a4[i] != b4[i] {
			t.Fatal("day 4 schedule depends on query order")
		}
	}
	for i := range a2 {
		if a2[i] != b2[i] {
			t.Fatal("day 2 schedule depends on query order")
		}
	}
}

func TestSeedChangesSchedules(t *testing.T) {
	pop := testPop(t, 1000)
	g1 := NewGenerator(pop, 1)
	g2 := NewGenerator(pop, 2)
	diff := false
	for p := uint32(0); p < 300 && !diff; p++ {
		a, b := g1.Day(p, 0), g2.Day(p, 0)
		if len(a) != len(b) {
			diff = true
			break
		}
		for i := range a {
			if a[i] != b[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("seeds 1 and 2 produced identical schedules for 300 persons")
	}
}

func TestChildrenAttendTheirClassroomOnWeekdays(t *testing.T) {
	pop := testPop(t, 5000)
	g := NewGenerator(pop, 7)
	checked := 0
	for i := range pop.Persons {
		p := &pop.Persons[i]
		if p.Daytime == synthpop.NoPlace || pop.Places[p.Daytime].Type != synthpop.Classroom {
			continue
		}
		segs := g.Day(p.ID, 1) // Tuesday
		foundSchool := false
		for _, s := range segs {
			if s.Activity == ActSchool {
				foundSchool = true
				if s.Place != p.Daytime {
					t.Fatalf("person %d attends classroom %d, assigned %d", i, s.Place, p.Daytime)
				}
			}
		}
		if !foundSchool {
			t.Fatalf("school-age person %d has no school segment on a weekday", i)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no students checked")
	}
}

func TestNoSchoolOrWorkOnWeekends(t *testing.T) {
	pop := testPop(t, 5000)
	g := NewGenerator(pop, 7)
	for p := uint32(0); p < uint32(pop.NumPersons()); p += 3 {
		for _, day := range []int{5, 6} { // Saturday, Sunday
			for _, s := range g.Day(p, day) {
				if s.Activity == ActSchool || s.Activity == ActWork {
					t.Fatalf("person %d has %s on weekend day %d", p, ActivityName(s.Activity), day)
				}
			}
		}
	}
}

func TestInstitutionalizedStayAllDay(t *testing.T) {
	pop := testPop(t, 100000)
	g := NewGenerator(pop, 7)
	found := false
	for i := range pop.Persons {
		p := &pop.Persons[i]
		ht := pop.Places[p.Home].Type
		if ht != synthpop.Prison && ht != synthpop.RetirementHome {
			continue
		}
		found = true
		segs := g.Day(p.ID, 2)
		if len(segs) != 1 || segs[0].Activity != ActInstitution || segs[0].Place != p.Home {
			t.Fatalf("institutionalized person %d schedule: %+v", i, segs)
		}
	}
	if !found {
		t.Fatal("no institutionalized persons in test population")
	}
}

func TestWorkersWorkAtTheirWorkplace(t *testing.T) {
	pop := testPop(t, 5000)
	g := NewGenerator(pop, 7)
	workers := 0
	withWork := 0
	for i := range pop.Persons {
		p := &pop.Persons[i]
		if p.Daytime == synthpop.NoPlace {
			continue
		}
		dt := pop.Places[p.Daytime].Type
		if dt != synthpop.Workplace && dt != synthpop.Hospital {
			continue
		}
		workers++
		for _, s := range g.Day(p.ID, 0) {
			if s.Activity == ActWork {
				withWork++
				if s.Place != p.Daytime {
					t.Fatalf("worker %d works at %d, assigned %d", i, s.Place, p.Daytime)
				}
				break
			}
		}
	}
	if workers == 0 || withWork != workers {
		t.Fatalf("%d of %d workers have a weekday work segment", withWork, workers)
	}
}

func TestMeanChangesPerDayNearFive(t *testing.T) {
	pop := testPop(t, 20000)
	g := NewGenerator(pop, 7)
	mean := g.MeanChangesPerDay(7, 2000)
	// Paper assumes ~5 activity changes per person per day.
	if mean < 2.5 || mean > 7 {
		t.Fatalf("mean changes/day = %.2f, want roughly 5", mean)
	}
}

func TestPlaceAtConsistentWithDay(t *testing.T) {
	pop := testPop(t, 2000)
	g := NewGenerator(pop, 13)
	for p := uint32(0); p < 100; p++ {
		for day := 0; day < 3; day++ {
			segs := g.Day(p, day)
			for _, s := range segs {
				for h := s.Start; h < s.Stop; h++ {
					place, act := g.PlaceAt(p, h)
					if place != s.Place || act != s.Activity {
						t.Fatalf("PlaceAt(%d,%d) = (%d,%d), want (%d,%d)", p, h, place, act, s.Place, s.Activity)
					}
				}
			}
		}
	}
}

func TestSegmentsNeverRepeatPlaceActivity(t *testing.T) {
	// Adjacent segments with the same (activity, place) should have been
	// merged — that is what event-based logging requires.
	pop := testPop(t, 3000)
	g := NewGenerator(pop, 17)
	for p := uint32(0); p < uint32(pop.NumPersons()); p += 5 {
		for day := 0; day < 7; day++ {
			segs := g.Day(p, day)
			for i := 1; i < len(segs); i++ {
				if segs[i].Activity == segs[i-1].Activity && segs[i].Place == segs[i-1].Place {
					t.Fatalf("person %d day %d: unmerged adjacent segments %+v", p, day, segs)
				}
			}
		}
	}
}

func TestIsWeekend(t *testing.T) {
	for day, want := range map[int]bool{0: false, 4: false, 5: true, 6: true, 7: false, 12: true, 13: true} {
		if IsWeekend(day) != want {
			t.Errorf("IsWeekend(%d) = %v", day, IsWeekend(day))
		}
	}
}

func TestActivityName(t *testing.T) {
	if ActivityName(ActHome) != "home" || ActivityName(ActWork) != "work" {
		t.Fatal("activity names wrong")
	}
	if ActivityName(999) == "" {
		t.Fatal("unknown activity should format, not vanish")
	}
}

// Property: schedules tile the day for arbitrary seeds, persons and days.
func TestQuickTiling(t *testing.T) {
	pop := testPop(t, 2000)
	f := func(seed uint64, person uint16, day uint8) bool {
		g := NewGenerator(pop, seed)
		p := uint32(person) % uint32(pop.NumPersons())
		d := int(day % 28)
		return Validate(g.Day(p, d), d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: all referenced places exist and all activities are known.
func TestQuickPlacesAndActivitiesValid(t *testing.T) {
	pop := testPop(t, 2000)
	g := NewGenerator(pop, 23)
	f := func(person uint16, day uint8) bool {
		p := uint32(person) % uint32(pop.NumPersons())
		for _, s := range g.Day(p, int(day%14)) {
			if int(s.Place) >= pop.NumPlaces() || s.Activity >= NumActivities {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// AppendDay is Day into caller scratch: the same segments, placed after
// whatever dst already holds (the merge rule must not reach back into
// it), and no allocation once the scratch has grown to a day's size.
func TestAppendDayMatchesDayWithoutAllocating(t *testing.T) {
	pop := testPop(t, 2000)
	g := NewGenerator(pop, 29)
	var scratch []Segment
	for p := 0; p < pop.NumPersons(); p++ {
		for d := 0; d < 8; d++ {
			want := g.Day(uint32(p), d)
			// Seed dst with the segment most likely to be merged into: the
			// person at home.
			scratch = append(scratch[:0], Segment{Stop: uint32(d * HoursPerDay), Activity: ActHome, Place: pop.Persons[p].Home})
			scratch = g.AppendDay(scratch, uint32(p), d)
			if len(scratch) != len(want)+1 || scratch[0].Start != 0 || scratch[0].Stop != uint32(d*HoursPerDay) {
				t.Fatalf("person %d day %d: AppendDay touched dst's prefix: %+v", p, d, scratch)
			}
			for i, s := range want {
				if scratch[i+1] != s {
					t.Fatalf("person %d day %d segment %d: %+v, Day gives %+v", p, d, i, scratch[i+1], s)
				}
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		scratch = g.AppendDay(scratch[:0], uint32(i%pop.NumPersons()), i%28)
		i++
	})
	if allocs != 0 {
		t.Fatalf("AppendDay into warm scratch: %v allocs/call, want 0", allocs)
	}
}

func BenchmarkDay(b *testing.B) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(pop, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Day(uint32(i%10000), i%28)
	}
}

func BenchmarkAppendDay(b *testing.B) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(pop, 1)
	var scratch []Segment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = g.AppendDay(scratch[:0], uint32(i%10000), i%28)
	}
}
