// Package synthpop generates the synthetic urban population that stands
// in for chiSIM's census-derived Chicago input data (~2.9M persons, ~1.2M
// places in the paper).
//
// The generator reproduces the structural features the paper's network
// analysis attributes to the input data:
//
//   - Households of realistic size (persons:places ≈ 2.4:1 overall).
//   - Schools subdivided into capacity-capped classrooms, which constrain
//     the number of within-group connections for children — the paper's
//     explanation for the flat 0-14 degree distribution (Fig. 5).
//   - Heavy-tailed (Zipf) workplace sizes for adults.
//   - Institutional places — universities, prisons, retirement homes and
//     hospitals — that produce the outlying point groups the paper
//     observes in the 19-44 and 65+ degree distributions.
//   - Neighborhood locality: homes, schools and retail are grouped into
//     neighborhoods so that activity is spatially segregated, which is
//     what makes the collocation matrix sparse and the spatial
//     partitioning of places across ranks effective.
//
// Generation is fully deterministic given Config.Seed.
package synthpop

import (
	"fmt"

	"repro/internal/rng"
)

// PlaceType classifies a location.
type PlaceType uint8

// Place types. Classroom places have a parent School; all other types
// are top-level.
const (
	Home PlaceType = iota
	School
	Classroom
	Workplace
	University
	Prison
	RetirementHome
	Hospital
	Retail
	numPlaceTypes
)

var placeTypeNames = [...]string{
	"home", "school", "classroom", "workplace", "university",
	"prison", "retirement_home", "hospital", "retail",
}

func (t PlaceType) String() string {
	if int(t) < len(placeTypeNames) {
		return placeTypeNames[t]
	}
	return fmt.Sprintf("placetype(%d)", uint8(t))
}

// NoPlace marks an absent place reference.
const NoPlace = ^uint32(0)

// Place is one location agents can occupy.
type Place struct {
	ID           uint32
	Type         PlaceType
	Neighborhood uint16
	// Parent is the enclosing place for sub-compartments (classroom →
	// school), NoPlace otherwise.
	Parent uint32
}

// AgeGroup is the paper's Figure 5 demographic partition.
type AgeGroup uint8

// Age groups, matching the paper's disaggregation.
const (
	Age0_14 AgeGroup = iota
	Age15_18
	Age19_44
	Age45_64
	Age65Plus
	NumAgeGroups
)

var ageGroupNames = [...]string{"0-14", "15-18", "19-44", "45-64", "65+"}

func (g AgeGroup) String() string {
	if int(g) < len(ageGroupNames) {
		return ageGroupNames[g]
	}
	return fmt.Sprintf("agegroup(%d)", uint8(g))
}

// GroupOfAge maps an age in years to its AgeGroup.
func GroupOfAge(age int) AgeGroup {
	switch {
	case age <= 14:
		return Age0_14
	case age <= 18:
		return Age15_18
	case age <= 44:
		return Age19_44
	case age <= 64:
		return Age45_64
	default:
		return Age65Plus
	}
}

// Person is one agent.
type Person struct {
	ID  uint32
	Age uint8
	// Home is where the person sleeps: a Home place, or an institution
	// (Prison / RetirementHome) for institutionalized persons.
	Home uint32
	// Daytime is the person's weekday anchor: a Classroom for students,
	// a Workplace / University / Hospital for workers and students, or
	// NoPlace for persons with no fixed daytime location.
	Daytime uint32
}

// AgeGroup returns the person's demographic group.
func (p *Person) AgeGroup() AgeGroup { return GroupOfAge(int(p.Age)) }

// Config parameterizes generation.
type Config struct {
	// Persons is the population size. Must be positive.
	Persons int
	// Seed drives all randomness.
	Seed uint64
}

// Population is the generated synthetic population.
type Population struct {
	Persons []Person
	Places  []Place

	// RetailByNeighborhood lists retail place IDs per neighborhood, the
	// candidate set for shopping/leisure activities.
	RetailByNeighborhood [][]uint32

	cfg Config
}

// Chicago-like age pyramid over 0..89 summarized per group; within a
// group ages are uniform.
var agePyramid = []struct {
	lo, hi int
	weight float64
}{
	{0, 14, 0.19},
	{15, 18, 0.05},
	{19, 44, 0.42},
	{45, 64, 0.22},
	{65, 89, 0.12},
}

// Household size distribution (approximate US urban census shares).
var householdSizes = []float64{0.28, 0.31, 0.16, 0.14, 0.07, 0.04}

const (
	classroomCapacity     = 27  // primary school class size cap
	highSchoolClassCap    = 32  // high-school class size cap
	schoolClassrooms      = 20  // classrooms per school
	workplaceZipfExponent = 1.6 // heavy-tailed workplace sizes
	maxWorkplaceSize      = 400
	universityShare       = 0.06  // of 19-24 year olds ... applied to 19-44 below
	prisonShare           = 0.006 // of 19-44
	retirementShare       = 0.06  // of 65+
	hospitalStaffShare    = 0.012 // of workers
	retailPerNeighborhood = 12
	employmentRate        = 0.78
	localCommuteShare     = 0.7 // share of workers employed near home
)

// Generate builds a deterministic synthetic population.
func Generate(cfg Config) (*Population, error) {
	if cfg.Persons <= 0 {
		return nil, fmt.Errorf("synthpop: Persons must be positive, got %d", cfg.Persons)
	}
	r := rng.New(cfg.Seed)
	nNeigh := max(cfg.Persons/2000, 1) // one neighborhood per 2000 persons

	pop := &Population{cfg: cfg}

	newPlace := func(t PlaceType, neigh int, parent uint32) uint32 {
		id := uint32(len(pop.Places))
		pop.Places = append(pop.Places, Place{ID: id, Type: t, Neighborhood: uint16(neigh), Parent: parent})
		return id
	}

	// --- Persons with ages. ---
	ageWeights := make([]float64, len(agePyramid))
	for i, b := range agePyramid {
		ageWeights[i] = b.weight
	}
	ageCat := rng.NewCategorical(ageWeights)
	pop.Persons = make([]Person, cfg.Persons)
	for i := range pop.Persons {
		b := agePyramid[ageCat.Sample(r)]
		age := b.lo + r.Intn(b.hi-b.lo+1)
		pop.Persons[i] = Person{ID: uint32(i), Age: uint8(age), Home: NoPlace, Daytime: NoPlace}
	}

	// --- Institutions (fixed small counts scaled by population). ---
	scale := func(per int) int {
		n := cfg.Persons / per
		if n < 1 {
			n = 1
		}
		return n
	}
	universities := make([]uint32, 0, scale(100000))
	for i := 0; i < scale(100000); i++ {
		universities = append(universities, newPlace(University, r.Intn(nNeigh), NoPlace))
	}
	prisons := make([]uint32, 0, scale(150000))
	for i := 0; i < scale(150000); i++ {
		prisons = append(prisons, newPlace(Prison, r.Intn(nNeigh), NoPlace))
	}
	retirementHomes := make([]uint32, 0, scale(30000))
	for i := 0; i < scale(30000); i++ {
		retirementHomes = append(retirementHomes, newPlace(RetirementHome, r.Intn(nNeigh), NoPlace))
	}
	hospitals := make([]uint32, 0, scale(60000))
	for i := 0; i < scale(60000); i++ {
		hospitals = append(hospitals, newPlace(Hospital, r.Intn(nNeigh), NoPlace))
	}

	// --- Retail per neighborhood. ---
	pop.RetailByNeighborhood = make([][]uint32, nNeigh)
	for n := 0; n < nNeigh; n++ {
		for k := 0; k < retailPerNeighborhood; k++ {
			pop.RetailByNeighborhood[n] = append(pop.RetailByNeighborhood[n], newPlace(Retail, n, NoPlace))
		}
	}

	// --- Households. ---
	// Institutionalized persons first: a share of 19-44 to prison, a
	// share of 65+ to retirement homes; they "live" at the institution.
	sizeCat := rng.NewCategorical(householdSizes)
	var free []int // persons not yet housed
	for i := range pop.Persons {
		p := &pop.Persons[i]
		switch p.AgeGroup() {
		case Age19_44:
			if r.Bool(prisonShare) {
				p.Home = prisons[r.Intn(len(prisons))]
				continue
			}
		case Age65Plus:
			if r.Bool(retirementShare) {
				p.Home = retirementHomes[r.Intn(len(retirementHomes))]
				continue
			}
		}
		free = append(free, i)
	}
	// Shuffle the free list so households mix ages, then cut into
	// households of sampled sizes. A household needs at least one adult;
	// we enforce that by seeding each household with an adult when
	// possible.
	var adults, minors []int
	for _, i := range free {
		if pop.Persons[i].Age >= 19 {
			adults = append(adults, i)
		} else {
			minors = append(minors, i)
		}
	}
	r.Shuffle(len(adults), func(i, j int) { adults[i], adults[j] = adults[j], adults[i] })
	r.Shuffle(len(minors), func(i, j int) { minors[i], minors[j] = minors[j], minors[i] })
	ai, mi := 0, 0
	for ai < len(adults) || mi < len(minors) {
		want := sizeCat.Sample(r) + 1
		neigh := r.Intn(nNeigh)
		home := newPlace(Home, neigh, NoPlace)
		placed := 0
		// First member is an adult when any remain, so minors are not
		// stranded in adultless households (until adults run out).
		if ai < len(adults) {
			pop.Persons[adults[ai]].Home = home
			ai++
			placed++
		}
		for placed < want && (ai < len(adults) || mi < len(minors)) {
			// Fill remaining slots with a mix biased toward minors for
			// larger households.
			takeMinor := mi < len(minors) && (ai >= len(adults) || r.Bool(0.45))
			if takeMinor {
				pop.Persons[minors[mi]].Home = home
				mi++
			} else {
				pop.Persons[adults[ai]].Home = home
				ai++
			}
			placed++
		}
	}

	// --- Schools and classrooms, per neighborhood. ---
	// Partition minors by neighborhood of their home, then fill
	// classrooms with a hard capacity cap.
	minorsByNeigh := make([][]int, nNeigh)
	teensByNeigh := make([][]int, nNeigh)
	for i := range pop.Persons {
		p := &pop.Persons[i]
		if p.Home == NoPlace {
			continue
		}
		neigh := int(pop.Places[p.Home].Neighborhood)
		switch {
		case p.Age >= 5 && p.Age <= 14:
			minorsByNeigh[neigh] = append(minorsByNeigh[neigh], i)
		case p.Age >= 15 && p.Age <= 18:
			teensByNeigh[neigh] = append(teensByNeigh[neigh], i)
		}
	}
	assignClassrooms := func(students []int, neigh, cap int) {
		var school uint32 = NoPlace
		roomsInSchool := 0
		var room uint32 = NoPlace
		inRoom := 0
		for _, i := range students {
			if room == NoPlace || inRoom >= cap {
				if school == NoPlace || roomsInSchool >= schoolClassrooms {
					school = newPlace(School, neigh, NoPlace)
					roomsInSchool = 0
				}
				room = newPlace(Classroom, neigh, school)
				roomsInSchool++
				inRoom = 0
			}
			pop.Persons[i].Daytime = room
			inRoom++
		}
	}
	for n := 0; n < nNeigh; n++ {
		assignClassrooms(minorsByNeigh[n], n, classroomCapacity)
		assignClassrooms(teensByNeigh[n], n, highSchoolClassCap)
	}

	// --- University students. ---
	for i := range pop.Persons {
		p := &pop.Persons[i]
		if p.AgeGroup() == Age19_44 && p.Age <= 24 && p.Daytime == NoPlace &&
			pop.Places[p.Home].Type == Home && r.Bool(universityShare*4) {
			p.Daytime = universities[r.Intn(len(universities))]
		}
	}

	// --- Workplaces with Zipf sizes. ---
	var workers []int
	for i := range pop.Persons {
		p := &pop.Persons[i]
		if p.Age >= 19 && p.Age <= 64 && p.Daytime == NoPlace &&
			pop.Places[p.Home].Type == Home && r.Bool(employmentRate) {
			workers = append(workers, i)
		}
	}
	r.Shuffle(len(workers), func(i, j int) { workers[i], workers[j] = workers[j], workers[i] })
	// Hospital staff come off the top of the worker pool.
	nStaff := int(float64(len(workers)) * hospitalStaffShare)
	for k := 0; k < nStaff; k++ {
		pop.Persons[workers[k]].Daytime = hospitals[k%len(hospitals)]
	}
	workers = workers[nStaff:]
	// Commuting is distance-biased: most workers hold jobs near home.
	// Local workers fill workplaces in their home neighborhood; the rest
	// commute to workplaces in arbitrary neighborhoods ("downtown").
	localPool := make([][]int, nNeigh)
	var commuters []int
	for _, i := range workers {
		if r.Bool(localCommuteShare) {
			n := int(pop.Places[pop.Persons[i].Home].Neighborhood)
			localPool[n] = append(localPool[n], i)
		} else {
			commuters = append(commuters, i)
		}
	}
	sizeZipf := rng.NewZipf(workplaceZipfExponent, maxWorkplaceSize)
	fill := func(pool []int, neigh int) {
		w := 0
		for w < len(pool) {
			size := sizeZipf.Sample(r)
			if size > len(pool)-w {
				size = len(pool) - w
			}
			wp := newPlace(Workplace, neigh, NoPlace)
			for k := 0; k < size; k++ {
				pop.Persons[pool[w]].Daytime = wp
				w++
			}
		}
	}
	for n := 0; n < nNeigh; n++ {
		fill(localPool[n], n)
	}
	// Commuter workplaces land in random neighborhoods; chunk the pool
	// so each workplace gets its own neighborhood draw.
	w := 0
	for w < len(commuters) {
		size := sizeZipf.Sample(r)
		if size > len(commuters)-w {
			size = len(commuters) - w
		}
		wp := newPlace(Workplace, r.Intn(nNeigh), NoPlace)
		for k := 0; k < size; k++ {
			pop.Persons[commuters[w]].Daytime = wp
			w++
		}
	}

	return pop, nil
}

// NumPersons returns the population size.
func (p *Population) NumPersons() int { return len(p.Persons) }

// NumPlaces returns the number of generated places.
func (p *Population) NumPlaces() int { return len(p.Places) }

// Neighborhoods returns the neighborhood count.
func (p *Population) Neighborhoods() int { return len(p.RetailByNeighborhood) }

// PlaceTypeCounts returns how many places exist of each type.
func (p *Population) PlaceTypeCounts() map[PlaceType]int {
	m := make(map[PlaceType]int, int(numPlaceTypes))
	for _, pl := range p.Places {
		m[pl.Type]++
	}
	return m
}

// AgeGroupCounts returns the population per age group.
func (p *Population) AgeGroupCounts() [NumAgeGroups]int {
	var out [NumAgeGroups]int
	for i := range p.Persons {
		out[p.Persons[i].AgeGroup()]++
	}
	return out
}

// AgeGroups returns each person's group indexed by person ID, the input
// to the Figure 5 disaggregation.
func (p *Population) AgeGroups() []AgeGroup {
	out := make([]AgeGroup, len(p.Persons))
	for i := range p.Persons {
		out[i] = p.Persons[i].AgeGroup()
	}
	return out
}

// HomeNeighborhood returns the neighborhood of the person's home (or
// institution).
func (p *Population) HomeNeighborhood(person uint32) int {
	return int(p.Places[p.Persons[person].Home].Neighborhood)
}
