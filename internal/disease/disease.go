// Package disease implements an SEIR infectious-disease process running
// on top of the ABM's collocation structure — the application chiSIM was
// generalized from ("an extension of an infectious disease transmission
// model"). It also provides the patient-zero trace-back the paper gives
// as the motivating use of agent event logs: reconstructing who infected
// whom back to the agent who initiated the outbreak.
//
// The model plugs into abm.Run as an InteractFunc. Transmission draws
// are derived deterministically from (seed, hour, place, person), so an
// epidemic is bit-reproducible regardless of rank count or place
// assignment — the same property the logging pipeline relies on.
// Interact callbacks run concurrently across ranks, but any person
// occupies exactly one place per hour, so per-person state is touched by
// exactly one goroutine per hour.
//
// Spread over a static, already synthesized contact network is not
// modelled here: that is internal/scenario's one process kernel
// (scenario.Point.Run), which experiment E5 runs too. The hook stays a
// separate model because its draws are keyed per person and it runs
// concurrently across ranks, where the kernel's lazily filled
// per-weight probability table would need a lock.
package disease

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/abm"
	"repro/internal/rng"
)

// State is a person's SEIR compartment.
type State uint8

// SEIR compartments.
const (
	Susceptible State = iota
	Exposed
	Infectious
	Recovered
)

func (s State) String() string {
	switch s {
	case Susceptible:
		return "S"
	case Exposed:
		return "E"
	case Infectious:
		return "I"
	case Recovered:
		return "R"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// NoInfector marks a person with no recorded infector (never infected,
// or an index case).
const NoInfector = int32(-1)

// Config parameterizes the epidemic.
type Config struct {
	// Beta is the per-infectious-contact-hour transmission probability.
	Beta float64
	// IncubationHours is the E→I delay.
	IncubationHours uint32
	// InfectiousHours is the I→R duration.
	InfectiousHours uint32
	// Seed drives all transmission draws.
	Seed uint64
}

// Model is the epidemic state for a population.
type Model struct {
	cfg Config

	state      []State
	exposedAt  []uint32
	infector   []int32
	infections atomic.Int64
}

// New creates a model with everyone susceptible.
func New(numPersons int, cfg Config) *Model {
	m := &Model{
		cfg:       cfg,
		state:     make([]State, numPersons),
		exposedAt: make([]uint32, numPersons),
		infector:  make([]int32, numPersons),
	}
	for i := range m.infector {
		m.infector[i] = NoInfector
	}
	return m
}

// SeedCase makes person an index case: immediately infectious at hour 0
// with no recorded infector.
func (m *Model) SeedCase(person uint32) {
	m.state[person] = Infectious
	m.exposedAt[person] = 0
	m.infections.Add(1)
}

// drawRNG derives a deterministic stream for (hour, place, person).
// Keying draws by person makes transmission independent of the order in
// which occupants are listed, which varies with rank layout.
func (m *Model) drawRNG(hour, place, person uint32) *rng.Source {
	h := m.cfg.Seed
	h ^= uint64(hour) * 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= uint64(place) * 0x94d049bb133111eb
	h = (h ^ (h >> 27)) * 0xff51afd7ed558ccd
	h ^= uint64(person) * 0xd6e8feb86659fd93
	h = (h ^ (h >> 29)) * 0x9e3779b97f4a7c15
	return rng.New(h ^ (h >> 31))
}

// Hook returns the InteractFunc to pass to abm.Run.
func (m *Model) Hook() abm.InteractFunc {
	return func(_ int, hour uint32, place uint32, occupants []uint32) {
		// Progress compartments first: each person is seen exactly once
		// per hour, so their clock advances exactly once per hour.
		var infectious []uint32
		for _, p := range occupants {
			switch m.state[p] {
			case Exposed:
				if hour-m.exposedAt[p] >= m.cfg.IncubationHours {
					m.state[p] = Infectious
				}
			case Infectious:
				if hour-m.exposedAt[p] >= m.cfg.IncubationHours+m.cfg.InfectiousHours {
					m.state[p] = Recovered
				}
			}
			if m.state[p] == Infectious {
				infectious = append(infectious, p)
			}
		}
		if len(infectious) == 0 {
			return
		}
		sort.Slice(infectious, func(a, b int) bool { return infectious[a] < infectious[b] })
		// Per-contact-hour transmission: each susceptible occupant
		// escapes all infectious contacts independently.
		pInfect := 1 - math.Pow(1-m.cfg.Beta, float64(len(infectious)))
		for _, p := range occupants {
			if m.state[p] != Susceptible {
				continue
			}
			r := m.drawRNG(hour, place, p)
			if !r.Bool(pInfect) {
				continue
			}
			m.state[p] = Exposed
			m.exposedAt[p] = hour
			m.infector[p] = int32(infectious[r.Intn(len(infectious))])
			m.infections.Add(1)
		}
	}
}

// State returns person's current compartment.
func (m *Model) State(person uint32) State { return m.state[person] }

// ExposedAt returns the hour person was exposed (meaningful only when
// State != Susceptible).
func (m *Model) ExposedAt(person uint32) uint32 { return m.exposedAt[person] }

// Infector returns who infected person, or NoInfector.
func (m *Model) Infector(person uint32) int32 { return m.infector[person] }

// TotalInfections returns how many persons have ever been infected
// (including index cases).
func (m *Model) TotalInfections() int64 { return m.infections.Load() }

// Counts returns the current compartment sizes.
func (m *Model) Counts() (s, e, i, r int) {
	for _, st := range m.state {
		switch st {
		case Susceptible:
			s++
		case Exposed:
			e++
		case Infectious:
			i++
		case Recovered:
			r++
		}
	}
	return
}

// TraceBack follows the infection chain from person to the index case,
// returning the chain starting with person and ending at patient zero —
// the paper's "trace back to patient zero" log application. It returns
// nil if person was never infected.
func (m *Model) TraceBack(person uint32) []uint32 {
	if m.state[person] == Susceptible {
		return nil
	}
	chain := []uint32{person}
	seen := map[uint32]bool{person: true}
	for {
		next := m.infector[chain[len(chain)-1]]
		if next == NoInfector {
			return chain
		}
		p := uint32(next)
		if seen[p] {
			// Defensive: infection chains are acyclic by construction
			// (infectors predate infectees), but never loop forever.
			return chain
		}
		seen[p] = true
		chain = append(chain, p)
	}
}

// EpidemicCurve bins infections by day, returning new infections per day
// over the given horizon.
func (m *Model) EpidemicCurve(days int) []int {
	out := make([]int, days)
	for p, st := range m.state {
		if st == Susceptible {
			continue
		}
		d := int(m.exposedAt[p]) / 24 // index cases land on day 0
		if d < days {
			out[d]++
		}
	}
	return out
}
