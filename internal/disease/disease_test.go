package disease

import (
	"context"
	"testing"

	"repro/internal/abm"
	"repro/internal/schedule"
	"repro/internal/synthpop"
)

func epidemicWorld(t testing.TB, persons int) (*synthpop.Population, *schedule.Generator) {
	t.Helper()
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return pop, schedule.NewGenerator(pop, 8)
}

func defaultCfg() Config {
	return Config{Beta: 0.03, IncubationHours: 24, InfectiousHours: 72, Seed: 99}
}

func runEpidemic(t testing.TB, pop *synthpop.Population, gen *schedule.Generator, ranks, days int, cfg Config, seeds ...uint32) *Model {
	t.Helper()
	m := New(pop.NumPersons(), cfg)
	for _, s := range seeds {
		m.SeedCase(s)
	}
	_, err := abm.Run(context.Background(), abm.Config{
		Pop: pop, Gen: gen, Ranks: ranks, Days: days, Interact: m.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEpidemicSpreads(t *testing.T) {
	pop, gen := epidemicWorld(t, 2000)
	m := runEpidemic(t, pop, gen, 4, 7, defaultCfg(), 0, 1, 2)
	if m.TotalInfections() <= 3 {
		t.Fatalf("epidemic did not spread beyond %d index cases", m.TotalInfections())
	}
	s, e, i, r := m.Counts()
	if s+e+i+r != pop.NumPersons() {
		t.Fatalf("compartments sum to %d, want %d", s+e+i+r, pop.NumPersons())
	}
}

func TestNoSeedNoEpidemic(t *testing.T) {
	pop, gen := epidemicWorld(t, 500)
	m := runEpidemic(t, pop, gen, 2, 3, defaultCfg())
	if m.TotalInfections() != 0 {
		t.Fatalf("%d infections with no index case", m.TotalInfections())
	}
	s, _, _, _ := m.Counts()
	if s != pop.NumPersons() {
		t.Fatal("someone left susceptible state without a seed")
	}
}

func TestZeroBetaOnlySeedsInfected(t *testing.T) {
	pop, gen := epidemicWorld(t, 500)
	cfg := defaultCfg()
	cfg.Beta = 0
	m := runEpidemic(t, pop, gen, 2, 3, cfg, 7)
	if m.TotalInfections() != 1 {
		t.Fatalf("beta=0 produced %d infections", m.TotalInfections())
	}
}

func TestDeterministicAcrossRankCounts(t *testing.T) {
	pop, gen := epidemicWorld(t, 1200)
	m1 := runEpidemic(t, pop, gen, 1, 5, defaultCfg(), 0)
	m4 := runEpidemic(t, pop, gen, 4, 5, defaultCfg(), 0)
	if m1.TotalInfections() != m4.TotalInfections() {
		t.Fatalf("infections differ across rank counts: %d vs %d",
			m1.TotalInfections(), m4.TotalInfections())
	}
	for p := uint32(0); p < uint32(pop.NumPersons()); p++ {
		if m1.State(p) != m4.State(p) {
			t.Fatalf("person %d state differs: %v vs %v", p, m1.State(p), m4.State(p))
		}
		if m1.Infector(p) != m4.Infector(p) {
			t.Fatalf("person %d infector differs: %d vs %d", p, m1.Infector(p), m4.Infector(p))
		}
	}
}

func TestProgressionSEIR(t *testing.T) {
	pop, gen := epidemicWorld(t, 1500)
	cfg := defaultCfg()
	cfg.Beta = 0.08
	// Long run: the index cases must have recovered.
	m := runEpidemic(t, pop, gen, 2, 14, cfg, 0)
	if m.State(0) != Recovered {
		t.Fatalf("index case state after 14 days = %v, want R", m.State(0))
	}
	// Everyone infected must have a consistent infector chain.
	for p := uint32(0); p < uint32(pop.NumPersons()); p++ {
		if m.State(p) == Susceptible {
			if m.Infector(p) != NoInfector {
				t.Fatalf("susceptible person %d has infector %d", p, m.Infector(p))
			}
			continue
		}
		if inf := m.Infector(p); inf != NoInfector {
			// The infector must have been exposed strictly earlier.
			if m.ExposedAt(uint32(inf)) > m.ExposedAt(p) {
				t.Fatalf("person %d exposed at %d by %d exposed at %d",
					p, m.ExposedAt(p), inf, m.ExposedAt(uint32(inf)))
			}
		}
	}
}

func TestTraceBackReachesPatientZero(t *testing.T) {
	pop, gen := epidemicWorld(t, 2000)
	cfg := defaultCfg()
	cfg.Beta = 0.08
	m := runEpidemic(t, pop, gen, 4, 10, cfg, 42)
	traced := 0
	for p := uint32(0); p < uint32(pop.NumPersons()); p++ {
		if m.State(p) == Susceptible || p == 42 {
			continue
		}
		chain := m.TraceBack(p)
		if chain == nil {
			t.Fatalf("infected person %d has no chain", p)
		}
		if chain[0] != p {
			t.Fatalf("chain starts at %d, want %d", chain[0], p)
		}
		if chain[len(chain)-1] != 42 {
			t.Fatalf("chain for %d ends at %d, want patient zero 42 (chain %v)", p, chain[len(chain)-1], chain)
		}
		traced++
	}
	if traced == 0 {
		t.Fatal("epidemic too small to exercise trace-back")
	}
}

func TestTraceBackOfSusceptibleIsNil(t *testing.T) {
	m := New(10, defaultCfg())
	if m.TraceBack(3) != nil {
		t.Fatal("susceptible trace-back should be nil")
	}
}

func TestTraceBackOfIndexCase(t *testing.T) {
	m := New(10, defaultCfg())
	m.SeedCase(5)
	chain := m.TraceBack(5)
	if len(chain) != 1 || chain[0] != 5 {
		t.Fatalf("index chain = %v", chain)
	}
}

func TestEpidemicCurveSumsToInfections(t *testing.T) {
	pop, gen := epidemicWorld(t, 1500)
	cfg := defaultCfg()
	cfg.Beta = 0.05
	const days = 7
	m := runEpidemic(t, pop, gen, 2, days, cfg, 0, 1)
	curve := m.EpidemicCurve(days)
	total := 0
	for _, c := range curve {
		total += c
	}
	if int64(total) != m.TotalInfections() {
		t.Fatalf("curve sums to %d, infections %d", total, m.TotalInfections())
	}
	if curve[0] < 2 {
		t.Fatalf("day 0 should include the 2 index cases, got %d", curve[0])
	}
}

func TestHigherBetaInfectsMore(t *testing.T) {
	pop, gen := epidemicWorld(t, 1500)
	low := defaultCfg()
	low.Beta = 0.005
	high := defaultCfg()
	high.Beta = 0.1
	ml := runEpidemic(t, pop, gen, 2, 7, low, 0)
	mh := runEpidemic(t, pop, gen, 2, 7, high, 0)
	if mh.TotalInfections() <= ml.TotalInfections() {
		t.Fatalf("beta 0.1 infected %d, beta 0.005 infected %d",
			mh.TotalInfections(), ml.TotalInfections())
	}
}

func TestStateStrings(t *testing.T) {
	if Susceptible.String() != "S" || Exposed.String() != "E" ||
		Infectious.String() != "I" || Recovered.String() != "R" {
		t.Fatal("state strings wrong")
	}
}

func BenchmarkEpidemicWeek(b *testing.B) {
	pop, err := synthpop.Generate(synthpop.Config{Persons: 3000, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(pop.NumPersons(), defaultCfg())
		m.SeedCase(0)
		if _, err := abm.Run(context.Background(), abm.Config{Pop: pop, Gen: gen, Ranks: 4, Days: 7, Interact: m.Hook()}); err != nil {
			b.Fatal(err)
		}
	}
}
