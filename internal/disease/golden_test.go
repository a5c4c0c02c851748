package disease

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/abm"
	"repro/internal/schedule"
	"repro/internal/synthpop"
)

// goldenOutcome is the sha256 of every person's (State u8, ExposedAt u32,
// Infector i32), little-endian and in person order, after a hooked
// abm.Run of 2 000 persons over 7 days: population, schedule and
// transmission seed 2017, three index cases, β 0.03, 24 h incubation,
// 72 h infectious. The outcome does not depend on the rank count, so
// one digest serves 1 and 2 ranks. A change to the occupancy the hook
// sees, to its visiting order's effect, to the draws or to the
// compartment timers moves it. Recorded at commit 0a1ef2a (1 718
// infections).
const goldenOutcome = "605cdd36417bd9a7a2e778401a4bc0935345227221fcadcca9a10679c27ed522"

func outcomeDigest(m *Model, persons int) string {
	h := sha256.New()
	var rec [9]byte
	for p := uint32(0); p < uint32(persons); p++ {
		rec[0] = byte(m.State(p))
		binary.LittleEndian.PutUint32(rec[1:], m.ExposedAt(p))
		binary.LittleEndian.PutUint32(rec[5:], uint32(m.Infector(p)))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenOutcome(t *testing.T) {
	const persons, days = 2000, 7
	pop, err := synthpop.Generate(synthpop.Config{Persons: persons, Seed: 2017})
	if err != nil {
		t.Fatal(err)
	}
	gen := schedule.NewGenerator(pop, 2017)
	for _, ranks := range []int{1, 2} {
		m := New(persons, Config{Beta: 0.03, IncubationHours: 24, InfectiousHours: 72, Seed: 2017})
		for _, p := range []uint32{0, 1, 2} {
			m.SeedCase(p)
		}
		if _, err := abm.Run(context.Background(), abm.Config{
			Pop: pop, Gen: gen, Ranks: ranks, Days: days, Interact: m.Hook(),
		}); err != nil {
			t.Fatal(err)
		}
		if m.TotalInfections() <= 3 {
			t.Fatalf("ranks=%d: only %d infections; the pin would see no transmission", ranks, m.TotalInfections())
		}
		if got := outcomeDigest(m, persons); got != goldenOutcome {
			t.Errorf("ranks=%d: outcome digest %s, golden %s (%d infections)", ranks, got, goldenOutcome, m.TotalInfections())
		}
	}
}
