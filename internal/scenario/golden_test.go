package scenario

import (
	"context"
	"testing"
)

// goldenSpecs cover every process, every seed policy and every
// intervention lever. Their digests were recorded before SIR, SEIR and
// diffusion became one kernel, so they pin it draw for draw to the three
// loops it replaced.
var goldenSpecs = []struct {
	name   string
	spec   Spec
	digest string
}{
	{"sir", Spec{
		Process: ProcessSIR, Steps: 40, Seed: 3, Replications: 4,
		Beta: []float64{0.001, 0.003}, InfectiousDays: []int{2, 4},
		Seeds: Seeds{Policy: SeedRandom, Count: 3},
	}, "b0768a2bfac1caef4eb3dc6a05ec6121d4ace7590383078d4c413c709e4b7290"},
	{"seir-curbed", Spec{
		Process: ProcessSEIR, Steps: 40, Seed: 5, Replications: 4,
		Beta: []float64{0.002, 0.004}, InfectiousDays: []int{3}, IncubationDays: []int{0, 2},
		Seeds: Seeds{Policy: SeedRandom, Count: 4},
		Intervention: &Intervention{CloseTopDegree: 10, VaccinateFraction: 0.1,
			Dampen: &Dampen{Num: 2, Den: 3}},
	}, "9163fc696d71ca4ae065623ba0ab56b045eca38e53d7528d1778cde679ba584d"},
	{"diffusion-community", Spec{
		Process: ProcessDiffusion, Steps: 15, Seed: 7, Replications: 3,
		Beta:         []float64{0.0005, 0.002},
		Seeds:        Seeds{Policy: SeedCommunity, Count: 3},
		Intervention: &Intervention{Close: []uint32{1, 2, 3, 40}},
	}, "61f3833f9f50177d1bb2c028601a4eb945f5a0fce9a322eba3a02e9f80745e1e"},
	{"sir-explicit-vaccinated", Spec{
		Process: ProcessSIR, Steps: 30, Seed: 9, Replications: 5,
		Beta: []float64{0.003}, InfectiousDays: []int{3},
		Seeds:        Seeds{Policy: SeedExplicit, IDs: []uint32{0, 17, 300}},
		Intervention: &Intervention{VaccinateFraction: 0.3},
	}, "b308ceb86aa7ebefa57afc1329babed042dfb9e6c9632d48220cc27ccdee6453"},
}

func TestGoldenDigests(t *testing.T) {
	g := baGraph(t, 600)
	for _, tc := range goldenSpecs {
		res, err := Run(context.Background(), g, tc.spec, Config{Slots: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Digest != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, res.Digest, tc.digest)
		}
	}
}

// TestRunRepeatable runs each golden spec on two independently built
// copies of the test graph: a generator or runner whose output depends
// on map iteration order fails here even when it happens to pass the
// goldens.
func TestRunRepeatable(t *testing.T) {
	g1, g2 := baGraph(t, 600), baGraph(t, 600)
	for _, tc := range goldenSpecs {
		a, err := Run(context.Background(), g1, tc.spec, Config{Slots: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := Run(context.Background(), g2, tc.spec, Config{Slots: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digests differ between two runs: %s vs %s", tc.name, a.Digest, b.Digest)
		}
	}
}
