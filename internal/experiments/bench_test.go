package experiments

import "testing"

// benchScale is the reduced scale the benchmark runs at; the analysis
// slice is the final simulated week, as in the paper.
func benchScale() Scale {
	return Scale{Persons: 5000, Days: 14, Ranks: 8, Workers: 4, Seed: 2017}
}

// BenchmarkExperiments runs every registry entry through Runner.Run as
// one sub-benchmark, so each table and figure of the paper's evaluation
// is timed by the same code that produces EXPERIMENTS.md. The simulation
// and the final-week network all experiments share are built before the
// timers start.
//
//	go test -run '^$' -bench Experiments ./internal/experiments
//	go test -run '^$' -bench 'Experiments/A1$' ./internal/experiments
func BenchmarkExperiments(b *testing.B) {
	r, err := NewRunner(benchScale(), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.EnsureNetwork(); err != nil {
		b.Fatal(err)
	}
	for _, id := range IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
