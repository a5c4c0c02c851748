// Package scenario is the process-execution layer over a synthesized
// collocation network: the paper's conclusion argues the point of
// endogenous networks is to run processes — "theoretical epidemiology
// simulation models" — whose outcomes depend on realistic network
// structure. The package turns a loaded snapshot graph into a scenario
// execution service: a fail-closed Spec (SIR / SEIR / innovation
// diffusion, parameter sweeps expanded into a job grid, seed-selection
// policies, replications), interventions applied as graph views (vertex
// closures, vaccination pre-assignment, edge-weight dampening) without
// copying the CSR, a deterministic worker-count-invariant runner, and
// aggregation (mean curves, attack rates, 95% CIs) with a content
// digest so two runs of the same Spec are provably identical.
package scenario

import (
	"fmt"

	"repro/internal/graph"
)

// Process kinds accepted in Spec.Process.
const (
	ProcessSIR       = "sir"
	ProcessSEIR      = "seir"
	ProcessDiffusion = "diffusion"
)

// Seed-selection policies accepted in Seeds.Policy.
const (
	SeedRandom    = "random"     // Count distinct vertices, rng-keyed per replication
	SeedTopDegree = "top-degree" // the Count highest-degree vertices (hub seeding)
	SeedCommunity = "community"  // top-degree member of each of the Count largest communities
	SeedExplicit  = "explicit"   // the given vertex IDs
)

// Limits enforced fail-closed by Validate. A Spec outside them is
// rejected before any work starts — the service never begins a sweep it
// cannot bound.
const (
	MaxSteps        = 100_000
	MaxReplications = 10_000
	MaxJobs         = 10_000 // grid points × replications
	MaxSweepValues  = 256    // per axis
)

// Seeds selects the initially infected / adopting vertices.
type Seeds struct {
	// Policy is one of random, top-degree, community, explicit.
	Policy string `json:"policy"`
	// Count is how many seeds to select (ignored for explicit).
	Count int `json:"count,omitempty"`
	// IDs are the explicit seed vertices (explicit policy only).
	IDs []uint32 `json:"ids,omitempty"`
}

// Dampen is a deterministic edge-weight dampening factor: every edge
// weight w becomes floor(w·Num/Den). Integer arithmetic keeps the view
// bit-reproducible across platforms.
type Dampen struct {
	Num uint32 `json:"num"`
	Den uint32 `json:"den"`
}

// Intervention is the optional counter-measure layer, applied as a
// graph view (masks over the shared CSR — the snapshot is never
// copied):
//
//   - Close / CloseTopDegree remove vertices from the process entirely
//     (the graph-level reading of place closure: the snapshot is a
//     person-person collocation network, so closing its hubs removes
//     the high-mixing individuals the densest places create);
//   - VaccinateFraction pre-assigns that share of vertices immune
//     before step 0, drawn deterministically per replication;
//   - Dampen scales every edge weight down (universal contact-hour
//     reduction — the "everyone stays home more" lever).
type Intervention struct {
	Close             []uint32 `json:"close,omitempty"`
	CloseTopDegree    int      `json:"close_top_degree,omitempty"`
	VaccinateFraction float64  `json:"vaccinate_fraction,omitempty"`
	Dampen            *Dampen  `json:"dampen,omitempty"`
}

// Spec is one scenario submission: a process, its parameter sweep, how
// seeds are chosen, how many replications per sweep point, and an
// optional intervention. The sweep axes (Beta × InfectiousDays ×
// IncubationDays) are expanded into a job grid of points ×
// Replications jobs; every job's rng stream is keyed (Seed, sweep
// point, replication), so results are invariant to worker count and to
// execution order.
type Spec struct {
	// Process is sir, seir, or diffusion.
	Process string `json:"process"`
	// Steps is the number of simulated days per replication.
	Steps int `json:"steps"`
	// Seed is the root of every derived rng stream.
	Seed uint64 `json:"seed"`
	// Replications per sweep point (default 1).
	Replications int `json:"replications,omitempty"`

	// Beta is the sweep axis over the per-contact-hour transmission
	// probability (SIR/SEIR) or per-contact-hour adoption probability
	// (diffusion). At least one value is required.
	Beta []float64 `json:"beta"`
	// InfectiousDays is the sweep axis over the I→R duration
	// (required for sir and seir, rejected for diffusion).
	InfectiousDays []int `json:"infectious_days,omitempty"`
	// IncubationDays is the sweep axis over the E→I delay (required
	// for seir, rejected otherwise).
	IncubationDays []int `json:"incubation_days,omitempty"`

	Seeds        Seeds         `json:"seeds"`
	Intervention *Intervention `json:"intervention,omitempty"`
}

// withDefaults fills the documented defaults without mutating s.
func (s Spec) withDefaults() Spec {
	if s.Replications == 0 {
		s.Replications = 1
	}
	return s
}

// Validate checks the Spec fail-closed against the limits and, when g
// is non-nil, against the graph's vertex space. Every reachable
// invalid state is a typed error before any job starts.
func (s Spec) Validate(g *graph.Graph) error {
	s = s.withDefaults()
	switch s.Process {
	case ProcessSIR, ProcessSEIR, ProcessDiffusion:
	default:
		return fmt.Errorf("scenario: unknown process %q (want %s, %s or %s)",
			s.Process, ProcessSIR, ProcessSEIR, ProcessDiffusion)
	}
	if s.Steps < 1 || s.Steps > MaxSteps {
		return fmt.Errorf("scenario: steps %d outside [1,%d]", s.Steps, MaxSteps)
	}
	if s.Replications < 1 || s.Replications > MaxReplications {
		return fmt.Errorf("scenario: replications %d outside [1,%d]", s.Replications, MaxReplications)
	}
	if len(s.Beta) == 0 {
		return fmt.Errorf("scenario: beta sweep axis is empty")
	}
	if len(s.Beta) > MaxSweepValues || len(s.InfectiousDays) > MaxSweepValues || len(s.IncubationDays) > MaxSweepValues {
		return fmt.Errorf("scenario: a sweep axis exceeds %d values", MaxSweepValues)
	}
	for _, b := range s.Beta {
		if !(b >= 0 && b <= 1) { // NaN fails both comparisons
			return fmt.Errorf("scenario: beta %v outside [0,1]", b)
		}
	}
	switch s.Process {
	case ProcessSIR:
		if len(s.InfectiousDays) == 0 {
			return fmt.Errorf("scenario: sir requires infectious_days")
		}
		if len(s.IncubationDays) != 0 {
			return fmt.Errorf("scenario: sir does not take incubation_days")
		}
	case ProcessSEIR:
		if len(s.InfectiousDays) == 0 || len(s.IncubationDays) == 0 {
			return fmt.Errorf("scenario: seir requires infectious_days and incubation_days")
		}
	case ProcessDiffusion:
		if len(s.InfectiousDays) != 0 || len(s.IncubationDays) != 0 {
			return fmt.Errorf("scenario: diffusion takes neither infectious_days nor incubation_days")
		}
	}
	for _, d := range s.InfectiousDays {
		if d < 1 || d > MaxSteps {
			return fmt.Errorf("scenario: infectious_days %d outside [1,%d]", d, MaxSteps)
		}
	}
	for _, d := range s.IncubationDays {
		if d < 0 || d > MaxSteps {
			return fmt.Errorf("scenario: incubation_days %d outside [0,%d]", d, MaxSteps)
		}
	}
	if jobs := s.gridSize() * s.Replications; jobs > MaxJobs {
		return fmt.Errorf("scenario: job grid %d (points × replications) exceeds %d", jobs, MaxJobs)
	}

	switch s.Seeds.Policy {
	case SeedRandom, SeedTopDegree, SeedCommunity:
		if s.Seeds.Count < 1 {
			return fmt.Errorf("scenario: seeds.count %d must be >= 1 for policy %s", s.Seeds.Count, s.Seeds.Policy)
		}
		if len(s.Seeds.IDs) != 0 {
			return fmt.Errorf("scenario: seeds.ids is only valid with policy %s", SeedExplicit)
		}
	case SeedExplicit:
		if len(s.Seeds.IDs) == 0 {
			return fmt.Errorf("scenario: explicit seed policy requires seeds.ids")
		}
		if s.Seeds.Count != 0 && s.Seeds.Count != len(s.Seeds.IDs) {
			return fmt.Errorf("scenario: seeds.count %d disagrees with %d explicit ids", s.Seeds.Count, len(s.Seeds.IDs))
		}
		seen := make(map[uint32]bool, len(s.Seeds.IDs))
		for _, id := range s.Seeds.IDs {
			if seen[id] {
				return fmt.Errorf("scenario: duplicate explicit seed %d", id)
			}
			seen[id] = true
		}
	default:
		return fmt.Errorf("scenario: unknown seed policy %q (want %s, %s, %s or %s)",
			s.Seeds.Policy, SeedRandom, SeedTopDegree, SeedCommunity, SeedExplicit)
	}

	if iv := s.Intervention; iv != nil {
		if iv.CloseTopDegree < 0 {
			return fmt.Errorf("scenario: close_top_degree %d is negative", iv.CloseTopDegree)
		}
		if f := iv.VaccinateFraction; !(f >= 0 && f < 1) {
			return fmt.Errorf("scenario: vaccinate_fraction %v outside [0,1)", iv.VaccinateFraction)
		}
		if d := iv.Dampen; d != nil {
			if d.Den == 0 {
				return fmt.Errorf("scenario: dampen denominator is zero")
			}
			if d.Num > d.Den {
				return fmt.Errorf("scenario: dampen %d/%d would amplify weights", d.Num, d.Den)
			}
		}
	}

	if g != nil {
		n := g.NumVertices()
		if n == 0 {
			return fmt.Errorf("scenario: graph has no vertices")
		}
		for _, id := range s.Seeds.IDs {
			if int(id) >= n {
				return fmt.Errorf("scenario: seed %d outside vertex space [0,%d)", id, n)
			}
		}
		if s.Seeds.Policy != SeedExplicit && s.Seeds.Count > n {
			return fmt.Errorf("scenario: seeds.count %d exceeds %d vertices", s.Seeds.Count, n)
		}
		if iv := s.Intervention; iv != nil {
			for _, id := range iv.Close {
				if int(id) >= n {
					return fmt.Errorf("scenario: close vertex %d outside vertex space [0,%d)", id, n)
				}
			}
			if iv.CloseTopDegree > n {
				return fmt.Errorf("scenario: close_top_degree %d exceeds %d vertices", iv.CloseTopDegree, n)
			}
		}
	}
	return nil
}

// Point is one concrete parameter assignment in the sweep grid, and the
// process it selects: Run (process.go) reads a zero IncubationDays as
// sir and a zero InfectiousDays as diffusion. Its JSON tags are the
// leading fields of every PointResult.
type Point struct {
	Beta           float64 `json:"beta"`
	InfectiousDays int     `json:"infectious_days,omitempty"`
	IncubationDays int     `json:"incubation_days,omitempty"`
}

// gridSize returns the number of sweep points.
func (s Spec) gridSize() int {
	n := len(s.Beta)
	if len(s.InfectiousDays) > 0 {
		n *= len(s.InfectiousDays)
	}
	if len(s.IncubationDays) > 0 {
		n *= len(s.IncubationDays)
	}
	return n
}

// Grid expands the sweep axes into their cross product, in the fixed
// deterministic order beta (outer) × infectious_days × incubation_days
// (inner). Job i of the runner is point i/Replications, replication
// i%Replications — the indexing every derived rng stream is keyed by.
func (s Spec) Grid() []Point {
	inf := s.InfectiousDays
	if len(inf) == 0 {
		inf = []int{0}
	}
	inc := s.IncubationDays
	if len(inc) == 0 {
		inc = []int{0}
	}
	out := make([]Point, 0, len(s.Beta)*len(inf)*len(inc))
	for _, b := range s.Beta {
		for _, fd := range inf {
			for _, cd := range inc {
				out = append(out, Point{Beta: b, InfectiousDays: fd, IncubationDays: cd})
			}
		}
	}
	return out
}
