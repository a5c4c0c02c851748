package scenario

import (
	"math"

	"repro/internal/rng"
)

// Rep is the outcome of one replication: the per-step new-event curve
// (infections for sir/seir, adoptions for diffusion), the total ever
// affected including seeds, the peak step, and how many steps actually
// executed (epidemics that burn out stop early).
type Rep struct {
	NewPerStep []int
	Total      int
	PeakStep   int
	StepsRun   int
}

// probTable caches the per-contact transmission probability
// 1-(1-beta)^w per distinct (damped) edge weight. Collocation weights
// are small integers, so the cache turns the inner-loop math.Pow into
// a slice read; each entry is computed with the exact expression the
// naive loop would use, so outputs stay bit-identical.
type probTable struct {
	oneMinusBeta float64
	p            []float64
}

// tableCap bounds the cache; pathological weights above it fall back
// to direct computation instead of growing an absurd slice.
const tableCap = 1 << 22

func newProbTable(beta float64) probTable {
	return probTable{oneMinusBeta: 1 - beta, p: []float64{0}} // weight 0 → probability 0
}

func (t *probTable) prob(w uint32) float64 {
	if w >= tableCap {
		return 1 - math.Pow(t.oneMinusBeta, float64(w))
	}
	for int(w) >= len(t.p) {
		t.p = append(t.p, math.NaN())
	}
	if math.IsNaN(t.p[w]) {
		t.p[w] = 1 - math.Pow(t.oneMinusBeta, float64(w))
	}
	return t.p[w]
}

// Compartment codes. Closed and vaccinated vertices are pre-assigned
// removed so no transmission branch ever needs to consult the masks
// again.
const (
	cSusceptible = 0
	cExposed     = 1
	cActive      = 2 // infectious / adopter
	cRemoved     = 3 // recovered, vaccinated, or closed
)

// initState builds the compartment array with the intervention's
// closures and the replication's vaccination pre-assignment folded in.
func initState(v *View, immune []bool) []uint8 {
	state := make([]uint8, v.NumVertices())
	if immune != nil {
		for i, im := range immune {
			if im {
				state[i] = cRemoved
			}
		}
	}
	if v.closed != nil {
		for i, c := range v.closed {
			if c {
				state[i] = cRemoved
			}
		}
	}
	return state
}

// Run is the one process kernel: a discrete-time, edge-weighted spread
// in which each step every active vertex transmits to each susceptible
// neighbor independently with probability 1-(1-Beta)^w (w already
// dampened by the view). The point's durations select the process:
//
//   - IncubationDays 0 makes a new infection active at once (sir);
//     otherwise it sits exposed that many steps first (seir). Seeds
//     always start active (index cases).
//   - InfectiousDays 0 means an active vertex never recovers
//     (diffusion: adopters never revert); otherwise it is removed after
//     that many steps.
//
// Draw order is fixed — active vertices in insertion order, neighbors in
// CSR order, E→I before I→R, promotions appended after the survivors —
// so a replication is a pure function of (view, immune, seeds, src,
// steps): the runner keys src per (seed, sweep point, replication),
// which is what makes whole sweeps worker-count invariant. stop is
// polled once per step (nil = never stop); a stopped replication
// returns a truncated Rep the runner discards, so cancellation latency
// is one step rather than one whole job.
func (p Point) Run(v *View, immune []bool, seeds []uint32, src *rng.Source, steps int, stop func() bool) Rep {
	state := initState(v, immune)
	clock := make([]int, len(state))
	res := Rep{NewPerStep: make([]int, steps), StepsRun: 1}
	var active, incubating, exposed, promoted []uint32
	for _, s := range seeds {
		if state[s] != cSusceptible {
			continue // duplicate seed, vaccinated, or closed
		}
		state[s] = cActive
		clock[s] = p.InfectiousDays
		res.Total++
		res.NewPerStep[0]++
		active = append(active, s)
	}
	pt := newProbTable(p.Beta)
	for step := 1; step < steps && len(active)+len(incubating) > 0; step++ {
		if stop != nil && stop() {
			break
		}
		res.StepsRun++
		exposed, promoted = exposed[:0], promoted[:0]
		for _, u := range active {
			row, wts := v.Neighbors(u)
			for k, nb := range row {
				// Two ifs, not one ||: the split form is measurably
				// faster on the sweep benchmark.
				if state[nb] != cSusceptible {
					continue
				}
				if !src.Bool(pt.prob(v.Weight(wts[k]))) {
					continue
				}
				res.Total++
				res.NewPerStep[step]++
				if p.IncubationDays == 0 {
					state[nb] = cActive
					clock[nb] = p.InfectiousDays
					promoted = append(promoted, nb)
				} else {
					state[nb] = cExposed
					clock[nb] = p.IncubationDays
					exposed = append(exposed, nb)
				}
			}
		}
		// E → I (this step's exposures start their clock next step).
		keptInc := incubating[:0]
		for _, u := range incubating {
			clock[u]--
			if clock[u] <= 0 {
				state[u] = cActive
				clock[u] = p.InfectiousDays
				promoted = append(promoted, u)
			} else {
				keptInc = append(keptInc, u)
			}
		}
		incubating = append(keptInc, exposed...)
		// I → R.
		if p.InfectiousDays > 0 {
			keptAct := active[:0]
			for _, u := range active {
				clock[u]--
				if clock[u] > 0 {
					keptAct = append(keptAct, u)
				} else {
					state[u] = cRemoved
				}
			}
			active = keptAct
		}
		active = append(active, promoted...)
	}
	for step, n := range res.NewPerStep {
		if n > res.NewPerStep[res.PeakStep] {
			res.PeakStep = step
		}
	}
	return res
}
