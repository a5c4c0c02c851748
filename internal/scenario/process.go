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

// thresholds maps a raw CSR edge weight to the rng.Threshold of its
// transmission draw, 1-(1-beta)^w with w dampened by the view. Each
// entry is the exact expression a per-draw computation would use, so
// BoolT against it reproduces Bool draw for draw; the table turns a
// division, a math.Pow and a float compare per draw into a slice read
// and an integer compare. It holds every weight below its length and
// grows to the largest weight seen. Collocation weights are small
// integers, so it stays a few hundred entries.
type thresholds struct {
	v            *View
	oneMinusBeta float64
	t            []uint64
}

// tableCap bounds the table; pathological weights at or above it are
// computed per draw instead of growing an absurd slice.
const tableCap = 1 << 22

func (th *thresholds) of(w uint32) uint64 {
	return rng.Threshold(1 - math.Pow(th.oneMinusBeta, float64(th.v.Weight(w))))
}

// at returns w's threshold. It is small enough to inline: the table
// read is the only path realistic weights take.
func (th *thresholds) at(w uint32) uint64 {
	if int(w) < len(th.t) {
		return th.t[w]
	}
	return th.miss(w)
}

func (th *thresholds) miss(w uint32) uint64 {
	if w >= tableCap {
		return th.of(w)
	}
	for len(th.t) <= int(w) {
		th.t = append(th.t, th.of(uint32(len(th.t))))
	}
	return th.t[w]
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
	th := thresholds{v: v, oneMinusBeta: 1 - p.Beta}
	var open []uint32 // CSR indices of the current row's susceptible neighbors
	for step := 1; step < steps && len(active)+len(incubating) > 0; step++ {
		if stop != nil && stop() {
			break
		}
		res.StepsRun++
		exposed, promoted = exposed[:0], promoted[:0]
		for _, u := range active {
			row, wts := v.Neighbors(u)
			// Most neighbors are not susceptible, and a branch on that is
			// unpredictable: write every index, advance past the
			// susceptible ones only. Row ids are unique, so a draw below
			// changes the state of no other neighbor in this row, and
			// drawing over the filtered indices in CSR order is the same
			// draw sequence as testing each neighbor in turn.
			if cap(open) < len(row) {
				open = make([]uint32, len(row))
			}
			open = open[:len(row)]
			n := 0
			for k, nb := range row {
				open[n] = uint32(k)
				n += int((uint32(state[nb]) - 1) >> 31) // 1 iff cSusceptible (0)
			}
			for _, k := range open[:n] {
				if !src.BoolT(th.at(wts[k])) {
					continue
				}
				nb := row[k]
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
