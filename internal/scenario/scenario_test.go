package scenario

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/gennet"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// baGraph builds a small scale-free weighted test network.
func baGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	tri, err := gennet.BarabasiAlbert(n, 3, rng.New(7))
	if err != nil {
		t.Fatalf("barabasi-albert: %v", err)
	}
	src := rng.New(8)
	for k := range tri.W {
		tri.W[k] = uint32(src.Intn(200) + 1)
	}
	return graph.FromTri(tri, n)
}

func graphFromEdges(edges [][3]uint32, n int) *graph.Graph {
	acc := sparse.NewAccum()
	for _, e := range edges {
		acc.Add(e[0], e[1], e[2])
	}
	return graph.FromTri(acc.Tri(), n)
}

func validSpec() Spec {
	return Spec{
		Process:        ProcessSIR,
		Steps:          30,
		Seed:           42,
		Replications:   4,
		Beta:           []float64{0.02, 0.05},
		InfectiousDays: []int{2, 4},
		Seeds:          Seeds{Policy: SeedTopDegree, Count: 3},
	}
}

func TestValidateFailClosed(t *testing.T) {
	g := baGraph(t, 50)
	if err := validSpec().Validate(g); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unknown process", func(s *Spec) { s.Process = "sis" }},
		{"zero steps", func(s *Spec) { s.Steps = 0 }},
		{"steps over cap", func(s *Spec) { s.Steps = MaxSteps + 1 }},
		{"negative replications", func(s *Spec) { s.Replications = -1 }},
		{"replications over cap", func(s *Spec) { s.Replications = MaxReplications + 1 }},
		{"empty beta", func(s *Spec) { s.Beta = nil }},
		{"beta out of range", func(s *Spec) { s.Beta = []float64{1.5} }},
		{"negative beta", func(s *Spec) { s.Beta = []float64{-0.1} }},
		{"NaN beta", func(s *Spec) { s.Beta = []float64{math.NaN()} }},
		{"sir without infectious_days", func(s *Spec) { s.InfectiousDays = nil }},
		{"sir with incubation_days", func(s *Spec) { s.IncubationDays = []int{2} }},
		{"zero infectious_days", func(s *Spec) { s.InfectiousDays = []int{0} }},
		{"grid over job cap", func(s *Spec) {
			s.Beta = make([]float64, 100)
			s.InfectiousDays = make([]int, 100)
			for i := range s.InfectiousDays {
				s.InfectiousDays[i] = 1
			}
			s.Replications = 10
		}},
		{"axis over value cap", func(s *Spec) { s.Beta = make([]float64, MaxSweepValues+1) }},
		{"unknown seed policy", func(s *Spec) { s.Seeds = Seeds{Policy: "hubs", Count: 1} }},
		{"zero seed count", func(s *Spec) { s.Seeds = Seeds{Policy: SeedRandom} }},
		{"ids with non-explicit policy", func(s *Spec) { s.Seeds = Seeds{Policy: SeedRandom, Count: 1, IDs: []uint32{1}} }},
		{"explicit without ids", func(s *Spec) { s.Seeds = Seeds{Policy: SeedExplicit} }},
		{"explicit count mismatch", func(s *Spec) { s.Seeds = Seeds{Policy: SeedExplicit, Count: 3, IDs: []uint32{1, 2}} }},
		{"duplicate explicit seed", func(s *Spec) { s.Seeds = Seeds{Policy: SeedExplicit, IDs: []uint32{1, 1}} }},
		{"seed outside graph", func(s *Spec) { s.Seeds = Seeds{Policy: SeedExplicit, IDs: []uint32{99}} }},
		{"seed count over vertices", func(s *Spec) { s.Seeds = Seeds{Policy: SeedRandom, Count: 51} }},
		{"negative close_top_degree", func(s *Spec) { s.Intervention = &Intervention{CloseTopDegree: -1} }},
		{"vaccinate_fraction one", func(s *Spec) { s.Intervention = &Intervention{VaccinateFraction: 1} }},
		{"NaN vaccinate_fraction", func(s *Spec) { s.Intervention = &Intervention{VaccinateFraction: math.NaN()} }},
		{"dampen zero denominator", func(s *Spec) { s.Intervention = &Intervention{Dampen: &Dampen{Num: 1, Den: 0}} }},
		{"dampen amplifies", func(s *Spec) { s.Intervention = &Intervention{Dampen: &Dampen{Num: 3, Den: 2}} }},
		{"close vertex outside graph", func(s *Spec) { s.Intervention = &Intervention{Close: []uint32{99}} }},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		if err := s.Validate(g); err == nil {
			t.Errorf("%s: validated but should fail", tc.name)
		}
	}
	// seir/diffusion axis rules.
	s := validSpec()
	s.Process = ProcessSEIR
	if err := s.Validate(g); err == nil {
		t.Error("seir without incubation_days validated")
	}
	s.IncubationDays = []int{0, 2}
	if err := s.Validate(g); err != nil {
		t.Errorf("valid seir rejected: %v", err)
	}
	d := Spec{Process: ProcessDiffusion, Steps: 10, Beta: []float64{0.1},
		Seeds: Seeds{Policy: SeedRandom, Count: 2}}
	if err := d.Validate(g); err != nil {
		t.Errorf("valid diffusion rejected: %v", err)
	}
	d.InfectiousDays = []int{3}
	if err := d.Validate(g); err == nil {
		t.Error("diffusion with infectious_days validated")
	}
}

func TestGridOrderAndJobIndexing(t *testing.T) {
	s := Spec{Beta: []float64{0.1, 0.2}, InfectiousDays: []int{1, 2}, IncubationDays: []int{0, 3}}
	got := s.Grid()
	want := []Point{
		{0.1, 1, 0}, {0.1, 1, 3}, {0.1, 2, 0}, {0.1, 2, 3},
		{0.2, 1, 0}, {0.2, 1, 3}, {0.2, 2, 0}, {0.2, 2, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grid order = %v", got)
	}
	if s.gridSize() != len(want) {
		t.Fatalf("gridSize = %d want %d", s.gridSize(), len(want))
	}
}

// TestRunSlotsInvariant is the core determinism acceptance test: the
// same Spec must yield a byte-identical Outcome at any worker count.
func TestRunSlotsInvariant(t *testing.T) {
	g := baGraph(t, 400)
	spec := validSpec()
	spec.Intervention = &Intervention{CloseTopDegree: 5, VaccinateFraction: 0.1, Dampen: &Dampen{Num: 3, Den: 4}}
	spec.Seeds = Seeds{Policy: SeedRandom, Count: 4}

	r1, err := Run(context.Background(), g, spec, Config{Slots: 1})
	if err != nil {
		t.Fatalf("slots=1: %v", err)
	}
	r8, err := Run(context.Background(), g, spec, Config{Slots: 8})
	if err != nil {
		t.Fatalf("slots=8: %v", err)
	}
	if r1.Digest != r8.Digest {
		t.Fatalf("digest differs across slots: %s vs %s", r1.Digest, r8.Digest)
	}
	if !reflect.DeepEqual(r1.Outcome, r8.Outcome) {
		t.Fatal("outcomes differ across slots")
	}
	if r1.Jobs != 2*2*4 {
		t.Fatalf("jobs = %d want 16", r1.Jobs)
	}
}

// refCurb is an intervention as the reference applies it by hand:
// closed and immune vertices (nil = none) start recovered, and with a
// non-zero den every edge weight becomes floor(w·num/den).
type refCurb struct {
	closed, immune []bool
	num, den       uint64
}

// referenceSIR is the straight-line SIR the kernel replaced (it was
// disease.SpreadOnGraph, E5's own loop): no view, no threshold table, no
// filtered row, its own seed handling and its own recovery loop, with
// math.Pow and src.Bool inline per draw. It is the independent oracle
// the kernel is pinned to draw for draw.
func referenceSIR(g *graph.Graph, beta float64, infectiousDays, steps int, seed uint64, seeds []uint32, curb refCurb) Rep {
	src := rng.New(seed)
	const (
		susceptible = 0
		infectious  = 1
		recovered   = 2
	)
	state := make([]uint8, g.NumVertices())
	for v := range state {
		if (curb.closed != nil && curb.closed[v]) || (curb.immune != nil && curb.immune[v]) {
			state[v] = recovered
		}
	}
	daysLeft := make([]int, g.NumVertices())
	res := Rep{NewPerStep: make([]int, steps)}
	var active []uint32
	for _, s := range seeds {
		// The state check also dedupes: a repeated seed id is already
		// infectious on its second appearance, so it joins the active
		// list exactly once and its daysLeft clock ticks once per step.
		if state[s] == susceptible {
			state[s] = infectious
			daysLeft[s] = infectiousDays
			res.Total++
			res.NewPerStep[0]++
			active = append(active, s)
		}
	}
	for step := 1; step < steps; step++ {
		var newlyInfected []uint32
		for _, v := range active {
			row, wts := g.Neighbors(v)
			for k, u := range row {
				if state[u] != susceptible {
					continue
				}
				w := uint64(wts[k])
				if curb.den != 0 {
					w = w * curb.num / curb.den
				}
				if src.Bool(1 - math.Pow(1-beta, float64(w))) {
					state[u] = infectious
					daysLeft[u] = infectiousDays
					newlyInfected = append(newlyInfected, u)
				}
			}
		}
		res.NewPerStep[step] = len(newlyInfected)
		res.Total += len(newlyInfected)
		kept := active[:0]
		for _, v := range active {
			daysLeft[v]--
			if daysLeft[v] > 0 {
				kept = append(kept, v)
			} else {
				state[v] = recovered
			}
		}
		active = append(kept, newlyInfected...)
		if len(active) == 0 {
			break
		}
	}
	for step, n := range res.NewPerStep {
		if n > res.NewPerStep[res.PeakStep] {
			res.PeakStep = step
		}
	}
	return res
}

// TestSIRParityWithSpreadOnGraph pins the kernel draw-for-draw to the
// straight-line reference: same graph, same rng seed, identical curves.
// Diffusion is SIR in which nobody recovers within the run, so the
// reference with InfectiousDays ≥ steps must equal the kernel with
// InfectiousDays 0.
func TestSIRParityWithSpreadOnGraph(t *testing.T) {
	g := baGraph(t, 300)
	const steps = 40
	seeds := []uint32{0, 5, 9}
	for _, tc := range []struct {
		name   string
		refInf int
		p      Point
	}{
		{"sir", 3, Point{Beta: 0.03, InfectiousDays: 3}},
		{"diffusion", steps, Point{Beta: 0.0005}},
	} {
		ref := referenceSIR(g, tc.p.Beta, tc.refInf, steps, 42, seeds, refCurb{})
		got := tc.p.Run(NewView(g, nil), nil, seeds, rng.New(42), steps, nil)
		if !reflect.DeepEqual(got.NewPerStep, ref.NewPerStep) {
			t.Fatalf("%s: curves diverge:\nkernel    %v\nreference %v", tc.name, got.NewPerStep, ref.NewPerStep)
		}
		if got.Total != ref.Total || got.PeakStep != ref.PeakStep {
			t.Fatalf("%s: total/peak = %d/%d want %d/%d", tc.name, got.Total, got.PeakStep, ref.Total, ref.PeakStep)
		}
	}
}

// TestInterventionParityWithReference pins the kernel to the reference
// under the views the sweeps actually run: every threshold-table path
// (dampened weights that floor to 0 and never draw, β = 1 that always
// transmits without drawing, a raw weight past the table computed per
// draw) and closures plus vaccination folded into the initial state.
func TestInterventionParityWithReference(t *testing.T) {
	g := baGraph(t, 300)
	n := g.NumVertices()
	const steps = 40
	seeds := []uint32{150, 220, 299}

	// baGraph's own edges plus one edge past tableCap from a seed.
	var edges [][3]uint32
	for u := uint32(0); u < uint32(n); u++ {
		row, wts := g.Neighbors(u)
		for k, nb := range row {
			if u < nb {
				edges = append(edges, [3]uint32{u, nb, wts[k]})
			}
		}
	}
	heavy := graphFromEdges(append(edges, [3]uint32{150, 151, tableCap + 5}), n)
	if w := heavy.EdgeWeight(150, 151); w < tableCap {
		t.Fatalf("heavy edge weight %d below tableCap", w)
	}

	closeIV := &Intervention{Close: []uint32{7, 40}, CloseTopDegree: 10}
	immune := make([]bool, n)
	for _, x := range pickDistinct(rng.New(5), n, n/5) {
		immune[x] = true
	}
	third := &Intervention{Dampen: &Dampen{Num: 1, Den: 3}}

	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		iv     *Intervention
		immune []bool
		beta   float64
		curb   refCurb
	}{
		{"dampen 1/3", g, third, nil, 0.03, refCurb{num: 1, den: 3}},
		{"beta 1", g, nil, nil, 1, refCurb{}},
		{"beta 1 dampen 1/3", g, third, nil, 1, refCurb{num: 1, den: 3}},
		{"weight past tableCap", heavy, nil, nil, 2e-7, refCurb{}},
		{"weight past tableCap dampen 1/3", heavy, third, nil, 2e-7, refCurb{num: 1, den: 3}},
		{"closures and vaccination", g, closeIV, immune, 0.03, refCurb{immune: immune}},
	} {
		v := NewView(tc.g, tc.iv)
		curb := tc.curb
		curb.closed = v.closed
		ref := referenceSIR(tc.g, tc.beta, 3, steps, 42, seeds, curb)
		got := Point{Beta: tc.beta, InfectiousDays: 3}.Run(v, tc.immune, seeds, rng.New(42), steps, nil)
		if !reflect.DeepEqual(got.NewPerStep, ref.NewPerStep) {
			t.Fatalf("%s: curves diverge:\nkernel    %v\nreference %v", tc.name, got.NewPerStep, ref.NewPerStep)
		}
		if got.Total != ref.Total || got.PeakStep != ref.PeakStep {
			t.Fatalf("%s: total/peak = %d/%d want %d/%d", tc.name, got.Total, got.PeakStep, ref.Total, ref.PeakStep)
		}
		if got.Total <= len(seeds) {
			t.Fatalf("%s: total %d, nothing spread — the case tests no draw", tc.name, got.Total)
		}
	}
}

// TestSEIRZeroIncubationMatchesSIR: with incubation 0, SEIR degenerates
// to SIR exactly — same draws, same curve.
func TestSEIRZeroIncubationMatchesSIR(t *testing.T) {
	g := baGraph(t, 200)
	seeds := []uint32{1, 7}
	sir := referenceSIR(g, 0.04, 3, 30, 9, seeds, refCurb{})
	seir := Point{Beta: 0.04, IncubationDays: 0, InfectiousDays: 3}.Run(NewView(g, nil), nil, seeds, rng.New(9), 30, nil)
	if !reflect.DeepEqual(sir.NewPerStep, seir.NewPerStep) || sir.Total != seir.Total {
		t.Fatalf("seir(inc=0) != sir:\n%v\n%v", seir.NewPerStep, sir.NewPerStep)
	}
}

// TestSEIRIncubationDelaysSpread: on a chain with certain transmission,
// incubation k makes the front advance every k+1 steps.
func TestSEIRIncubationDelaysSpread(t *testing.T) {
	g := graphFromEdges([][3]uint32{{0, 1, 100000}, {1, 2, 100000}, {2, 3, 100000}}, 4)
	rep := Point{Beta: 0.9, IncubationDays: 2, InfectiousDays: 9}.Run(NewView(g, nil), nil, []uint32{0}, rng.New(1), 12, nil)
	if rep.Total != 4 {
		t.Fatalf("total = %d want 4 (curve %v)", rep.Total, rep.NewPerStep)
	}
	// 0 infectious at step 0; exposes 1 at step 1; 1 infectious at step
	// 3, exposes 2 at step 4; 2 exposes 3 at step 7.
	want := []int{1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0}
	if !reflect.DeepEqual(rep.NewPerStep, want) {
		t.Fatalf("curve = %v want %v", rep.NewPerStep, want)
	}
}

// TestDiffusionAdoptersPersist: adopters never revert, so on a path
// with certain diffusion everyone adopts, and the process keeps
// running all steps (no burn-out).
func TestDiffusionAdoptersPersist(t *testing.T) {
	g := graphFromEdges([][3]uint32{{0, 1, 100000}, {1, 2, 100000}}, 3)
	rep := Point{Beta: 0.9}.Run(NewView(g, nil), nil, []uint32{0}, rng.New(1), 20, nil)
	if rep.Total != 3 {
		t.Fatalf("total = %d want 3", rep.Total)
	}
	if rep.StepsRun != 20 {
		t.Fatalf("diffusion stopped at %d of 20 steps", rep.StepsRun)
	}
}

func attackMean(t *testing.T, g *graph.Graph, spec Spec) float64 {
	t.Helper()
	res, err := Run(context.Background(), g, spec, Config{Slots: 4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Outcome.Points[0].AttackRate.Mean
}

// TestInterventionsReduceAttack checks each intervention lever cuts the
// attack rate of an otherwise-identical epidemic.
func TestInterventionsReduceAttack(t *testing.T) {
	g := baGraph(t, 500)
	base := Spec{
		Process: ProcessSIR, Steps: 60, Seed: 11, Replications: 8,
		Beta: []float64{0.01}, InfectiousDays: []int{4},
		Seeds: Seeds{Policy: SeedRandom, Count: 3},
	}
	baseline := attackMean(t, g, base)
	if baseline < 0.2 {
		t.Fatalf("baseline epidemic too small to test interventions: %v", baseline)
	}
	for _, tc := range []struct {
		name string
		iv   Intervention
	}{
		{"closure", Intervention{CloseTopDegree: 25}},
		{"vaccination", Intervention{VaccinateFraction: 0.5}},
		{"dampening", Intervention{Dampen: &Dampen{Num: 1, Den: 8}}},
	} {
		s := base
		iv := tc.iv
		s.Intervention = &iv
		if got := attackMean(t, g, s); got >= baseline {
			t.Errorf("%s: attack %v not below baseline %v", tc.name, got, baseline)
		}
	}
	// Full closure of every seed's world: closing all vertices yields a
	// zero epidemic rather than an error.
	s := base
	s.Intervention = &Intervention{CloseTopDegree: 500}
	if got := attackMean(t, g, s); got != 0 {
		t.Errorf("all-closed attack = %v want 0", got)
	}
}

func TestSeedPolicies(t *testing.T) {
	g := baGraph(t, 120)
	// top-degree matches graph.TopDegree.
	want := g.TopDegree(4)
	spec := Spec{Process: ProcessDiffusion, Steps: 2, Seed: 3, Beta: []float64{0},
		Seeds: Seeds{Policy: SeedTopDegree, Count: 4}}
	res, err := Run(context.Background(), g, spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Points[0].TotalMean != float64(len(want)) {
		t.Fatalf("top-degree seeded %v vertices, want %d", res.Outcome.Points[0].TotalMean, len(want))
	}
	// random: distinct, in-range, reproducible.
	a := pickDistinct(rng.New(key(3, tagSeeds, 0, 0)), 120, 10)
	b := pickDistinct(rng.New(key(3, tagSeeds, 0, 0)), 120, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pickDistinct not reproducible")
	}
	seen := map[uint32]bool{}
	for _, v := range a {
		if seen[v] || v >= 120 {
			t.Fatalf("bad random seed set %v", a)
		}
		seen[v] = true
	}
	// dense pick: Fisher-Yates path still distinct and complete.
	dense := pickDistinct(rng.New(1), 10, 9)
	dseen := map[uint32]bool{}
	for _, v := range dense {
		if dseen[v] || v >= 10 {
			t.Fatalf("bad dense pick %v", dense)
		}
		dseen[v] = true
	}
	// community: count distinct seeds from the largest communities.
	cs := communitySeeds(g, 3, 6)
	if len(cs) != 6 {
		t.Fatalf("community seeds = %v", cs)
	}
	cseen := map[uint32]bool{}
	for _, v := range cs {
		if cseen[v] {
			t.Fatalf("community seeds repeat: %v", cs)
		}
		cseen[v] = true
	}
	if !reflect.DeepEqual(cs, communitySeeds(g, 3, 6)) {
		t.Fatal("community seeds not reproducible")
	}
}

func TestRunCanceled(t *testing.T) {
	g := baGraph(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, g, validSpec(), Config{Slots: 2}); err == nil {
		t.Fatal("canceled run returned no error")
	}
}

func TestViewMasksAndDampening(t *testing.T) {
	g := graphFromEdges([][3]uint32{{0, 1, 7}, {1, 2, 9}}, 3)
	v := NewView(g, nil)
	if v.NumClosed() != 0 || v.Closed(0) || v.Weight(7) != 7 {
		t.Fatal("bare view not an identity")
	}
	v = NewView(g, &Intervention{Close: []uint32{2, 2}, CloseTopDegree: 1, Dampen: &Dampen{Num: 1, Den: 2}})
	// Vertex 1 has the top degree; 2 closed explicitly (dup collapses).
	if v.NumClosed() != 2 || !v.Closed(1) || !v.Closed(2) || v.Closed(0) {
		t.Fatalf("closed mask wrong: n=%d", v.NumClosed())
	}
	if v.Weight(7) != 3 || v.Weight(9) != 4 || v.Weight(1) != 0 {
		t.Fatal("dampening is not floor(w/2)")
	}
	// num==den dampening collapses to identity.
	v = NewView(g, &Intervention{Dampen: &Dampen{Num: 5, Den: 5}})
	if !v.identity {
		t.Fatal("num==den should be identity")
	}
}

func TestStoreEviction(t *testing.T) {
	st := NewStore(2)
	a, err := st.Add(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Add(1)
	if err != nil {
		t.Fatal(err)
	}
	st.SetRunning(a)
	st.SetRunning(b)
	// Full of live jobs: refuse.
	if _, err := st.Add(1); err == nil {
		t.Fatal("full store accepted a job")
	}
	st.Finish(a, &Result{Digest: "d"}, nil)
	// Now the oldest terminal job (a) is evictable.
	c, err := st.Add(2)
	if err != nil {
		t.Fatalf("store did not evict: %v", err)
	}
	if _, ok := st.Get(a); ok {
		t.Fatal("evicted job still readable")
	}
	if ji, ok := st.Get(b); !ok || ji.Status != StatusRunning {
		t.Fatal("running job lost")
	}
	if ji, ok := st.Get(c); !ok || ji.Status != StatusPending || ji.Generation != 2 {
		t.Fatalf("new job wrong: %+v", ji)
	}
	st.Finish(b, nil, context.Canceled)
	if ji, _ := st.Get(b); ji.Status != StatusFailed || ji.Error == "" {
		t.Fatalf("failed job wrong: %+v", ji)
	}
	if _, ok := st.Get("s-999999"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestStoreIDsMonotonic(t *testing.T) {
	st := NewStore(0) // default cap
	a, _ := st.Add(1)
	bID, _ := st.Add(1)
	if a == bID || st.Len() != 2 {
		t.Fatalf("ids %s %s len %d", a, bID, st.Len())
	}
}

// collocationGraph is shaped like a synthesized week: every vertex
// belongs to one place in each of three layers (think home, work,
// leisure), places are cliques of 10–50 members, and a place's members
// share 1–56 hours, so a pair's weight is 1–168 and the mean degree is
// about 100.
func collocationGraph(n int) *graph.Graph {
	acc := sparse.NewAccum()
	src := rng.New(9)
	for layer := 0; layer < 3; layer++ {
		perm := src.Perm(n)
		for lo := 0; lo < n; {
			hi := min(lo+10+src.Intn(41), n)
			hours := uint32(src.Intn(56) + 1)
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					acc.Add(uint32(perm[i]), uint32(perm[j]), hours)
				}
			}
			lo = hi
		}
	}
	return graph.FromTri(acc.Tri(), n)
}

// BenchmarkKernel runs each process on a collocation-shaped graph, bare
// and under the sweep benchmark's curb (top-200 hubs closed, weights
// halved), so the kernel's cost shows without the bench module.
func BenchmarkKernel(b *testing.B) {
	g := collocationGraph(5000)
	seeds := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	curb := &Intervention{CloseTopDegree: 200, Dampen: &Dampen{Num: 1, Den: 2}}
	for _, view := range []struct {
		name string
		v    *View
	}{{"bare", NewView(g, nil)}, {"curbed", NewView(g, curb)}} {
		// The sweep's step counts; betas tuned to this graph so that,
		// like the sweep's on the week graph, outbreaks neither die out
		// nor saturate at once (attack 78–95% bare, 15–37% curbed).
		for _, tc := range []struct {
			name  string
			p     Point
			steps int
		}{
			{"sir", Point{Beta: 0.0003, InfectiousDays: 3}, 30},
			{"seir", Point{Beta: 0.0004, IncubationDays: 3, InfectiousDays: 4}, 30},
			{"diffusion", Point{Beta: 0.0004}, 10},
		} {
			b.Run(view.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.p.Run(view.v, nil, seeds, rng.New(23), tc.steps, nil)
				}
			})
		}
	}
}
