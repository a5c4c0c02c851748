package experiments

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	"repro"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gennet"
	"repro/internal/graph"
	"repro/internal/netstat"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sparse"
	"repro/internal/synthpop"
)

// ksDistance computes the Kolmogorov-Smirnov distance between the degree
// CDFs of two graphs over their common degree range.
func ksDistance(a, b *graph.Graph) float64 {
	cdf := func(g *graph.Graph) ([]float64, int) {
		n := g.NumVertices()
		maxD := g.MaxDegree()
		counts := make([]float64, maxD+2)
		for v := 0; v < n; v++ {
			counts[g.Degree(uint32(v))]++
		}
		acc := 0.0
		for k := range counts {
			acc += counts[k]
			counts[k] = acc / float64(n)
		}
		return counts, maxD
	}
	ca, ma := cdf(a)
	cb, mb := cdf(b)
	max := ma
	if mb > max {
		max = mb
	}
	at := func(c []float64, k int) float64 {
		if k >= len(c) {
			return 1
		}
		return c[k]
	}
	var d float64
	for k := 0; k <= max; k++ {
		d = math.Max(d, math.Abs(at(ca, k)-at(cb, k)))
	}
	return d
}

// E1SyntheticNetworks reproduces the paper's concluding argument: random
// scale-free/small-world generators produce networks "superficially
// similar" to the simulated collocation network but miss its structure —
// the degree distribution, the clustering, or both.
func (r *Runner) E1SyntheticNetworks() (*Report, error) {
	net, err := r.EnsureNetwork()
	if err != nil {
		return nil, err
	}
	g := net.Graph()
	n := g.NumVertices()
	m := g.NumEdges()
	src := rng.New(r.Scale.Seed + 99)

	realClust := g.GlobalTransitivity()
	realAssort := g.DegreeAssortativity()

	rep := &Report{
		Title: "Random network models vs the simulated collocation network (Conclusions)",
		PaperClaim: "generated random scale-free networks may be superficially similar but need tailoring to capture " +
			"the complex degree-distribution structure; the differences matter for theoretical epidemiology",
		Header: []string{"network", "edges", "KS distance to real degree CDF", "global transitivity", "assortativity"},
		Rows: [][]string{
			{"chiSIM collocation (real)", d(m), "0.000", f3(realClust), f3(realAssort)},
		},
	}

	type gen struct {
		name string
		tri  func() (*sparse.Tri, error)
	}
	baDegree := m / n
	if baDegree < 1 {
		baDegree = 1
	}
	wsK := 2 * (m / n)
	if wsK < 2 {
		wsK = 2
	}
	gens := []gen{
		{"Erdős–Rényi G(n,m)", func() (*sparse.Tri, error) { return gennet.ErdosRenyi(n, m, src) }},
		{"Barabási–Albert", func() (*sparse.Tri, error) { return gennet.BarabasiAlbert(n, baDegree, src) }},
		{"Watts–Strogatz β=0.1", func() (*sparse.Tri, error) { return gennet.WattsStrogatz(n, wsK, 0.1, src) }},
		{"configuration model (degree-matched)", func() (*sparse.Tri, error) {
			return gennet.ConfigurationModel(gennet.DegreeSequence(g), src)
		}},
	}
	for _, ge := range gens {
		tri, err := ge.tri()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ge.name, err)
		}
		sg := graph.FromTri(tri, n)
		rep.Rows = append(rep.Rows, []string{
			ge.name,
			d(sg.NumEdges()),
			f3(ksDistance(g, sg)),
			f3(sg.GlobalTransitivity()),
			f3(sg.DegreeAssortativity()),
		})
	}
	rep.Notes = append(rep.Notes,
		"the configuration model matches the degree CDF by construction but loses the clustering — the paper's point that degree distributions alone under-specify the network",
		"ER/BA/WS miss the degree distribution (large KS distance) and the clustering simultaneously")
	return rep, nil
}

// E2Communities applies community detection — the "more novel
// approaches" the paper's introduction mentions — to the collocation
// network and checks the detected macro-structure against the synthetic
// city's ground truth (households, neighborhoods).
func (r *Runner) E2Communities() (*Report, error) {
	net, err := r.EnsureNetwork()
	if err != nil {
		return nil, err
	}
	g := net.Graph()
	pop := r.pipeline.Pop
	src := rng.New(r.Scale.Seed + 123)

	houses := make([]int, pop.NumPersons())
	neighborhoods := make([]int, pop.NumPersons())
	for i := range pop.Persons {
		houses[i] = int(pop.Persons[i].Home)
		neighborhoods[i] = int(pop.Places[pop.Persons[i].Home].Neighborhood)
	}

	louvain, q := community.Louvain(g, src)
	lp := community.LabelPropagation(g, 32, src)

	sizes := community.Sizes(louvain)
	top := sizes
	if len(top) > 5 {
		top = top[:5]
	}
	rep := &Report{
		Title: "Community structure of the collocation network (Introduction §I)",
		PaperClaim: "community detection algorithms can capture emergent macro level characteristics of the network " +
			"not visible in aggregate statistics",
		Header: []string{"method", "communities", "modularity", "NMI vs households", "NMI vs neighborhoods"},
		Rows: [][]string{
			{"Louvain", d(community.NumCommunities(louvain)), f3(q),
				f3(community.NMI(louvain, houses)), f3(community.NMI(louvain, neighborhoods))},
			{"label propagation", d(community.NumCommunities(lp)), f3(community.Modularity(g, lp)),
				f3(community.NMI(lp, houses)), f3(community.NMI(lp, neighborhoods))},
		},
		Notes: []string{
			fmt.Sprintf("largest Louvain communities: %v (population %d)", top, pop.NumPersons()),
			fmt.Sprintf("ground truth: %d households, %d neighborhoods", community.NumCommunities(houses), pop.Neighborhoods()),
			"positive NMI against both groupings shows the emergent communities align with the city's spatial/household structure without being told about it",
		},
	}
	// Artifact: community size distribution.
	if err := writeCSV(filepath.Join(r.OutDir, "e2_sizes.csv"), []string{"rank", "size"}, func(emit func(...any)) {
		for i, s := range sizes {
			emit(i, s)
		}
	}); err != nil {
		return nil, err
	}
	rep.Files = []string{filepath.Join(r.OutDir, "e2_sizes.csv")}
	return rep, nil
}

// E3SubgroupFit addresses the paper's closing requirement: "an accurate
// characterization of the real population social network will require
// that synthetically generated networks also match the vertex degree
// distributions for population sub-groups such as age". It fits a
// truncated power law per age group and shows a single global fit cannot
// describe all groups.
func (r *Runner) E3SubgroupFit() (*Report, error) {
	net, err := r.EnsureNetwork()
	if err != nil {
		return nil, err
	}
	counts := r.pipeline.Pop.AgeGroupCounts()
	global, err := netstat.FitTruncatedPowerLaw(net.DegreeDistribution())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: "Per-subgroup degree fits vs a single global fit (Conclusions)",
		PaperClaim: "synthetic network generators must match sub-group degree distributions, not just the global one; " +
			"group distributions differ significantly from the whole",
		Header: []string{"group", "truncated α", "truncated κ", "R² (own fit)", "R² (global fit applied)"},
	}
	for gi, n := range r.pipeline.AgeGroupNetworks(net) {
		gg := graph.FromTri(n.Tri, r.Scale.Persons)
		pts := netstat.Distribution(gg.DegreeHistogram(), counts[gi])
		own, err := netstat.FitTruncatedPowerLaw(pts)
		if err != nil {
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			synthpop.AgeGroup(gi).String(),
			f3(own.Alpha), f2(own.Kc), f3(own.R2), f3(global.R2On(pts)),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("global truncated fit: %s", global),
		"negative or near-zero R² of the global fit on a group means the global shape does not describe that group — the paper's tailoring requirement")
	return rep, nil
}

// E4TemporalGranularity exercises the paper's claim that the event log
// "contains the complete information required to create a person
// collocation network with arbitrary time granularity, e.g., hourly,
// daily, weekly or monthly aggregates": it builds daily networks over
// the analysis week, shows the weekday/weekend contrast, and checks that
// the daily networks sum exactly to the weekly one. The days are the
// 24-hour windows of Pipeline.Stream over the closed logs.
func (r *Runner) E4TemporalGranularity() (*Report, error) {
	sim, err := r.EnsureSim()
	if err != nil {
		return nil, err
	}
	net, err := r.EnsureNetwork()
	if err != nil {
		return nil, err
	}
	t0, t1 := r.Scale.SliceBounds()
	var daily []*sparse.Tri
	_, err = r.pipeline.Stream(context.Background(), sim.LogPaths, repro.StreamConfig{
		T0: t0, T1: t1, WindowHours: 24,
		OnWindow: func(w core.WindowResult) error {
			daily = append(daily, w.Window)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: "Arbitrary time granularity: daily vs weekly networks (Section II)",
		PaperClaim: "the event log contains the complete information to create collocation networks at arbitrary " +
			"granularity (hourly, daily, weekly, monthly)",
		Header: []string{"slice", "edges", "total collocated hours", "edges vs weekday mean"},
	}
	dayNames := []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}
	var weekdayEdges float64
	for i, tri := range daily {
		if i < 5 {
			weekdayEdges += float64(tri.NNZ())
		}
	}
	weekdayEdges /= 5
	for i, tri := range daily {
		name := fmt.Sprintf("day %d", i)
		if i < len(dayNames) {
			// The analysis week starts on a Monday (slice start is a
			// multiple of 7 days from day 0 = Monday).
			name = dayNames[i]
		}
		rep.Rows = append(rep.Rows, []string{
			name, d(tri.NNZ()), d64(tri.TotalWeight()),
			f2(float64(tri.NNZ()) / weekdayEdges),
		})
	}
	merged := sparse.MergeTris(daily...)
	exact := merged.Equal(net.Tri)
	rep.Rows = append(rep.Rows, []string{"Σ daily (= week?)", d(merged.NNZ()), d64(merged.TotalWeight()),
		fmt.Sprintf("equal to weekly: %v", exact)})
	if !exact {
		return nil, fmt.Errorf("daily networks do not sum to the weekly network")
	}
	rep.Notes = append(rep.Notes,
		"weekend days show fewer, household/retail-dominated edges (no school or work collocations)",
		"the daily matrices sum exactly to the weekly matrix — the additivity the paper's aggregation step relies on")
	return rep, nil
}

// E5EpidemicOnNetworks quantifies the paper's closing warning: "The
// notion of using generated random scale-free or power-law networks to
// represent social networks in theoretical epidemiology simulation
// models also needs to be examined in light of the differences between
// those networks and the empirically-based networks presented here."
// The identical SIR process — the scenario engine's kernel on a bare
// view — runs on the simulated collocation network and on size- or
// degree-matched random networks; outbreak size and timing differ
// substantially.
func (r *Runner) E5EpidemicOnNetworks() (*Report, error) {
	net, err := r.EnsureNetwork()
	if err != nil {
		return nil, err
	}
	g := net.Graph()
	src := rng.New(r.Scale.Seed + 555)

	er, err := gennet.ErdosRenyi(g.NumVertices(), g.NumEdges(), src)
	if err != nil {
		return nil, err
	}
	config, err := gennet.ConfigurationModel(gennet.DegreeSequence(g), src)
	if err != nil {
		return nil, err
	}

	sir := scenario.Point{Beta: 0.004, InfectiousDays: 4}
	const steps = 60
	seeds := []uint32{0, 1, 2}
	rep := &Report{
		Title: "The same epidemic on real vs random networks (Conclusions)",
		PaperClaim: "using generated random networks in theoretical epidemiology needs examination in light of their " +
			"differences from empirically-based networks",
		Header: []string{"network", "attack rate", "peak day", "new infections at peak"},
	}
	type c struct {
		name string
		g    *graph.Graph
	}
	for _, cand := range []c{
		{"chiSIM collocation (real)", g},
		{"configuration model (degree-matched)", graph.FromTri(config, g.NumVertices())},
		{"Erdős–Rényi (size-matched)", graph.FromTri(er, g.NumVertices())},
	} {
		// Average over a few seeds for stability.
		var attack, peak, peakN float64
		const trials = 3
		view := scenario.NewView(cand.g, nil)
		for trial := 0; trial < trials; trial++ {
			res := sir.Run(view, nil, seeds, rng.New(r.Scale.Seed+uint64(trial)), steps, nil)
			attack += float64(res.Total) / float64(r.Scale.Persons)
			peak += float64(res.PeakStep)
			peakN += float64(res.NewPerStep[res.PeakStep])
		}
		rep.Rows = append(rep.Rows, []string{
			cand.name, f3(attack / trials), f2(peak / trials), f2(peakN / trials),
		})
	}
	rep.Notes = append(rep.Notes,
		"identical SIR process, identical seeds and transmission parameters — only the network differs",
		"random networks lack the clustering and assortativity that slow (or reshape) spread in the empirical network, so epidemic forecasts made on them diverge",
	)
	return rep, nil
}
