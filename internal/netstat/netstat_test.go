package netstat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// synthPoints evaluates a known model at degrees 1..n to produce exact
// observations for fit-recovery tests.
func synthPoints(n int, f func(k float64) float64) []Point {
	pts := make([]Point, 0, n)
	for k := 1; k <= n; k++ {
		pts = append(pts, Point{K: k, Count: 1, Frac: f(float64(k))})
	}
	return pts
}

func TestDistributionSortedAndFractions(t *testing.T) {
	hist := []int{100, 10, 0, 5, 0, 0, 0, 1} // degrees 0..7
	pts := Distribution(hist, 0)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3 (degree 0 excluded)", len(pts))
	}
	if pts[0].K != 1 || pts[1].K != 3 || pts[2].K != 7 {
		t.Fatalf("points not sorted: %v", pts)
	}
	total := 116.0
	if math.Abs(pts[0].Frac-10/total) > 1e-12 {
		t.Fatalf("frac = %v, want %v", pts[0].Frac, 10/total)
	}
}

func TestDistributionExplicitTotal(t *testing.T) {
	pts := Distribution([]int{0, 0, 5}, 50)
	if math.Abs(pts[0].Frac-0.1) > 1e-12 {
		t.Fatalf("frac = %v, want 0.1", pts[0].Frac)
	}
}

func TestFitPowerLawRecovery(t *testing.T) {
	// Exact power law with α = 1.5: fit must recover it.
	pts := synthPoints(100, func(k float64) float64 { return 0.3 * math.Pow(k, -1.5) })
	fit, err := FitPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-1.5) > 1e-9 {
		t.Fatalf("alpha = %v, want 1.5", fit.Alpha)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Fatalf("R² = %v, want 1", fit.R2)
	}
	if math.Abs(fit.Eval(10)-0.3*math.Pow(10, -1.5)) > 1e-12 {
		t.Fatalf("Eval mismatch")
	}
}

func TestFitTruncatedRecovery(t *testing.T) {
	// Paper's Figure 3 overlay: α = 1.25, κ = 1000.
	pts := synthPoints(2000, func(k float64) float64 {
		return 0.5 * math.Pow(k, -1.25) * math.Exp(-k/1000)
	})
	fit, err := FitTruncatedPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-1.25) > 1e-6 {
		t.Fatalf("alpha = %v, want 1.25", fit.Alpha)
	}
	if math.Abs(fit.Kc-1000) > 1 {
		t.Fatalf("kc = %v, want 1000", fit.Kc)
	}
}

func TestFitExponentialRecovery(t *testing.T) {
	pts := synthPoints(200, func(k float64) float64 { return 0.2 * math.Exp(-k/35) })
	fit, err := FitExponential(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Kc-35) > 1e-6 {
		t.Fatalf("kc = %v, want 35", fit.Kc)
	}
}

func TestTruncatedBeatsPureOnRolledOffData(t *testing.T) {
	// Data with an exponential roll-off: the truncated model must fit
	// at least as well (the paper's observation about the tail).
	pts := synthPoints(500, func(k float64) float64 {
		return math.Pow(k, -1.3) * math.Exp(-k/120)
	})
	pure, err := FitPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := FitTruncatedPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.R2 < pure.R2 {
		t.Fatalf("truncated R² %v below pure %v", trunc.R2, pure.R2)
	}
}

func TestFitErrorsOnTooFewPoints(t *testing.T) {
	one := []Point{{K: 1, Count: 1, Frac: 0.5}}
	if _, err := FitPowerLaw(one); err == nil {
		t.Error("power-law fit of 1 point accepted")
	}
	two := append(one, Point{K: 2, Count: 1, Frac: 0.25})
	if _, err := FitTruncatedPowerLaw(two); err == nil {
		t.Error("truncated fit of 2 points accepted")
	}
	if _, err := FitExponential(one); err == nil {
		t.Error("exponential fit of 1 point accepted")
	}
}

func TestFitStrings(t *testing.T) {
	pts := synthPoints(50, func(k float64) float64 { return math.Pow(k, -2) })
	fit, _ := FitPowerLaw(pts)
	if fit.String() == "" || fit.Model != "powerlaw" {
		t.Fatal("fit string empty")
	}
	// The exponent's sign is printed once: α > 0 decays, α < 0 rises.
	for _, c := range []struct {
		fit  Fit
		want string
	}{
		{Fit{Model: "powerlaw", Alpha: 1.5, R2: 0.9}, "p(k) ~ k^-1.500 (R²=0.900)"},
		{Fit{Model: "powerlaw", Alpha: -0.25, R2: 0.5}, "p(k) ~ k^0.250 (R²=0.500)"},
		{Fit{Model: "truncated", Alpha: 1.25, Kc: 1000, R2: 0.8}, "p(k) ~ k^-1.250 exp(-k/1000.0) (R²=0.800)"},
		{Fit{Model: "truncated", Alpha: -0.074, Kc: 75.3, R2: 0.604}, "p(k) ~ k^0.074 exp(-k/75.3) (R²=0.604)"},
		{Fit{Model: "exponential", Kc: 82.2, R2: 0.603}, "p(k) ~ exp(-k/82.2) (R²=0.603)"},
	} {
		if got := c.fit.String(); got != c.want {
			t.Errorf("%+v: String() = %q, want %q", c.fit, got, c.want)
		}
	}
}

func TestR2OnMatchesOwnFit(t *testing.T) {
	pts := synthPoints(40, func(k float64) float64 { return 0.3 * math.Pow(k, -1.2) * math.Exp(-k/25) })
	fit, err := FitTruncatedPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fit.R2On(pts); math.Abs(got-fit.R2) > 1e-9 {
		t.Errorf("R2On(own points) = %v, want the fit's R² %v", got, fit.R2)
	}
	// A decaying law scored on rising points explains less than nothing.
	rising := synthPoints(40, func(k float64) float64 { return 1e-3 * k })
	if got := fit.R2On(rising); got >= 0 {
		t.Errorf("R2On(rising points) = %v, want < 0", got)
	}
}

func TestAlphaMLE(t *testing.T) {
	// Build a histogram sampled from a discrete power law α=2.2 via
	// Zipf and check the MLE lands near it.
	r := rng.New(7)
	z := rng.NewZipf(2.2, 10000)
	hist := make([]int, 10001)
	for i := 0; i < 200000; i++ {
		hist[z.Sample(r)]++
	}
	alpha, err := AlphaMLE(hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-2.2) > 0.15 {
		t.Fatalf("MLE alpha = %v, want ≈2.2", alpha)
	}
}

func TestAlphaMLEEmpty(t *testing.T) {
	if _, err := AlphaMLE([]int{0, 5}, 10); err == nil {
		t.Fatal("MLE with no qualifying degrees accepted")
	}
}

func TestWithinGroup(t *testing.T) {
	acc := sparse.NewAccum()
	acc.Add(0, 1, 5) // both group 0
	acc.Add(2, 3, 7) // both group 1
	acc.Add(1, 2, 9) // cross-group: must vanish everywhere
	tri := acc.Tri()
	groups := []int{0, 0, 1, 1}
	per := WithinGroup(tri, groups, 2)
	if per[0].NNZ() != 1 || per[0].Weight(0, 1) != 5 {
		t.Fatalf("group 0 network wrong: %+v", per[0])
	}
	if per[1].NNZ() != 1 || per[1].Weight(2, 3) != 7 {
		t.Fatalf("group 1 network wrong")
	}
	if per[0].Weight(1, 2) != 0 && per[1].Weight(1, 2) != 0 {
		t.Fatal("cross-group edge survived")
	}
}

func TestWithinGroupOutOfRangePersons(t *testing.T) {
	acc := sparse.NewAccum()
	acc.Add(0, 99, 1) // person 99 has no group label
	per := WithinGroup(acc.Tri(), []int{0}, 1)
	if per[0].NNZ() != 0 {
		t.Fatal("edge with unlabeled endpoint survived")
	}
}

func TestLogBinReducesPoints(t *testing.T) {
	var pts []Point
	for k := 1; k <= 1000; k++ {
		pts = append(pts, Point{K: k, Count: 1, Frac: 1.0 / float64(k)})
	}
	binned := LogBin(pts, 5)
	if len(binned) >= len(pts) {
		t.Fatalf("binning did not reduce: %d -> %d", len(pts), len(binned))
	}
	for i := 1; i < len(binned); i++ {
		if binned[i-1].K >= binned[i].K {
			t.Fatal("binned points not increasing in K")
		}
	}
	// Total count preserved.
	total := 0
	for _, p := range binned {
		total += p.Count
	}
	if total != 1000 {
		t.Fatalf("binned count = %d, want 1000", total)
	}
}

func TestLogBinPassThrough(t *testing.T) {
	pts := []Point{{K: 1, Count: 1, Frac: 0.1}}
	if got := LogBin(pts, 0); len(got) != 1 {
		t.Fatal("binsPerDecade=0 should pass through")
	}
	if got := LogBin(nil, 5); got != nil {
		t.Fatal("empty input should pass through")
	}
}

func TestHistogram(t *testing.T) {
	values := []float64{0, 0.1, 0.5, 0.99, 1.0, 1.0}
	centers, counts := Histogram(values, 0, 1, 4)
	if len(centers) != 4 || len(counts) != 4 {
		t.Fatal("wrong bin count")
	}
	// 0 and 0.1 → bin 0; 0.5 → bin 2; 0.99 and both 1.0 → bin 3.
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 || counts[3] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	if math.Abs(centers[0]-0.125) > 1e-12 {
		t.Fatalf("centers = %v", centers)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if c, n := Histogram(nil, 0, 1, 0); c != nil || n != nil {
		t.Fatal("nbins=0 should return nil")
	}
	if c, n := Histogram(nil, 1, 1, 4); c != nil || n != nil {
		t.Fatal("hi<=lo should return nil")
	}
}

// Property: the power-law fit recovers arbitrary (α, C) exactly from
// noiseless data.
func TestQuickPowerLawRecovery(t *testing.T) {
	f := func(a8, c8 uint8) bool {
		alpha := 0.5 + float64(a8%30)/10 // 0.5 .. 3.4
		c := 0.01 + float64(c8%50)/100
		pts := synthPoints(80, func(k float64) float64 { return c * math.Pow(k, -alpha) })
		fit, err := FitPowerLaw(pts)
		if err != nil {
			return false
		}
		return math.Abs(fit.Alpha-alpha) < 1e-6 && fit.R2 > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram counts always sum to the number of in-range values.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		values := make([]float64, 100)
		for i := range values {
			values[i] = r.Float64()
		}
		_, counts := Histogram(values, 0, 1, 10)
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionDenseMatchesMap(t *testing.T) {
	// A dense histogram must produce the points a map histogram gives
	// when its positive degrees are sorted.
	dense := []int{100, 10, 0, 5, 0, 0, 0, 1} // degrees 0..7
	m := map[int]int{0: 100, 1: 10, 3: 5, 7: 1}
	dp := Distribution(dense, 0)
	var mp []Point
	for k, c := range m {
		if k >= 1 {
			mp = append(mp, Point{K: k, Count: c, Frac: float64(c) / 116})
		}
	}
	sort.Slice(mp, func(i, j int) bool { return mp[i].K < mp[j].K })
	if len(dp) != len(mp) {
		t.Fatalf("dense %d points vs map %d", len(dp), len(mp))
	}
	for i := range dp {
		if dp[i] != mp[i] {
			t.Fatalf("point %d: dense %+v vs map %+v", i, dp[i], mp[i])
		}
	}
	// Already sorted by construction.
	for i := 1; i < len(dp); i++ {
		if dp[i-1].K >= dp[i].K {
			t.Fatalf("dense points not strictly increasing in K: %v", dp)
		}
	}
}

func TestDistributionDenseExplicitTotal(t *testing.T) {
	pts := Distribution([]int{0, 0, 5}, 50)
	if len(pts) != 1 || math.Abs(pts[0].Frac-0.1) > 1e-12 {
		t.Fatalf("pts = %v, want single point with frac 0.1", pts)
	}
	if got := Distribution(nil, 0); len(got) != 0 {
		t.Fatalf("empty histogram produced points: %v", got)
	}
}

// TestAlphaMLEDenseMatchesMap checks the histogram MLE against the
// estimate summed sample by sample, and that it returns the very same
// float64 on every call.
func TestAlphaMLEDenseMatchesMap(t *testing.T) {
	r := rng.New(11)
	z := rng.NewZipf(2.2, 10000)
	dense := make([]int, 10001)
	var n int
	var sum float64
	for i := 0; i < 100000; i++ {
		k := z.Sample(r)
		dense[k]++
		if k >= 3 {
			n++
			sum += math.Log(float64(k) / 2.5)
		}
	}
	ad, err := AlphaMLE(dense, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + float64(n)/sum; math.Abs(ad-want) > 1e-9 {
		t.Fatalf("histogram MLE %v differs from per-sample MLE %v", ad, want)
	}
	for i := 0; i < 100; i++ {
		if again, _ := AlphaMLE(dense, 3); again != ad {
			t.Fatalf("call %d: MLE %v, first call %v", i, again, ad)
		}
	}
}

func TestAlphaMLEDenseEmpty(t *testing.T) {
	if _, err := AlphaMLE([]int{0, 5, 0, 0, 0, 0, 0, 0, 0, 0}, 10); err == nil {
		t.Fatal("dense MLE with no qualifying degrees accepted")
	}
	if _, err := AlphaMLE(nil, 1); err == nil {
		t.Fatal("dense MLE on nil histogram accepted")
	}
}
