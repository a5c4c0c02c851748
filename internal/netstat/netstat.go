// Package netstat computes the degree-distribution statistics and model
// fits of the paper's Section V.B: log-log degree distributions, power
// law / truncated power law / exponential fits (Figure 3), and
// within-age-group disaggregation (Figure 5).
package netstat

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
)

// Point is one point of a degree distribution: Count vertices have
// degree K; Frac is Count scaled by the population size, matching the
// paper's "vertex degree distribution fraction, scaled by the total
// number of persons".
type Point struct {
	K     int
	Count int
	Frac  float64
}

// Distribution converts a degree histogram (degree → vertex count) into
// sorted points over k ≥ 1, with fractions relative to total. If total
// is 0 the sum of all counts (including degree 0) is used.
func Distribution(hist map[int]int, total int) []Point {
	if total == 0 {
		for _, c := range hist {
			total += c
		}
	}
	pts := make([]Point, 0, len(hist))
	for k, c := range hist {
		if k < 1 || c == 0 {
			continue
		}
		pts = append(pts, Point{K: k, Count: c, Frac: float64(c) / float64(total)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].K < pts[j].K })
	return pts
}

// DistributionDense converts a dense degree histogram (slot k = number
// of vertices with degree k, as produced by graph.DegreeHistogram) into
// sorted points over k ≥ 1, with fractions relative to total. If total
// is 0 the sum of all slots (including degree 0) is used. Unlike the
// map-based Distribution it iterates in degree order, so the output is
// deterministic without a sort.
func DistributionDense(hist []int, total int) []Point {
	if total == 0 {
		for _, c := range hist {
			total += c
		}
	}
	var pts []Point
	for k, c := range hist {
		if k < 1 || c == 0 {
			continue
		}
		pts = append(pts, Point{K: k, Count: c, Frac: float64(c) / float64(total)})
	}
	return pts
}

// LogBin merges points into logarithmically spaced bins (binsPerDecade
// bins per factor of 10), averaging fractions within each bin. It
// de-noises the sparse tail of a log-log plot.
func LogBin(pts []Point, binsPerDecade int) []Point {
	if binsPerDecade <= 0 || len(pts) == 0 {
		return pts
	}
	type bin struct {
		sumK, sumFrac float64
		count, n      int
	}
	bins := make(map[int]*bin)
	for _, p := range pts {
		idx := int(math.Floor(math.Log10(float64(p.K)) * float64(binsPerDecade)))
		b := bins[idx]
		if b == nil {
			b = &bin{}
			bins[idx] = b
		}
		b.sumK += float64(p.K)
		b.sumFrac += p.Frac
		b.count += p.Count
		b.n++
	}
	idxs := make([]int, 0, len(bins))
	for i := range bins {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Point, 0, len(idxs))
	for _, i := range idxs {
		b := bins[i]
		out = append(out, Point{
			K:     int(b.sumK / float64(b.n)),
			Count: b.count,
			Frac:  b.sumFrac / float64(b.n),
		})
	}
	return out
}

// Fit holds the parameters of one fitted distribution model and its
// goodness of fit (R² of log-fraction residuals).
type Fit struct {
	// Model is "powerlaw", "truncated" or "exponential".
	Model string
	// Alpha is the power-law exponent (0 for exponential).
	Alpha float64
	// Kc is the cutoff degree (0 for pure power law).
	Kc float64
	// C is the log-space intercept.
	C float64
	// R2 is the coefficient of determination in log space.
	R2 float64
}

// Eval returns the model's predicted fraction at degree k.
func (f Fit) Eval(k float64) float64 {
	switch f.Model {
	case "powerlaw":
		return math.Exp(f.C) * math.Pow(k, -f.Alpha)
	case "truncated":
		return math.Exp(f.C) * math.Pow(k, -f.Alpha) * math.Exp(-k/f.Kc)
	case "exponential":
		return math.Exp(f.C) * math.Exp(-k/f.Kc)
	default:
		return math.NaN()
	}
}

// R2On returns the R² of the model's log-space predictions on pts, the
// goodness of one fit's parameters applied to another distribution.
func (f Fit) R2On(pts []Point) float64 {
	ks, logf := logPoints(pts)
	pred := make([]float64, len(ks))
	for i, k := range ks {
		pred[i] = math.Log(f.Eval(k))
	}
	return r2(logf, pred)
}

// String renders the fitted form. The exponent printed is -Alpha, so a
// negative Alpha (a rising head) reads k^0.074, not k^--0.074.
func (f Fit) String() string {
	switch f.Model {
	case "powerlaw":
		return fmt.Sprintf("p(k) ~ k^%.3f (R²=%.3f)", -f.Alpha, f.R2)
	case "truncated":
		return fmt.Sprintf("p(k) ~ k^%.3f exp(-k/%.1f) (R²=%.3f)", -f.Alpha, f.Kc, f.R2)
	case "exponential":
		return fmt.Sprintf("p(k) ~ exp(-k/%.1f) (R²=%.3f)", f.Kc, f.R2)
	default:
		return "unfitted"
	}
}

// designRow is one regression observation: y = Σ beta_i * x_i.
type designRow struct {
	x []float64
	y float64
}

// solveLeastSquares solves the normal equations XᵀX β = Xᵀy by Gaussian
// elimination with partial pivoting; dimensions are tiny (≤3).
func solveLeastSquares(rows []designRow, dim int) ([]float64, bool) {
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1)
	}
	for _, r := range rows {
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				a[i][j] += r.x[i] * r.x[j]
			}
			a[i][dim] += r.x[i] * r.y
		}
	}
	for col := 0; col < dim; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			return nil, false
		}
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= dim; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	beta := make([]float64, dim)
	for i := range beta {
		beta[i] = a[i][dim] / a[i][i]
	}
	return beta, true
}

// r2 computes the coefficient of determination of predictions vs
// observations.
func r2(obs, pred []float64) float64 {
	var mean float64
	for _, y := range obs {
		mean += y
	}
	mean /= float64(len(obs))
	var ssRes, ssTot float64
	for i, y := range obs {
		ssRes += (y - pred[i]) * (y - pred[i])
		ssTot += (y - mean) * (y - mean)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// logPoints extracts the (k, ln frac) observations with positive
// fractions.
func logPoints(pts []Point) (ks, logf []float64) {
	for _, p := range pts {
		if p.Frac > 0 && p.K >= 1 {
			ks = append(ks, float64(p.K))
			logf = append(logf, math.Log(p.Frac))
		}
	}
	return
}

// FitPowerLaw least-squares fits ln p = C - α·ln k.
func FitPowerLaw(pts []Point) (Fit, error) {
	ks, logf := logPoints(pts)
	if len(ks) < 2 {
		return Fit{}, fmt.Errorf("netstat: need ≥2 points to fit, have %d", len(ks))
	}
	rows := make([]designRow, len(ks))
	for i := range ks {
		rows[i] = designRow{x: []float64{1, math.Log(ks[i])}, y: logf[i]}
	}
	beta, ok := solveLeastSquares(rows, 2)
	if !ok {
		return Fit{}, fmt.Errorf("netstat: singular power-law fit")
	}
	f := Fit{Model: "powerlaw", C: beta[0], Alpha: -beta[1]}
	pred := make([]float64, len(ks))
	for i := range ks {
		pred[i] = beta[0] + beta[1]*math.Log(ks[i])
	}
	f.R2 = r2(logf, pred)
	return f, nil
}

// FitTruncatedPowerLaw least-squares fits ln p = C - α·ln k - k/κ, the
// paper's p(k) ~ k^-α e^(-k/κ) form.
func FitTruncatedPowerLaw(pts []Point) (Fit, error) {
	ks, logf := logPoints(pts)
	if len(ks) < 3 {
		return Fit{}, fmt.Errorf("netstat: need ≥3 points to fit, have %d", len(ks))
	}
	rows := make([]designRow, len(ks))
	for i := range ks {
		rows[i] = designRow{x: []float64{1, math.Log(ks[i]), ks[i]}, y: logf[i]}
	}
	beta, ok := solveLeastSquares(rows, 3)
	if !ok {
		return Fit{}, fmt.Errorf("netstat: singular truncated fit")
	}
	kc := math.Inf(1)
	if beta[2] < 0 {
		kc = -1 / beta[2]
	}
	f := Fit{Model: "truncated", C: beta[0], Alpha: -beta[1], Kc: kc}
	pred := make([]float64, len(ks))
	for i := range ks {
		pred[i] = beta[0] + beta[1]*math.Log(ks[i]) + beta[2]*ks[i]
	}
	f.R2 = r2(logf, pred)
	return f, nil
}

// FitExponential least-squares fits ln p = C - k/κ.
func FitExponential(pts []Point) (Fit, error) {
	ks, logf := logPoints(pts)
	if len(ks) < 2 {
		return Fit{}, fmt.Errorf("netstat: need ≥2 points to fit, have %d", len(ks))
	}
	rows := make([]designRow, len(ks))
	for i := range ks {
		rows[i] = designRow{x: []float64{1, ks[i]}, y: logf[i]}
	}
	beta, ok := solveLeastSquares(rows, 2)
	if !ok {
		return Fit{}, fmt.Errorf("netstat: singular exponential fit")
	}
	kc := math.Inf(1)
	if beta[1] < 0 {
		kc = -1 / beta[1]
	}
	f := Fit{Model: "exponential", C: beta[0], Kc: kc}
	pred := make([]float64, len(ks))
	for i := range ks {
		pred[i] = beta[0] + beta[1]*ks[i]
	}
	f.R2 = r2(logf, pred)
	return f, nil
}

// AlphaMLE returns the discrete power-law exponent maximum-likelihood
// estimate α = 1 + n/Σ ln(k_i/(kmin-1/2)) over degrees ≥ kmin
// (Clauset-Shalizi-Newman approximation).
func AlphaMLE(hist map[int]int, kmin int) (float64, error) {
	if kmin < 1 {
		kmin = 1
	}
	var n int
	var sum float64
	for k, c := range hist {
		if k < kmin || c == 0 {
			continue
		}
		n += c
		sum += float64(c) * math.Log(float64(k)/(float64(kmin)-0.5))
	}
	if n == 0 || sum == 0 {
		return 0, fmt.Errorf("netstat: no degrees ≥ %d", kmin)
	}
	return 1 + float64(n)/sum, nil
}

// AlphaMLEDense is AlphaMLE over a dense degree histogram (slot k =
// vertex count at degree k).
func AlphaMLEDense(hist []int, kmin int) (float64, error) {
	if kmin < 1 {
		kmin = 1
	}
	var n int
	var sum float64
	for k := kmin; k < len(hist); k++ {
		c := hist[k]
		if c == 0 {
			continue
		}
		n += c
		sum += float64(c) * math.Log(float64(k)/(float64(kmin)-0.5))
	}
	if n == 0 || sum == 0 {
		return 0, fmt.Errorf("netstat: no degrees ≥ %d", kmin)
	}
	return 1 + float64(n)/sum, nil
}

// WithinGroup restricts a collocation network to edges whose endpoints
// share a group label — the paper's Figure 5 construction ("edges
// between age groups are removed") — returning one Tri per group.
// groups[i] is person i's group in [0, numGroups); persons whose ID is
// outside groups get no edges.
func WithinGroup(t *sparse.Tri, groups []int, numGroups int) []*sparse.Tri {
	out := make([]*sparse.Tri, numGroups)
	for g := 0; g < numGroups; g++ {
		gg := g
		out[g] = t.Filter(func(i, j uint32) bool {
			if int(i) >= len(groups) || int(j) >= len(groups) {
				return false
			}
			return groups[i] == gg && groups[j] == gg
		})
	}
	return out
}

// Histogram bins values into nbins equal-width bins over [lo, hi],
// returning bin centers and counts. Used for the paper's Figure 4
// clustering-coefficient histogram.
func Histogram(values []float64, lo, hi float64, nbins int) (centers []float64, counts []int) {
	if nbins <= 0 || hi <= lo {
		return nil, nil
	}
	centers = make([]float64, nbins)
	counts = make([]int, nbins)
	width := (hi - lo) / float64(nbins)
	for i := range centers {
		centers[i] = lo + (float64(i)+0.5)*width
	}
	for _, v := range values {
		if v < lo || v > hi {
			continue
		}
		b := int((v - lo) / width)
		if b == nbins { // v == hi lands in the last bin
			b = nbins - 1
		}
		counts[b]++
	}
	return centers, counts
}
