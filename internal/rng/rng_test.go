package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Reseed stream differs from New at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	child := parent.Split()
	// Child stream must not equal the parent's continued stream.
	identical := true
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("Split child reproduced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

// twoDivisionDraw is the rejection test Uint64n used before it needed
// only one division: accept v below the largest multiple of n that fits
// in 2^64-1, and return v%n.
func twoDivisionDraw(v, n uint64) (uint64, bool) {
	lim := ^uint64(0) - ^uint64(0)%n
	return v % n, v < lim
}

// TestReduceDrawMatchesTwoDivisions pins the one-division rejection test
// to the two-division one at every boundary (0, n-1, and around the
// rejection threshold and 2^64-1) and on random draws, for random n and
// n near 2^63 and 2^64, so every value Uint64n returns stays the same.
func TestReduceDrawMatchesTwoDivisions(t *testing.T) {
	r := New(2017)
	const top = ^uint64(0)
	ns := []uint64{1, 2, 3, 5, 7, 10, 1000, 1<<32 - 1, 1<<32 + 1,
		1<<63 - 1, 1<<63 + 1, 1<<63 + 12345, top - 2, top - 1, top}
	for i := 0; i < 2000; i++ {
		ns = append(ns, max(1, r.Uint64()>>r.Intn(64)))
	}
	for _, n := range ns {
		lim := top - top%n
		vs := []uint64{0, n - 1, lim - 1, lim, lim + 1, top - 1, top}
		for i := 0; i < 20; i++ {
			vs = append(vs, r.Uint64(), lim-uint64(i), lim+uint64(i))
		}
		for _, v := range vs {
			m, ok := reduceDraw(v, n)
			wm, wok := twoDivisionDraw(v, n)
			if ok != wok || (ok && m != wm) {
				t.Fatalf("n=%d v=%d: reduceDraw = (%d, %v), two divisions = (%d, %v)", n, v, m, ok, wm, wok)
			}
		}
	}
}

// TestUint64nDrawsUnchanged replays same-seed streams through Uint64n and
// through the two-division loop: every value and the number of raw draws
// each call consumed must agree.
func TestUint64nDrawsUnchanged(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 20000; i++ {
		n := max(1, a.Uint64()>>(i%64))
		if bn := max(1, b.Uint64()>>(i%64)); bn != n {
			t.Fatalf("streams diverged before draw %d", i)
		}
		got := a.Uint64n(n)
		var want uint64
		if n&(n-1) == 0 {
			want = b.Uint64() & (n - 1)
		} else {
			for ok := false; !ok; {
				want, ok = twoDivisionDraw(b.Uint64(), n)
			}
		}
		if got != want {
			t.Fatalf("draw %d: Uint64n(%d) = %d, two divisions = %d", i, n, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Uint64n consumed a different number of raw draws")
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(17)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %.0f", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(23)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(29)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

// TestBoolTMatchesBool: two sources from one seed, one drawing
// Bool(p) and the other BoolT(Threshold(p)), return equal results and
// stay in step (an equal next Uint64 after every call), so the no-draw
// cases consume nothing on either side. The p set covers the edges of
// the exact-compare argument and the transmission probabilities
// 1-(1-β)^w a spread kernel feeds it.
func TestBoolTMatchesBool(t *testing.T) {
	ps := []float64{0, math.SmallestNonzeroFloat64, 1.0 / (1 << 53), 1e-9, 0.5, math.Nextafter(1, 0), 1}
	for _, beta := range []float64{1e-4, 6e-4, 0.03, 0.5, 1} {
		for w := 0; w <= 500; w++ {
			ps = append(ps, 1-math.Pow(1-beta, float64(w)))
		}
	}
	a, b := New(97), New(97)
	for _, p := range ps {
		// Random draws never land on the boundary, so check it directly:
		// Float64 maps x to x/2⁵³, and the last x Bool accepts must be
		// t-1, the first it rejects t.
		if tt := Threshold(p); tt > 0 && tt < always {
			if !(float64(tt-1)/(1<<53) < p) || float64(tt)/(1<<53) < p {
				t.Fatalf("p=%v: threshold %d is not the boundary of Float64() < p", p, tt)
			}
		}
		for i := 0; i < 64; i++ {
			if got, want := b.BoolT(Threshold(p)), a.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: BoolT %v, Bool %v", p, i, got, want)
			}
			if x, y := b.Uint64(), a.Uint64(); x != y {
				t.Fatalf("p=%v draw %d: streams diverged after the call", p, i)
			}
		}
	}
	if Threshold(0) != 0 || Threshold(-1) != 0 || Threshold(1) != always || Threshold(2) != always {
		t.Fatal("Threshold sentinels wrong")
	}
	if got := Threshold(math.Nextafter(1, 0)); got != always-1 {
		t.Fatalf("Threshold just below 1 = %d, want %d", got, uint64(always-1))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(41)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(43)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(5, 3, 2, 8)
		if v < 2 || v > 8 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalPathologicalBoundsTerminate(t *testing.T) {
	r := New(47)
	// Bounds far from the mean: resampling will fail, clamp must kick in.
	v := r.TruncNormal(0, 0.001, 100, 101)
	if v < 100 || v > 101 {
		t.Fatalf("clamped TruncNormal out of bounds: %v", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(53)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(59)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestExpMean(t *testing.T) {
	r := New(61)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(67)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(71)
	for i := 0; i < 10000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(73)
	c := NewCategorical([]float64{1, 2, 3, 4})
	const n = 100000
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	for i, w := range []float64{0.1, 0.2, 0.3, 0.4} {
		frac := float64(counts[i]) / n
		if math.Abs(frac-w) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", i, frac, w)
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	r := New(79)
	c := NewCategorical([]float64{1, 0, 1})
	for i := 0; i < 10000; i++ {
		if c.Sample(r) == 1 {
			t.Fatal("zero-weight category sampled")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"allzero":  {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCategorical(%s) did not panic", name)
				}
			}()
			NewCategorical(weights)
		}()
	}
}

func TestZipfSupport(t *testing.T) {
	r := New(83)
	z := NewZipf(1.5, 50)
	counts := make([]int, 51)
	for i := 0; i < 100000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 50 {
			t.Fatalf("Zipf sample %d out of [1,50]", v)
		}
		counts[v]++
	}
	// Zipf is monotone decreasing: rank 1 must dominate rank 10.
	if counts[1] <= counts[10] {
		t.Fatalf("Zipf not decreasing: count[1]=%d count[10]=%d", counts[1], counts[10])
	}
}

func TestWeightedChoiceRange(t *testing.T) {
	r := New(89)
	w := []float64{0, 3, 1}
	for i := 0; i < 10000; i++ {
		v := WeightedChoice(r, w)
		if v == 0 {
			t.Fatal("zero-weight index chosen")
		}
		if v < 0 || v > 2 {
			t.Fatalf("WeightedChoice out of range: %d", v)
		}
	}
}

// Property: Intn is always within range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical permutations.
func TestQuickPermDeterministic(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p1 := New(seed).Perm(m)
		p2 := New(seed).Perm(m)
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
