// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the simulation.
//
// Every stochastic component in the repository draws from an rng.Source so
// that experiments are exactly reproducible from a single root seed. The
// generator is xoshiro256**, seeded through SplitMix64; independent
// subsystem streams are derived with Split, which produces a statistically
// independent child generator without sharing state with the parent.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source implementing
// xoshiro256**. The zero value is not usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via SplitMix64 so that even
// adjacent seeds produce well-decorrelated streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed reinitializes the source from seed, as if freshly constructed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not be seeded with all zeros; SplitMix64 makes that
	// astronomically unlikely, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
}

// Uint64 returns the next 64 uniformly random bits. The rotations are
// the bits intrinsic because it keeps Uint64 cheap enough for BoolT to
// inline with it, which spares a spread kernel a call per draw.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives an independent child source. The parent advances by one
// draw; the child is seeded from that draw, so parent and child streams
// do not overlap in practice.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) by modulo reduction with
// rejection of the draws that would bias it. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		if m, ok := reduceDraw(r.Uint64(), n); ok {
			return m
		}
	}
}

// reduceDraw returns v%n, and whether v may be used: false when v lies in
// the incomplete block of n values at the top of the uint64 range, which
// would bias the result. With one division: v's block [v-v%n, v-v%n+n)
// must fit below 2^64, i.e. v - v%n <= 2^64-1-n — the same draws as the
// two-division test v < 2^64-1 - (2^64-1)%n accepts.
func reduceDraw(v, n uint64) (uint64, bool) {
	m := v % n
	return m, v-m <= ^uint64(0)-n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// always is the threshold of a certain event, 2⁵³: BoolT(always)
// returns true without drawing.
const always = 1 << 53

// Threshold converts a probability into the integer threshold BoolT
// draws against: 0 for p ≤ 0, always for p ≥ 1, and ceil(p·2⁵³)
// otherwise. Float64 is x/2⁵³ for an integer x < 2⁵³, and scaling by a
// power of two is exact, so Float64() < p holds exactly when x <
// ceil(p·2⁵³): BoolT(Threshold(p)) and Bool(p) return the same results
// and consume the same draws. p must not be NaN.
func Threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return always
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BoolT is Bool against a precomputed Threshold: t == 0 returns false
// and t ≥ always returns true, both without drawing; otherwise it draws
// once and compares integers.
func (r *Source) BoolT(t uint64) bool {
	if t-1 >= always-1 { // t == 0 wraps around, so one compare takes both
		return t != 0
	}
	return r.Uint64()>>11 < t
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// TruncNormal returns a normal variate with the given mean and standard
// deviation truncated to [lo, hi] by resampling (with a clamp fallback
// after a bounded number of attempts, so pathological bounds terminate).
func (r *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	for i := 0; i < 64; i++ {
		v := mean + stddev*r.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// Float64 is in [0,1); use 1-u to avoid Log(0).
	return -math.Log(1-u) / rate
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// product method for small means and normal approximation for large.
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
