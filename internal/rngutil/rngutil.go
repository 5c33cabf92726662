// Package rngutil provides deterministic random-draw helpers shared by all
// synthetic generators. Every generator in the reproduction takes an explicit
// *rand.Rand so that whole experiments are reproducible from a single seed.
package rngutil

import (
	"math"
	"math/rand"
	"sort"
)

// New returns a rand.Rand that yields exactly the stream of
// rand.New(rand.NewSource(seed)). It exists so callers never reach for the
// global source, and it seeds on demand: a stream that stops within 273
// draws never fills math/rand's 607-word register (DESIGN.md §6).
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Derive mixes a base seed with one or more labels into the seed of an
// independent substream. It is the splittable-RNG rule of DESIGN.md §8:
// instead of advancing one shared stream inside a loop, each unit of work
// (a target IP, a /24 trace, a Monte Carlo trial) derives its own stream
// from the run seed plus stable labels, so results are byte-identical at
// any worker count — including one.
//
// Each label is folded in with a splitmix64-style finalizer, so Derive(s, a)
// and Derive(s, b) are decorrelated even for adjacent a, b, and
// Derive(s, a, b) differs from Derive(s, b, a).
func Derive(seed int64, labels ...int64) int64 {
	h := uint64(seed)
	for _, l := range labels {
		h ^= uint64(l) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

// Label folds a string into a Derive label (FNV-1a), so substreams can be
// named after what they perturb ("chaos", "mlab.blackout") instead of
// numbered by convention. Stable across processes and platforms.
func Label(s string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// Zipf draws n samples from a Zipf-like distribution over ranks 1..n with
// exponent s, normalized so the samples sum to total. This is the shape of
// per-ISP Internet user populations (a few eyeball giants, a long tail),
// mirroring the APNIC population dataset the paper weights Figure 1 and
// Figure 2 by.
func Zipf(r *rand.Rand, n int, s float64, total float64) []float64 {
	if n <= 0 {
		return nil
	}
	weights := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		// Base Zipf mass with mild multiplicative noise so ties break
		// differently across seeds.
		w := 1 / math.Pow(float64(i+1), s)
		w *= math.Exp(r.NormFloat64() * 0.25)
		weights[i] = w
		sum += w
	}
	for i := range weights {
		weights[i] = weights[i] / sum * total
	}
	return weights
}

// LogNormal draws a log-normal sample with the given parameters of the
// underlying normal (mu, sigma). Used for capacities and demand volumes.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Bernoulli reports true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}

// IntBetween returns a uniform integer in [lo, hi] inclusive. It panics when
// hi < lo.
func IntBetween(r *rand.Rand, lo, hi int) int {
	if hi < lo {
		panic("rngutil: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Jitter returns v multiplied by a uniform factor in [1-frac, 1+frac].
func Jitter(r *rand.Rand, v, frac float64) float64 {
	return v * (1 + (r.Float64()*2-1)*frac)
}

// WeightedChoice returns an index in [0, len(weights)) drawn proportionally
// to the weights. Zero or negative weights are treated as zero. It panics on
// an empty slice and returns the last index if all weights are zero.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	if len(weights) == 0 {
		panic("rngutil: WeightedChoice on empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return len(weights) - 1
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement returns k distinct indices from [0, n) in random
// order. When k >= n it returns a permutation of all n indices.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// Shuffle shuffles a slice of ints in place.
func Shuffle(r *rand.Rand, xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Descending sorts the values in descending order (in place) and returns
// them; convenience for rank-ordered population assignment.
func Descending(xs []float64) []float64 {
	sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	return xs
}

// Fast is a splitmix64 PRNG for hot paths that need one independent
// deterministic stream per (site, target) pair. Its state is one word and
// NewFast inlines, so a stream that stays in its function allocates nothing,
// and a draw is a few multiplies. A New stream allocates its source, each
// draw goes through an interface call, and a stream that passes 273 draws
// builds a 607-word register. Not cryptographic; statistical quality is
// ample for noise synthesis.
type Fast struct{ state uint64 }

// NewFast returns a Fast seeded with the given value.
func NewFast(seed uint64) *Fast { return &Fast{state: seed} }

// Uint64 returns the next value of the stream.
func (f *Fast) Uint64() uint64 {
	f.state += 0x9e3779b97f4a7c15
	z := f.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (f *Fast) Float64() float64 {
	return float64(f.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n); it panics when n <= 0.
func (f *Fast) Intn(n int) int {
	if n <= 0 {
		panic("rngutil: Fast.Intn with n <= 0")
	}
	return int(f.Uint64() % uint64(n))
}
