// Package hrand centralizes every source of randomness in the Prive-HD
// reproduction. All experiments, datasets, hypervector memories and privacy
// mechanisms draw from a *Source seeded explicitly, so any run is
// reproducible bit-for-bit from its seed.
//
// The generator is the stdlib PCG from math/rand/v2. This is a simulation
// and research codebase: the Gaussian noise used by the differential-privacy
// mechanism is statistically correct but NOT drawn from a cryptographically
// secure generator; a production deployment would swap in crypto/rand-backed
// sampling. That trade-off is deliberate and documented here once.
package hrand

import "math/rand/v2"

// Source is a deterministic random source. It is not safe for concurrent
// use; derive per-goroutine sources with Split.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with the given seed. Equal seeds yield equal
// streams.
func New(seed uint64) *Source {
	return &Source{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// Split derives an independent child source from s, keyed by id. Children
// with distinct ids have (statistically) independent streams and do not
// perturb the parent's stream, so adding a consumer never changes the
// sequence seen by existing consumers.
func (s *Source) Split(id uint64) *Source {
	// Mix the id through a splitmix64 round so sequential ids land far
	// apart in PCG seed space.
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &Source{rng: rand.New(rand.NewPCG(s.rng.Uint64(), z))}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Normal returns a sample from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.rng.NormFloat64()
}

// NormalVec fills a fresh slice of length n with N(mu, sigma²) samples.
func (s *Source) NormalVec(n int, mu, sigma float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = s.Normal(mu, sigma)
	}
	return v
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	return s.rng.Perm(n)
}

// SampleK returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (s *Source) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("hrand: SampleK k out of range")
	}
	// Partial Fisher-Yates over an index slice.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
