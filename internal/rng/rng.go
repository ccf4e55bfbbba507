// Package rng provides deterministic, splittable random-number utilities.
// Every experiment in the repository threads an explicit *rng.RNG so that
// each figure is exactly reproducible from its seed, and sub-streams can be
// derived for clients / trials without correlation between them.
package rng

import (
	"math/rand"
)

// RNG wraps math/rand.Rand with domain helpers used across the repository.
type RNG struct {
	r *rand.Rand
}

// New returns a deterministic RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream. The mixing constant is an
// arbitrary large odd number (splitmix64-style) so that nearby labels give
// uncorrelated streams.
func (g *RNG) Split(label int64) *RNG {
	seed := g.r.Int63() ^ (label * int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF))
	return New(seed)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a Gaussian sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// NormalVec fills a fresh length-n vector with N(mean, stddev²) samples.
func (g *RNG) NormalVec(n int, mean, stddev float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.Normal(mean, stddev)
	}
	return v
}

// Perm returns a uniformly random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles the first n integers of idx in place using Fisher-Yates.
func (g *RNG) Shuffle(idx []int) {
	g.r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0,n). It panics if k > n.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: sample size exceeds population")
	}
	perm := g.r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}
