package simnet

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Every stochastic component of the simulator draws from an
// explicitly seeded RNG so that runs are reproducible bit-for-bit; the
// standard library's global source is never used.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork returns a new generator whose stream is decorrelated from r's by a
// fixed tweak; use it to hand independent streams to sub-components. Fork
// consumes one draw from r, so the child's stream depends on how many
// forks (and draws) preceded it — use ForkKey/ForkString when the child's
// identity, not its creation order, should determine its stream.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15) }

// ForkKey returns a generator for the sub-component identified by key,
// derived from r's current state WITHOUT consuming a draw: two ForkKey
// calls on the same generator with the same key yield identical streams no
// matter how many other keyed forks happened in between or in what order.
// This is what makes per-node streams a pure function of (seed, node
// identity) — a manifest loader may materialize nodes in any order (map
// iteration included) without perturbing any node's randomness.
func (r *RNG) ForkKey(key uint64) *RNG {
	// Two SplitMix64 finalization rounds over (state, key): the first
	// decorrelates the key, the second decorrelates the child seed from
	// sibling keys. r.state is read, never advanced.
	z := r.state ^ (key+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

// ForkString is ForkKey with a string identity (FNV-1a hashed). Use it to
// key sub-streams by human-readable paths ("drop/edge/17/rail0").
func (r *RNG) ForkString(key string) *RNG {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return r.ForkKey(h)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n <= 0 panics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simnet: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform int in [lo, hi]. lo > hi panics.
func (r *RNG) Range(lo, hi int) int {
	if lo > hi {
		panic("simnet: Range with lo > hi")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed duration with the given mean,
// the canonical inter-arrival law for Poisson traffic. Mean <= 0 returns 0.
func (r *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-math.Log(u) * float64(mean))
}

// Pareto returns a bounded Pareto-distributed size in [lo, hi] with shape
// alpha. Heavy-tailed message sizes are characteristic of middleware
// conglomerate traffic (many tiny control messages, few huge payloads).
func (r *RNG) Pareto(lo, hi int, alpha float64) int {
	if lo <= 0 || hi < lo {
		panic("simnet: Pareto bounds must satisfy 0 < lo <= hi")
	}
	if alpha <= 0 {
		panic("simnet: Pareto shape must be positive")
	}
	l, h := float64(lo), float64(hi)
	u := r.Float64()
	// Inverse CDF of the bounded Pareto distribution.
	num := u*math.Pow(h, alpha) - u*math.Pow(l, alpha) - math.Pow(h, alpha)
	x := math.Pow(-num/(math.Pow(l, alpha)*math.Pow(h, alpha)), -1/alpha)
	n := int(x)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}
