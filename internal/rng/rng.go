// Package rng provides deterministic, seedable pseudo-random number
// generation for the PACE-VM simulators.
//
// Every stochastic element of the reproduction — trace arrivals, runtime
// draws, profile assignment bursts, power-meter noise — draws from an
// explicitly named Stream derived from a master seed, so a whole
// experiment is reproducible from a single integer and independent
// components do not perturb each other's draws when the code evolves
// (adding a draw to the meter does not reshuffle the trace).
//
// The generator is xoshiro256**, seeded through splitmix64, the standard
// construction recommended by its authors. Both are implemented here
// because the repository is stdlib-only and math/rand/v2's generators do
// not expose named substream derivation.
package rng

import (
	"hash/fnv"
	"math"
)

// splitmix64 advances a 64-bit state and returns the next output. It is
// used to expand seeds into full generator states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic random stream (xoshiro256**). The zero value
// is not usable; construct streams with New or Source.Stream.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state; splitmix64
	// cannot produce four consecutive zeros, but guard anyway.
	if st.s == [4]uint64{} {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0,1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; modulo bias is negligible for the small n the simulators use,
	// but reject to keep draws exactly uniform regardless.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// IntBetween returns a uniform int in [lo,hi] inclusive. It panics if
// hi < lo.
func (r *Stream) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Uniform returns a uniform float64 in [lo,hi).
func (r *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed float64 with the given mean.
// It panics if mean <= 0.
func (r *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// Use 1-Float64() so the argument of Log is in (0,1].
	return -mean * math.Log(1-r.Float64())
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, via the polar Box–Muller transform.
func (r *Stream) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normally distributed float64 where the
// underlying normal has parameters mu and sigma. Parallel-workload
// runtimes are classically heavy-tailed and well fitted by lognormals.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// Source derives independent named Streams from a master seed. Stream
// identity depends only on (seed, name), never on derivation order.
type Source struct {
	seed uint64
}

// NewSource returns a Source with the given master seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Stream returns the stream uniquely identified by name under this
// source's master seed. Calling it twice with the same name returns
// streams with identical future output.
func (s *Source) Stream(name string) *Stream {
	h := fnv.New64a()
	// Writes to an FNV hash never fail.
	_, _ = h.Write([]byte(name))
	return New(s.seed ^ h.Sum64() ^ 0xA5A5A5A5A5A5A5A5)
}
