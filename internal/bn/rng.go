package bn

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). The repository uses it instead of
// math/rand so that streams, network generators and counters are reproducible
// from explicit seeds and cheap to advance on the per-counter hot path.
//
// Uint64 and Float64 must stay within the compiler's inlining budget: every
// draw on the hot paths (the forward sampler, a site's one-way coin, a bank's
// sampling-mode coin) is then a few instructions in its caller rather than a
// call. scripts/inline_check.sh fails when either stops inlining or one of
// those call sites stops inlining it.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns the next 64 random bits: one xoshiro256** step, written on
// locals so that it inlines (rng_test.go keeps the reference formulation as
// its oracle).
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2]^r.s[0], r.s[3]^r.s[1]
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("bn: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Gamma draws from a Gamma(shape, 1) distribution using the Marsaglia–Tsang
// method; used to sample Dirichlet-distributed CPT rows.
func (r *RNG) Gamma(shape float64) float64 {
	if shape < 1 {
		// Boosting: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := r.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills dst with a draw from a symmetric Dirichlet(alpha)
// distribution of dimension len(dst); rows sum to exactly 1.
func (r *RNG) Dirichlet(alpha float64, dst []float64) {
	sum := 0.0
	for i := range dst {
		g := r.Gamma(alpha)
		dst[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (all zero, possible for tiny alpha): uniform.
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// normal draws a standard normal variate (polar Box–Muller, one value).
func (r *RNG) normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// State exposes the generator's internal state for checkpointing.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state captured with State, making the generator
// resume the exact same sequence.
func (r *RNG) SetState(s [4]uint64) { r.s = s }
