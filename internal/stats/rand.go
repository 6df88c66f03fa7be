package stats

import "math/rand/v2"

// Rand is a deterministic PRNG handle. Every stochastic component of the
// repository (traffic generator, simulations, property tests) draws from an
// explicitly seeded Rand so that experiments are exactly reproducible — the
// substitute for the fixed two-week SWITCH trace is a fixed seed.
type Rand struct {
	src *rand.Rand
}

// NewRand returns a Rand seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint32N returns a uniform uint32 in [0, n). It panics if n == 0.
func (r *Rand) Uint32N(n uint32) uint32 { return uint32(r.src.Uint64N(uint64(n))) }

// Float64 returns a uniform float64 in [0, 1). The conversion keeps the
// source's scaling by 2⁻⁵³, once inlined, from fusing with a caller's
// addition into one multiply-add.
func (r *Rand) Float64() float64 { return float64(r.src.Float64()) }

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.src.Float64() < p }

// NormFloat64 returns a standard normal variate.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// Split derives an independent child generator; id selects the stream.
// Children of the same parent with different ids are decorrelated, which
// lets the trace generator give every interval and every injector its own
// stream without cross-talk when parameters change.
func (r *Rand) Split(id uint64) *Rand {
	s := r.src.Uint64() // advance parent so sequential Splits differ
	return NewRand(s ^ (id+1)*0xd1342543de82ef95)
}
