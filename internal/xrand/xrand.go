// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used throughout the simulator.
//
// Every stochastic component of the simulation (access-pattern
// generators, PEBS jitter, ASLR offsets) derives its stream from an
// explicit seed so that full pipeline runs are bit-reproducible. The
// generator is splitmix64 (Steele et al., "Fast splittable pseudorandom
// number generators"), which passes BigCrush and needs only one uint64
// of state.
package xrand

// RNG is a splitmix64 pseudo-random number generator. The zero value is
// a valid generator seeded with 0; prefer New to make streams explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current state
// and a stream label. Forked streams do not overlap for practical
// sample counts because the label is mixed through the output function.
func (r *RNG) Fork(label uint64) *RNG {
	return &RNG{state: r.Uint64() ^ mix(label)}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method would need 128-bit math; the
	// simple modulo bias is < 2^-40 for the ranges used here (< 2^24).
	return r.Uint64() % n
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. No
// production caller: the simulator draws with Uint64n; the randomized
// tests of the advisor, alloc, xrand and root packages draw with it.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}
