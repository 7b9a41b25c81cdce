package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64-seeded xorshift64*). Every simulation run owns its own RNG so
// repeated runs with the same seed replay event-for-event.
//
// An RNG is goroutine-confined, like the Engine it usually lives next to:
// it is plain mutable state with no locking. Concurrent trials must not
// share one — derive an independent substream seed per trial with Substream
// and give each trial its own NewRNG.
//
// An RNG counts the draws made since it was last seeded. A run whose
// count is still zero at the end followed the same path it would have
// followed under any other seed (see Draws).
type RNG struct {
	state uint64
	draws uint64
}

// Substream deterministically derives an independent seed from a base seed
// and a path of integer coordinates (series, cell, repetition, ...). It is a
// pure function of its inputs, so any number of goroutines may derive
// substream seeds concurrently and hand each trial a private NewRNG — the
// safe way to parallelize a seeded experiment grid. Nearby coordinates give
// unrelated streams (each step folds a splitmix-style odd constant into an
// avalanching mix).
func Substream(base uint64, parts ...uint64) uint64 {
	h := base*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

// NewRNG returns a generator seeded from seed via splitmix64 so that nearby
// seeds produce unrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-seeds the generator in place, leaving it in exactly the state
// NewRNG(seed) would return. It is the reuse path for pooled simulation
// stacks: a redeployed machine rewinds its random stream to a fresh trial's
// seed without allocating a new generator.
func (r *RNG) Reseed(seed uint64) {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
	r.draws = 0
}

// Draws returns the number of Uint64 draws since the generator was last
// seeded. Every other draw method goes through Uint64, so zero means the
// stream was never read: nothing the caller did depended on the seed.
func (r *RNG) Draws() uint64 { return r.draws }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.draws++
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, for Poisson event processes.
func (r *RNG) ExpDuration(mean Time) Time {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := -float64(mean) * math.Log(u)
	if d > float64(math.MaxInt64/2) {
		d = float64(math.MaxInt64 / 2)
	}
	return Time(d)
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f]; used to add
// bounded run-to-run noise to service times.
func (r *RNG) Jitter(d Time, f float64) Time {
	if f <= 0 {
		return d
	}
	scale := 1 + f*(2*r.Float64()-1)
	return Time(float64(d) * scale)
}
