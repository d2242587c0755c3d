package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random source (xoshiro256**).
// Every stochastic decision in the simulator (frame loss, jitter, IV choice,
// backoff) draws from a kernel's RNG so that a run is a pure function of its
// seed. It is intentionally not cryptographically secure; the crypto in
// internal/wep and internal/vpn has its own explicit randomness.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which maps any
// seed (including 0) to a full-period initial state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
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

// Uint32 returns the next 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for sim n
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard-normally distributed value (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Jitter returns a duration uniformly distributed in [0, max).
func (r *RNG) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(max))
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Fork returns a new RNG whose state is derived from this one. Use it to give
// components independent streams that remain a deterministic function of the
// kernel seed.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }
