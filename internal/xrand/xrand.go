// Package xrand provides a deterministic, splittable pseudo-random number
// generator and the distributions used by the synthetic workloads in this
// repository.
//
// All randomness in the simulator flows through this package so that every
// experiment is reproducible bit-for-bit from its seed. The core generator is
// xoshiro256**, seeded through SplitMix64 (the construction recommended by
// the xoshiro authors). Split derives statistically independent child streams
// from a parent, which lets each rank, node, or workload own a private stream
// without coordination.
package xrand

import "math"

// RNG is a xoshiro256** generator. The zero value is not valid; use New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next SplitMix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via SplitMix64. It is small
// enough to inline, so a generator that does not outlive its caller stays on
// the caller's stack.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets r's state from seed via SplitMix64.
func (r *RNG) seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
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

// Split returns a new generator whose stream is independent of r's.
// The child is seeded from the parent's output, so two Splits at different
// points of the parent stream yield different children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but a
	// simple modulo of a 64-bit draw has negligible bias for the n used here.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Perm returns a random permutation of [0, n), like rand.Perm.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Pareto returns a Pareto(xm, alpha) draw: xm * U^(-1/alpha). This is the
// power-law distribution used by scalebench block costs.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return xm * math.Pow(u, -1/alpha)
	}
}

// LogNormal returns exp(mu + sigma*Z) with Z standard normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
