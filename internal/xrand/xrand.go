// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the campaign simulator.
//
// Reproducibility is a hard requirement: a beam campaign is defined by a
// single root seed, and every experiment inside it must see the same random
// stream regardless of execution order or parallelism. To that end xrand
// implements SplitMix64 (Steele et al., "Fast Splittable Pseudorandom Number
// Generators") which supports cheap, well-distributed stream splitting.
package xrand

import "math"

// GoldenGamma is the SplitMix64 increment (2^64 / golden ratio).
const GoldenGamma = 0x9E3779B97F4A7C15

// RNG is a splittable SplitMix64 generator. The zero value is a valid
// generator seeded with 0; use New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from r, keyed by label. Streams
// produced by different labels are statistically independent of each other
// and of the parent. Splitting does not advance the parent state, so the
// set of children is a pure function of (parent state, label).
func (r *RNG) Split(label uint64) *RNG {
	return &RNG{state: mix(r.state ^ mix(label*GoldenGamma+1))}
}

// SplitString derives an independent generator keyed by a string label.
func (r *RNG) SplitString(label string) *RNG {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return r.Split(h)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += GoldenGamma
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
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

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
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

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation with
// continuity correction, which is ample for campaign-scale statistics.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero-weight entries are never chosen.
// It panics if weights is empty or sums to a non-positive value.
func (r *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if len(weights) == 0 || total <= 0 {
		panic("xrand: WeightedChoice with no positive weights")
	}
	target := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target < 0 {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("unreachable")
}
