// Package stats provides the small statistical toolkit used by the campaign
// simulator and the result analysis: summary statistics, Wilson
// confidence intervals for observed error rates, and correlation, all over
// plain float64 slices. Only deterministic, allocation-light routines live
// here; random sampling lives in xrand.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
//
// NaN contract: NaN observations are stripped before ranking
// (sort.Float64s leaves NaN placement undefined, which would make the
// result depend on the input order). A non-empty slice containing only
// NaNs returns NaN, as does a NaN p: there is no rank to interpolate.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when the slices differ in length, are shorter than 2, or
// either has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// WilsonInterval returns the Wilson score interval for an observed
// proportion of successes/trials at confidence z (1.96 for 95%).
// It returns (0, 1) for zero trials: total ignorance.
//
// Domain: successes is clamped into [0, trials] — out-of-range counts
// would put a negative p*(1-p) under the square root and poison both
// bounds with NaN. A non-positive z asks for no confidence at all and
// degenerates to the point interval (p, p); a non-finite z likewise has
// no usable margin and returns (0, 1).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	if successes < 0 {
		successes = 0
	}
	if successes > trials {
		successes = trials
	}
	n := float64(trials)
	p := float64(successes) / n
	if z <= 0 {
		return p, p
	}
	if math.IsInf(z, 0) || math.IsNaN(z) {
		return 0, 1
	}
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
